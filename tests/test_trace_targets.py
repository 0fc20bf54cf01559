"""The names the per-layer tracer of perfbench/tracer.py wraps must exist.

The tracer resolves its targets by name at run time and records a missing
one instead of failing, so a renamed or deleted function would silently
drop a per-layer metric. These tests fail first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from bbwkoszul import koszul, weights

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [target for targets in _load_tracer().LAYER_FUNCTIONS.values() for target in targets]


@pytest.mark.parametrize("module_name, path", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_layer_target_resolves(module_name, path):
    # the lookup of Recorder.install: getattr along the path, then the
    # owner's own namespace, so an inherited or missing attribute fails
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    assert owner is not None and callable(vars(owner).get(attr))


def test_build_page_binds_the_page_key():
    parameters = inspect.signature(koszul.build_page).parameters
    assert {"ctx", "variant", "coefficient"} <= set(parameters)


def test_weyl_cache_statistics():
    info = weights._weyl_product.cache_info()
    assert info.hits >= 0 and info.misses >= 0
    assert info.maxsize is not None
