"""Every memo in the package is bounded.

An ``lru_cache`` with ``maxsize=None`` grows for the life of the process,
so a long-lived caller that runs many reports would grow without limit.
"""

import gc
import importlib
import inspect
import pkgutil
import tracemalloc

import pytest

import bbwkoszul
from bbwkoszul import checks, classes, weights
from bbwkoszul.bbw import Grassmannian
from bbwkoszul.checks import run_checks


def _lru_caches():
    for info in pkgutil.iter_modules(bbwkoszul.__path__, "bbwkoszul."):
        module = importlib.import_module(info.name)
        owners = [module] + [
            value
            for value in vars(module).values()
            if inspect.isclass(value) and value.__module__ == module.__name__
        ]
        for owner in owners:
            for name, value in vars(owner).items():
                value = getattr(value, "__func__", value)  # staticmethod, classmethod
                defined_here = getattr(value, "__module__", None) == module.__name__
                if defined_here and callable(getattr(value, "cache_info", None)):
                    yield f"{owner.__name__}.{name}", value


def test_every_lru_cache_is_bounded():
    caches = dict(_lru_caches())
    assert {
        "bbwkoszul.weights._weyl_product",
        "bbwkoszul.weights._kostka",
        "bbwkoszul.weights.wedge_weights",
        "bbwkoszul.weights._tensor_product",
        "bbwkoszul.classes.named_class",
        "bbwkoszul.checks._plethysm_character_ok",
        "bbwkoszul.koszul.koszul_analysis",
        "bbwkoszul.oracles.kostka_number",
    } <= set(caches)
    unbounded = [name for name, cache in caches.items() if cache.cache_info().maxsize is None]
    assert not unbounded


def test_wedge_weights_value_is_read_only():
    assert weights.wedge_weights.cache_info().maxsize == weights.WEDGE_CACHE_SIZE
    square = weights.wedge_weights((3, 0), 2)
    with pytest.raises(TypeError):
        square[(9, -3)] = 1
    assert weights.wedge_weights((3, 0), 2) == {(5, 1): 1, (3, 3): 1}


def test_tensor_weights_value_is_read_only():
    assert weights._tensor_product.cache_info().maxsize == weights.TENSOR_CACHE_SIZE
    square = weights.tensor_weights([1, 0], (1, 0))
    with pytest.raises(TypeError):
        square[(2, 0)] = 2
    assert square == {(2, 0): 1, (1, 1): 1}
    # lists and tuples of one weight share a key
    assert weights.tensor_weights((1, 0), [1, 0]) is square


def test_named_classes_are_built_once():
    assert classes.named_class.cache_info().maxsize == classes.NAMED_CACHE_SIZE
    ctx = Grassmannian(2, 7)
    assert classes.named_class(ctx, "tangent") is classes.named_class(ctx, "tangent")


def test_plethysm_identity_is_compared_once():
    assert checks._plethysm_character_ok.cache_info().maxsize == checks.PLETHYSM_CACHE_SIZE == 8
    checks._plethysm_character_ok.cache_clear()
    run_checks(5, 9, ["plethysm-eq4"])
    info = checks._plethysm_character_ok.cache_info()
    assert (info.misses, info.hits) == (3, 12)


def test_repeated_reports_reach_a_plateau():
    # the caches fill on the first pass; later passes must not grow. One
    # retained d = 3..6 report is about 45 KB, so the margin catches it
    readings = []
    tracemalloc.start()
    try:
        for _ in range(4):
            run_checks(3, 6)
            gc.collect()
            readings.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert readings[3] - readings[1] < 16 * 1024, readings
