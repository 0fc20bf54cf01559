"""Every memo in the package is bounded.

An ``lru_cache`` with ``maxsize=None`` grows for the life of the process,
so a long-lived caller that runs many reports would grow without limit.
"""

import importlib
import inspect
import pkgutil

import pytest

import bbwkoszul
from bbwkoszul import weights


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
