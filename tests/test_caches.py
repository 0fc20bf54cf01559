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
from bbwkoszul import checks, classes, oracles, weights
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
    # every memo is listed, so adding or deleting one updates this test
    assert set(caches) == {
        "bbwkoszul.weights._weyl_product",
        "bbwkoszul.weights._kostka",
        "bbwkoszul.weights._wedge_product",
        "bbwkoszul.weights._tensor_product",
        "bbwkoszul.classes.named_class",
        "bbwkoszul.checks._plethysm_character_ok",
        "bbwkoszul.koszul.koszul_analysis",
        "bbwkoszul.oracles._schur_monomials",
        "bbwkoszul.oracles.kostka_number",
        "bbwkoszul.oracles._gl2_character",
        "bbwkoszul.oracles._partition_list",
    }
    unbounded = [name for name, cache in caches.items() if cache.cache_info().maxsize is None]
    assert not unbounded
    assert caches["bbwkoszul.oracles._gl2_character"].cache_info().maxsize == 256
    assert caches["bbwkoszul.oracles._partition_list"].cache_info().maxsize == 128
    assert oracles.GL2_CHARACTER_CACHE_SIZE == 256
    assert oracles.PARTITION_LIST_CACHE_SIZE == 128


def test_lr_suite_schur_expansions_fit_their_cache():
    # every sub-expansion the branching rule reads is built once: none is
    # evicted before its last reader
    oracles._schur_monomials.cache_clear()
    oracles.lr_suite(6)
    info = oracles._schur_monomials.cache_info()
    assert info.misses == info.currsize <= oracles.SCHUR_MONOMIALS_CACHE_SIZE


def test_wedge_weights_value_is_read_only():
    assert weights._wedge_product.cache_info().maxsize == weights.WEDGE_CACHE_SIZE
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


def test_gl2_character_value_is_read_only():
    character = oracles.gl2_character([3, 1])
    with pytest.raises(TypeError):
        character[(0, 4)] = 1
    assert character == {(3, 1): 1, (2, 2): 1, (1, 3): 1}
    # lists and tuples of one weight share a key
    assert oracles.gl2_character((3, 1)) is character
    with pytest.raises(ValueError):
        oracles.gl2_character((1, 3))


def test_partition_lists_are_built_once():
    listed = oracles._partition_list(5, 3)
    assert listed == tuple(weights.partitions_of(5, max_parts=3))
    assert oracles._partition_list(5, 3) is listed


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


def _pass_readings(run):
    """Traced memory after each of four passes of ``run``."""
    readings = []
    tracemalloc.start()
    try:
        for _ in range(4):
            run()
            gc.collect()
            readings.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    return readings


def test_repeated_reports_reach_a_plateau():
    # the caches fill on the first pass; later passes must not grow. One
    # retained d = 3..6 report is about 45 KB, so the margin catches it
    readings = _pass_readings(lambda: run_checks(3, 6))
    assert readings[3] - readings[1] < 16 * 1024, readings


def test_repeated_sweeps_reach_a_plateau():
    # the eight checks of the paper sweep: d = 5..30 has 182 (context,
    # name) keys, more than named_class holds, so every pass rebuilds
    # named classes, and each keeps its cohomology profile
    sweep = [c.check_id for c in checks.CATALOG if not c.d_independent]
    sweep.remove("remark-d34")
    readings = _pass_readings(lambda: run_checks(5, 30, sweep))
    assert readings[3] - readings[1] < 16 * 1024, readings
