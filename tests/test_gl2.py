from collections import Counter
from math import comb

import pytest
from hypothesis import given, strategies as st

from bbwkoszul.oracles import (
    NotDecomposableError,
    character_of_combination,
    character_product,
    decompose_gl2_character,
    elementary_character,
    gl2_character,
    gl2_tensor,
    homogeneous_character,
    sym_power_gl2,
    wedge_power_gl2,
)


def test_standard_character():
    assert gl2_character((1, 0)) == {(1, 0): 1, (0, 1): 1}


def test_determinant_character():
    assert gl2_character((1, 1)) == {(1, 1): 1}


def test_cubic_character():
    assert gl2_character((3, 0)) == {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}


@given(st.integers(0, 9), st.integers(-5, 5))
def test_character_size(diff, base):
    w = (base + diff, base)
    assert sum(gl2_character(w).values()) == diff + 1


def test_decompose_single_irreducible():
    assert decompose_gl2_character({(1, 0): 1, (0, 1): 1}) == Counter({(1, 0): 1})


def test_decompose_square_of_standard():
    square = character_product(gl2_character((1, 0)), gl2_character((1, 0)))
    assert decompose_gl2_character(square) == Counter({(2, 0): 1, (1, 1): 1})


def test_decompose_wedge_square_character():
    assert decompose_gl2_character(dict(elementary_character((3, 0), 2))) == Counter(
        {(5, 1): 1, (3, 3): 1}
    )


def test_decompose_rejects_non_dominant_lead():
    with pytest.raises(NotDecomposableError):
        decompose_gl2_character({(0, 1): 1})


def test_decompose_rejects_partial_character():
    # x alone is not a sum of irreducible characters
    with pytest.raises(NotDecomposableError):
        decompose_gl2_character({(1, 0): 1})


@given(st.dictionaries(
    st.tuples(st.integers(-3, 6), st.integers(-6, 3)).filter(lambda w: w[0] >= w[1]),
    st.integers(1, 3),
    max_size=4,
))
def test_decompose_recompose_roundtrip(parts):
    char: Counter = Counter()
    for w, m in parts.items():
        for mono, c in gl2_character(w).items():
            char[mono] += m * c
    assert decompose_gl2_character(dict(char)) == Counter(parts)


class TestTensor:
    def test_cubic_squared(self):
        assert gl2_tensor((3, 0), (3, 0)) == Counter(
            {(6, 0): 1, (5, 1): 1, (4, 2): 1, (3, 3): 1}
        )

    def test_cubic_times_dual(self):
        assert gl2_tensor((3, 0), (0, -3)) == Counter(
            {(3, -3): 1, (2, -2): 1, (1, -1): 1, (0, 0): 1}
        )

    @given(st.integers(0, 6), st.integers(-4, 4))
    def test_trivial_factor(self, diff, base):
        w = (base + diff, base)
        assert gl2_tensor(w, (0, 0)) == Counter({w: 1})

    def test_character_identity_exhaustive(self):
        for da in range(5):
            for db in range(5):
                a, b = (da, 0), (db - 2, -2)
                product = gl2_tensor(a, b)
                assert dict(character_of_combination(product)) == character_product(
                    gl2_character(a), gl2_character(b)
                )
                total = sum(w[0] - w[1] + 1 for w in product.elements())
                assert total == (da + 1) * (db + 1)


class TestWedgeAndSym:
    def test_wedge_identities(self):
        assert wedge_power_gl2((3, 0), 2) == Counter({(5, 1): 1, (3, 3): 1})
        assert wedge_power_gl2((3, 0), 3) == Counter({(6, 3): 1})
        assert wedge_power_gl2((3, 0), 4) == Counter({(6, 6): 1})

    def test_wedge_one_and_zero(self):
        assert wedge_power_gl2((3, 0), 1) == Counter({(3, 0): 1})
        assert wedge_power_gl2((3, 0), 0) == Counter({(0, 0): 1})

    def test_wedge_above_rank_is_zero(self):
        assert wedge_power_gl2((3, 0), 5) == Counter()

    def test_wedge_dimensions(self):
        for k in range(6):
            parts = wedge_power_gl2((3, 0), k)
            dims = sum(w[0] - w[1] + 1 for w in parts.elements())
            assert dims == comb(4, k)

    def test_wedge_total_dimension(self):
        for diff in range(7):
            w = (diff, 0)
            total = sum(
                wd[0] - wd[1] + 1
                for k in range(diff + 2)
                for wd in wedge_power_gl2(w, k).elements()
            )
            assert total == 2 ** (diff + 1)

    def test_sym_powers_of_standard(self):
        assert sym_power_gl2((1, 0), 2) == Counter({(2, 0): 1})
        assert sym_power_gl2((1, 0), 3) == Counter({(3, 0): 1})

    def test_character_oracle_agreement(self):
        for diff in range(5):
            w = (diff, -1)
            for k in range(diff + 3):
                assert dict(character_of_combination(wedge_power_gl2(w, k))) == dict(
                    elementary_character(w, k)
                )
            for k in range(4):
                assert dict(character_of_combination(sym_power_gl2(w, k))) == dict(
                    homogeneous_character(w, k)
                )
