"""Independent cross-check implementations and property suites.

Nothing here is used by the computation paths. Each function re-derives a
quantity along a second route (monomial expansions, explicit tableau
counts, randomized duality sweeps) so the test suite and the `oracles`
check can compare the two routes. Keeping both routes alive is the point;
do not "simplify" one into the other.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from .bbw import Bundle, Grassmannian
from .weights import (
    Weight,
    as_partition,
    count_ssyt,
    partitions_of,
    ssyt_contents,
    weyl_dimension,
    littlewood_richardson,
)


@lru_cache(maxsize=None)
def _schur_monomials(shape: Weight, nvars: int) -> dict[tuple[int, ...], int]:
    """Monomial expansion of a Schur polynomial: exponent vector -> coefficient."""
    out: Counter[tuple[int, ...]] = Counter()
    for content in ssyt_contents(shape, nvars):
        out[content] += 1
    return dict(out)


def _strip_shrinks(shape: Weight, size: int) -> list[Weight]:
    """Partitions eta inside ``shape`` with shape/eta a horizontal strip of ``size``."""
    n = len(shape)
    out: list[Weight] = []
    acc: list[int] = []

    def rec(i: int, remaining: int) -> None:
        if i == n:
            if remaining == 0:
                eta = tuple(acc)
                while eta and eta[-1] == 0:
                    eta = eta[:-1]
                out.append(eta)
            return
        lo = shape[i + 1] if i + 1 < n else 0
        for eta_i in range(shape[i], max(lo, shape[i] - remaining) - 1, -1):
            acc.append(eta_i)
            rec(i + 1, remaining - (shape[i] - eta_i))
            acc.pop()

    rec(0, size)
    return out


@lru_cache(maxsize=None)
def kostka_number(shape: Weight, content: Weight) -> int:
    """Count semistandard tableaux of ``shape`` with exactly ``content``.

    Peels the cells holding the largest value (a horizontal strip along
    the boundary) and recurses; no Littlewood-Richardson logic involved.
    """
    shape = as_partition(shape)
    content = tuple(content)
    if sum(shape) != sum(content):
        return 0
    if not shape:
        return 1
    if not content:
        return 0
    return sum(
        kostka_number(eta, content[:-1]) for eta in _strip_shrinks(shape, content[-1])
    )


def schur_product_decomposition(a, b) -> Counter[Weight]:
    """Brute-force Littlewood-Richardson: multiply monomial expansions, peel greedily.

    The product's coefficients are only needed on dominant exponents; the
    peel subtracts Kostka rows from the lexicographically largest surviving
    partition downwards.
    """
    pa, pb = as_partition(a), as_partition(b)
    if not pa:
        return Counter({pb: 1})
    if not pb:
        return Counter({pa: 1})
    nvars = len(pa) + len(pb)
    ma = _schur_monomials(pa, nvars)
    mb = _schur_monomials(pb, nvars)
    small, big = (ma, mb) if len(ma) <= len(mb) else (mb, ma)
    total = sum(pa) + sum(pb)
    coeffs: dict[Weight, int] = {}
    for cpart in partitions_of(total, max_parts=nvars):
        cpad = cpart + (0,) * (nvars - len(cpart))
        acc = 0
        for u, cu in small.items():
            leftover = tuple(x - y for x, y in zip(cpad, u))
            if min(leftover) < 0:
                continue
            acc += cu * big.get(leftover, 0)
        if acc:
            coeffs[cpart] = acc
    out: Counter[Weight] = Counter()
    while coeffs:
        nu = max(coeffs)
        mult = coeffs[nu]
        if mult < 0:
            raise ArithmeticError(f"greedy peel failed at {nu}")
        out[nu] = mult
        for mu in partitions_of(sum(nu), max_parts=nvars):
            k = kostka_number(nu, mu)
            if not k:
                continue
            new = coeffs.get(mu, 0) - mult * k
            if new:
                coeffs[mu] = new
            else:
                coeffs.pop(mu, None)
    return out


def monomials_of_gl2(weight) -> list[tuple[int, int]]:
    a, b = tuple(weight)
    return [(a - j, b + j) for j in range(a - b + 1)]


def elementary_character(weight, k: int) -> Counter[tuple[int, int]]:
    """Character of the k-th exterior power, straight from monomial k-subsets."""
    out: Counter[tuple[int, int]] = Counter()
    for subset in combinations(monomials_of_gl2(weight), k):
        out[(sum(m[0] for m in subset), sum(m[1] for m in subset))] += 1
    return out


def homogeneous_character(weight, k: int) -> Counter[tuple[int, int]]:
    """Character of the k-th symmetric power, from monomial k-multisets."""
    out: Counter[tuple[int, int]] = Counter()
    for subset in combinations_with_replacement(monomials_of_gl2(weight), k):
        out[(sum(m[0] for m in subset), sum(m[1] for m in subset))] += 1
    return out


def character_of_combination(parts: Counter[Weight]) -> Counter[tuple[int, int]]:
    out: Counter[tuple[int, int]] = Counter()
    for w, m in parts.items():
        for mono in monomials_of_gl2(w):
            out[mono] += m
    return out


# ---------------------------------------------------------------------------
# property suites


def ssyt_weyl_suite(max_size: int, max_n: int) -> dict:
    """Tableau counting against the dimension product formula, exhaustively."""
    cases = 0
    failures = []
    for size in range(max_size + 1):
        for shape in partitions_of(size):
            for n in range(1, max_n + 1):
                counted = count_ssyt(shape, n)
                if len(shape) > n:
                    expected = 0
                else:
                    expected = weyl_dimension(shape + (0,) * (n - len(shape)), n)
                cases += 1
                if counted != expected:
                    failures.append({"shape": list(shape), "n": n})
    return {"cases": cases, "failures": failures}


def lr_suite(max_size: int) -> dict:
    """Tableau-rule products against brute-force polynomial products."""
    shapes = [p for size in range(max_size + 1) for p in partitions_of(size)]
    cases = 0
    failures = []
    for i, a in enumerate(shapes):
        for b in shapes[i:]:
            tableau = littlewood_richardson(a, b)
            brute = schur_product_decomposition(a, b)
            cases += 1
            if tableau != brute or tableau != littlewood_richardson(b, a):
                failures.append({"a": list(a), "b": list(b)})
    return {"cases": cases, "failures": failures}


def gl2_suite(max_diff: int) -> dict:
    """Clebsch-Gordan and plethysm identities against raw character arithmetic."""
    from .gl2 import character_product, gl2_character, gl2_tensor, sym_power_gl2, wedge_power_gl2

    cases = 0
    failures = []
    shifts = (-3, 0, 3)
    for da in range(max_diff + 1):
        for db in range(max_diff + 1):
            for ta in shifts:
                for tb in shifts:
                    a, b = (da + ta, ta), (db + tb, tb)
                    product = gl2_tensor(a, b)
                    cases += 1
                    lhs = character_product(gl2_character(a), gl2_character(b))
                    rhs = dict(character_of_combination(product))
                    dims = sum(w[0] - w[1] + 1 for w in product.elements())
                    if lhs != rhs or dims != (da + 1) * (db + 1):
                        failures.append({"a": list(a), "b": list(b)})
    for d in range(max_diff + 1):
        for t in (-2, 0, 2):
            w = (d + t, t)
            wedge_dims = 0
            for k in range(d + 2):
                parts = wedge_power_gl2(w, k)
                cases += 1
                if dict(character_of_combination(parts)) != dict(elementary_character(w, k)):
                    failures.append({"w": list(w), "wedge": k})
                wedge_dims += sum(x[0] - x[1] + 1 for x in parts.elements())
            cases += 1
            if wedge_dims != 2 ** (d + 1):
                failures.append({"w": list(w), "wedge_total": wedge_dims})
            for k in range(4):
                parts = sym_power_gl2(w, k)
                cases += 1
                if dict(character_of_combination(parts)) != dict(homogeneous_character(w, k)):
                    failures.append({"w": list(w), "sym": k})
    return {"cases": cases, "failures": failures}


def random_bundle(ctx: Grassmannian, rng: random.Random, bound: int = 9) -> Bundle:
    lam = tuple(sorted((rng.randint(-bound, bound) for _ in range(ctx.quotient_rank)), reverse=True))
    mu = tuple(sorted((rng.randint(-bound, bound) for _ in range(ctx.k)), reverse=True))
    return Bundle(lam, mu)


def serre_suite(per_context: int) -> dict:
    """Serre-duality dimension symmetry over randomized bundles."""
    from .classes import serre_check

    contexts = [Grassmannian(2, 7), Grassmannian(2, 8), Grassmannian(1, 6)]
    rng = random.Random(214341)
    cases = 0
    failures = []
    for ctx in contexts:
        for _ in range(per_context):
            b = random_bundle(ctx, rng)
            cases += 1
            if not serre_check(ctx, b):
                failures.append({"ctx": [ctx.k, ctx.n], "bundle": [list(b.lam_q), list(b.mu_s)]})
    return {"cases": cases, "failures": failures}


def euler_suite(d_values) -> dict:
    """Euler consistency of the standard Koszul pages over a range of d."""
    from .classes import named_class
    from .koszul import euler_consistency

    cases = 0
    failures = []
    for d in d_values:
        plane_ctx = Grassmannian(2, d + 2)
        line_ctx = Grassmannian.projective_space(d + 2)
        coefficients = [
            (plane_ctx, "tangent"),
            (plane_ctx, "sym_cube_dual"),
            (line_ctx, "tangent"),
            (line_ctx, "O(3)"),
        ]
        for ctx, name in coefficients:
            cases += 1
            if not euler_consistency(ctx, named_class(ctx, name)):
                failures.append({"d": d, "ctx": [ctx.k, ctx.n], "coefficient": name})
    return {"cases": cases, "failures": failures}
