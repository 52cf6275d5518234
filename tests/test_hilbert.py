import random
from math import comb

import pytest

from cmreg.errors import DimensionError, UsageError
from cmreg.fields import GF
from cmreg.groebner import Ideal
from cmreg.hilbert import (
    _monomial_numerator,
    finite_length_witness,
    hilbert_function,
    hilbert_numerator,
    quotient_degree,
    quotient_dimension,
    top_degree_finite,
)
from cmreg.polynomials import PolyRing

from oracle import degree_monomials, divides, hilbert_by_rank, poly_to_dense

P = 7


def ring(names=("x", "y", "z")):
    return PolyRing(names, field=GF(P))


def test_polynomial_ring_and_unit_ideal():
    R = ring()
    free = Ideal(R, ())
    assert hilbert_numerator(free) == (1,)
    h = hilbert_function(free, 5)
    assert h.values == tuple(comb(d + 2, 2) for d in range(6))
    assert quotient_dimension(free) == 3
    assert quotient_degree(free) == 1
    unit = Ideal(R, (R.one(),))
    assert hilbert_numerator(unit) == (0,)
    assert quotient_dimension(unit) == -1
    assert quotient_degree(unit) == 0
    assert hilbert_function(unit, 3).values == (0, 0, 0, 0)


def test_hypersurface_numerator():
    R = ring()
    x, y, z = R.variables()
    # a degree-d hypersurface has numerator 1 - T^d
    conic = Ideal(R, (x * z - y * y,))
    assert hilbert_numerator(conic) == (1, 0, -1)
    assert quotient_dimension(conic) == 2
    assert quotient_degree(conic) == 2
    assert hilbert_function(conic, 4).values == (1, 3, 5, 7, 9)


def test_hilbert_against_rank_oracle_random():
    rng = random.Random(31)
    R = ring()
    for _ in range(20):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            d = rng.randrange(1, 4)
            terms = {
                m: rng.randrange(P)
                for m in degree_monomials(3, d)
                if rng.random() < 0.6
            }
            if terms:
                gens.append(R.poly(terms))
        if not gens:
            continue
        I = Ideal(R, gens)
        h = hilbert_function(I, 6)
        dense = [poly_to_dense(g) for g in I.gens]
        for d in range(7):
            assert h.value(d) == hilbert_by_rank(P, 3, dense, d), (
                f"degree {d} of {I}"
            )


def test_dimension_degree_fixtures():
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(P))
    x0, x1, x2, x3 = R.variables()
    tc = Ideal(R, (x0 * x2 - x1 * x1, x0 * x3 - x1 * x2, x1 * x3 - x2 * x2))
    assert quotient_dimension(tc) == 2  # a projective curve
    assert quotient_degree(tc) == 3
    point = Ideal(R, (x1, x2, x3))
    assert quotient_dimension(point) == 1
    assert quotient_degree(point) == 1
    two_planes = Ideal(R, (x0 * x2, x0 * x3, x1 * x2, x1 * x3))
    assert quotient_dimension(two_planes) == 2
    assert quotient_degree(two_planes) == 2


def test_finite_length_witness_and_top_degree():
    R = ring()
    x, y, z = R.variables()
    assert finite_length_witness(Ideal(R, (x * x, y * y, z * z))) is None
    assert finite_length_witness(Ideal(R, (x * x, y * y))) == "z"
    assert top_degree_finite(Ideal(R, (x * x, y * y, z * z))) == 3
    assert top_degree_finite(Ideal(R, (x, y, z))) == 0
    assert top_degree_finite(Ideal(R, (R.one(),))) == -1
    with pytest.raises(DimensionError):
        top_degree_finite(Ideal(R, (x * x, y * y)))


def test_complete_intersection_socle_degree_formula():
    # for (x^a, y^b, z^c) the top nonzero degree is a + b + c - 3
    R = ring()
    x, y, z = R.variables()
    for a, b, c in [(1, 1, 1), (2, 2, 2), (2, 3, 4), (3, 3, 1)]:
        I = Ideal(R, (x**a, y**b, z**c))
        assert top_degree_finite(I) == a + b + c - 3


def test_hilbert_function_value_range_checks():
    R = ring()
    h = hilbert_function(Ideal(R, ()), 3)
    with pytest.raises(UsageError):
        h.value(4)
    with pytest.raises(UsageError):
        h.value(-1)
    with pytest.raises(UsageError):
        hilbert_function(Ideal(R, ()), -2)


def test_numerator_value_at_one_vs_alternating_sum():
    # for a finite-length quotient the numerator evaluated at T=1 vanishes
    # and h sums to the degree... the total length equals sum of h
    R = ring()
    x, y, z = R.variables()
    I = Ideal(R, (x * x, x * y, y * y * y, z * z))
    top = top_degree_finite(I)
    h = hilbert_function(I, top + 2)
    assert h.values[top] > 0
    assert h.values[top + 1] == 0 and h.values[top + 2] == 0
    length = sum(h.values)
    dense = [poly_to_dense(g) for g in I.gens]
    oracle_length = sum(hilbert_by_rank(P, 3, dense, d) for d in range(top + 1))
    assert length == oracle_length


def _numerator_cases():
    """Exponent-tuple generator lists in 1-5 variables: fixed shapes for
    each closed form of the numerator, then frozen-seed random ideals."""
    cases = [
        [], [(0, 0, 0)], [(3,)], [(2, 0, 0, 0), (0, 0, 1, 0)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 0, 0, 0, 0), (0, 2, 1, 0, 0)],
        [(0, 1, 0, 0), (0, 0, 0, 1), (2, 0, 1, 0), (1, 0, 2, 0)],
        [(3, 0), (2, 1), (0, 4)], [(0, 3, 0), (1, 2, 0), (3, 0, 0), (2, 1, 0)],
        [(1, 1, 0, 0, 0), (1, 1, 0, 0, 0), (2, 1, 0, 0, 0), (0, 0, 1, 1, 0)],
        [(2, 0, 0), (0, 2, 0), (0, 0, 2)], [(1, 1, 0), (0, 1, 1), (1, 0, 1)],
        [(0, 0), (1, 1)],
    ]
    rng = random.Random(20250)
    for _ in range(60):
        n = rng.randrange(1, 6)
        top = 3 if n <= 3 else 2
        gens = [tuple(rng.randrange(top + 1) for _ in range(n))
                for _ in range(rng.randrange(1, 6))]
        gens = [g for g in gens if any(g)]
        if rng.random() < 0.3:
            i = rng.randrange(n)
            gens.append(tuple(int(j == i) for j in range(n)))
        if gens and rng.random() < 0.3:
            g = rng.choice(gens)
            gens += [g, tuple(e + 1 for e in g)]  # non-minimal duplicates
        cases.append(gens or [(0,) * n])
    return cases


@pytest.mark.parametrize("gens", _numerator_cases())
def test_numerator_counts_standard_monomials(gens):
    # N / (1-T)^n has, in degree d, as many coefficients as there are
    # monomials of degree d divisible by no generator.  deg N is at most the
    # degree of the lcm of the generators (the Taylor resolution), so
    # comparing through that degree, or through the top generator degree
    # plus n when that is larger, determines N
    n = len(gens[0]) if gens else 3
    N = _monomial_numerator(gens)
    lcm_degree = sum(max(g[i] for g in gens) for i in range(n)) if gens else 0
    assert len(N) - 1 <= lcm_degree
    top = max((sum(g) for g in gens), default=0)
    for d in range(max(top + n, lcm_degree) + 1):
        series = sum(c * comb(d - j + n - 1, n - 1)
                     for j, c in enumerate(N[:d + 1]))
        standard = sum(1 for m in degree_monomials(n, d)
                       if not any(divides(g, m) for g in gens))
        assert series == standard, (gens, N, d)
