import functools
import itertools
import math
import operator
import random

import pytest

from cmreg.errors import (DegreeCeilingError, ExponentOverflowError,
                          SelfCheckError, UsageError)
from cmreg.fields import GF, FieldElement
from cmreg import geometry, groebner, hilbert, reports
from cmreg.geometry import (
    ProjectionSpec,
    check_finite,
    fiber_ideal,
    fiber_regularity,
    max_fiber_regularity,
)
from cmreg.groebner import Ideal, intersect, saturate, saturate_variable
from cmreg.hilbert import finite_length_witness, hilbert_function, top_degree_finite
from cmreg.orders import (GREVLEX, LEX, EliminationOrder, MonomialOrder,
                          word_lcm)
from cmreg.polynomials import PolyRing, lift_polynomial
from cmreg.sessions import parse_polynomial
from cmreg.resolution import SchreyerOrder, _syzygy_step

from oracle import (degree_monomials, divides, gf_rank, hilbert_by_rank,
                    poly_to_dense)

P = 7


def ring(names="xyz", p=P):
    return PolyRing(tuple(names), field=GF(p))


def gens_of(I):
    return {str(g) for g in I.groebner_basis()}


def membership_by_rank(I, f):
    """Independent ideal membership test: does adding f's coefficient row
    to the degree-d piece of I change the rank?"""
    d = f.homogeneous_degree()
    p = I.ring.field.p
    nv = I.ring.nvars
    basis = degree_monomials(nv, d)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in I.gens:
        gd = g.homogeneous_degree()
        if gd > d:
            continue
        for mult in degree_monomials(nv, d - gd):
            row = [0] * len(basis)
            for exps, c in poly_to_dense(g):
                row[index[tuple(a + b for a, b in zip(exps, mult))]] = c
            rows.append(row)
    base = gf_rank(p, rows)
    frow = [0] * len(basis)
    for exps, c in poly_to_dense(f):
        frow[index[exps]] = c
    return gf_rank(p, rows + [frow]) == base


def test_twisted_cubic_quadrics_are_a_reduced_basis():
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(P))
    x0, x1, x2, x3 = R.variables()
    I = Ideal(R, (x0 * x2 - x1 * x1, x0 * x3 - x1 * x2, x1 * x3 - x2 * x2))
    gb = I.groebner_basis()
    assert len(gb) == 3
    leads = set(gb.lead_monomials)
    assert leads == {(0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0)}
    for g in gb:
        assert g.lead_coefficient() == 1


def test_monomial_ideal_fast_path_minimalizes():
    R = ring()
    x, y, z = R.variables()
    I = Ideal(R, (x * x, x * x * y, x * y * z, y * y, x * x * z * z))
    gb = I.groebner_basis()
    assert {str(g) for g in gb} == {"x^2", "y^2", "x*y*z"}


def test_engine_reduces_duplicate_inputs_away():
    # Ideal drops duplicate generators before the engine sees them; the
    # engine needs no dedupe of its own, as a scaled copy reduces to zero
    R = ring()
    x, y, z = R.variables()
    f, g = x * x - y * z, x * y + z * z
    basis = groebner._engine([f, g], R, 64).elements
    assert len(basis) == 3  # the S-pair adds y^2*z + x*z^2
    assert groebner._engine([f, f.scale(3), g], R, 64).elements == basis
    assert groebner._engine([g, f.scale(3), R.zero(), f, g], R,
                            64).elements == basis
    # the all-monomial shortcut makes its input monic
    monomials = groebner._engine([x * y, y * z], R, 64).elements
    assert groebner._engine([(x * y).scale(3), y * z, x * y], R,
                            64).elements == monomials
    assert [str(m) for m in monomials] == ["x*y", "y*z"]


def test_normal_form_is_canonical_and_linear():
    R = ring()
    x, y, z = R.variables()
    I = Ideal(R, (x * x - y * z, y * y - x * z))
    gb = I.groebner_basis()
    rng = random.Random(3)
    for d in (2, 3, 4):
        mons = degree_monomials(3, d)
        for _ in range(10):
            f = R.poly({m: rng.randrange(P) for m in mons})
            g = R.poly({m: rng.randrange(P) for m in mons})
            nf = gb.normal_form(f)
            ng = gb.normal_form(g)
            assert gb.normal_form(f + g) == nf + ng
            # idempotence: a normal form reduces to itself
            assert gb.normal_form(nf) == nf
            # no lead monomial of the basis divides a surviving term
            for m, _ in nf.sorted_terms():
                assert not any(divides(lm, m) for lm in gb.lead_monomials)


def test_membership_matches_rank_oracle():
    R = ring()
    x, y, z = R.variables()
    I = Ideal(R, (x * x - y * z, x * y + z * z))
    rng = random.Random(11)
    f1, f2 = I.gens
    for d in (2, 3, 4):
        mons = degree_monomials(3, d)
        for _ in range(10):
            f = R.poly({m: rng.randrange(P) for m in mons})
            if f.is_zero():
                continue
            expected = membership_by_rank(I, f)
            assert I.contains(f) == expected
    # constructed members with random homogeneous cofactors
    for da, db in ((1, 1), (2, 2), (1, 2)):
        for _ in range(5):
            a = R.poly({m: rng.randrange(P) for m in degree_monomials(3, da)})
            b = R.poly({m: rng.randrange(P) for m in degree_monomials(3, db)})
            g = a * f1 if da == db else a * f1 * R.variable(0)
            g = (a * f1 + b * f2) if da == db else g + b * f2
            if g.is_zero() or g.homogeneous_degree() is None:
                continue
            assert membership_by_rank(I, g)
            assert I.contains(g)


def test_reduced_basis_is_invariant_under_presentation():
    R = ring()
    x, y, z = R.variables()
    gens = [x * x - y * z, x * y + z * z, y * y * y - x * z * z]
    baseline = gens_of(Ideal(R, gens))
    rng = random.Random(5)
    for _ in range(20):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        rescaled = [g.scale(rng.randrange(1, P)) for g in shuffled]
        # throw in a redundant combination
        rescaled.append(gens[0] * x + gens[1] * y)
        assert gens_of(Ideal(R, rescaled)) == baseline


def test_ideal_constructor_validation():
    R = ring()
    x, y, _ = R.variables()
    with pytest.raises(UsageError):
        Ideal(R, (x + x * y,))  # inhomogeneous
    with pytest.raises(UsageError):
        Ideal(R, ("x",))
    other = ring("ab" + "c")
    with pytest.raises(UsageError):
        Ideal(R, (other.variable(0),))
    # zero gens dropped, scalar duplicates merged
    I = Ideal(R, (x, R.zero(), x.scale(3), y))
    assert len(I.gens) == 2
    assert Ideal(R, ()).is_zero_ideal()


def test_sum_product_power():
    R = ring()
    x, y, z = R.variables()
    A = Ideal(R, (x,))
    B = Ideal(R, (y, z))
    assert gens_of(A.plus(B)) == {"x", "y", "z"}
    assert gens_of(A.times(B)) == {"x*y", "x*z"}
    m = Ideal(R, (x, y, z))
    sq = m.power(2)
    assert len(sq.gens) == 6  # all monomials of degree 2
    assert m.power(1).gens == m.gens
    with pytest.raises(UsageError):
        m.power(0)
    assert m.single_degree() == 1
    assert A.plus(Ideal(R, (y * y,))).single_degree() is None


def test_power_products_match_the_combinations_definition():
    # each I^t is built from the products of the largest power asked for so
    # far; its generators, their order and their term order are those of
    # the left-folded products over combinations_with_replacement, whatever
    # order the powers are asked for in
    rng = random.Random(17)
    R = ring(p=32003)
    x, y, _ = R.variables()
    # the monomials make equal products (x^2 * y^2 = (x*y)^2), which the
    # Ideal drops as duplicates
    gens = [_random_form(R, 2, rng, 0.6) for _ in range(2)]
    I = Ideal(R, gens + [x * x, x * y, y * y])
    for t in (2, 3, 4, 1, 3, 2, 4, 4):
        want = Ideal(R, [functools.reduce(operator.mul, combo) for combo in
                         itertools.combinations_with_replacement(I.gens, t)])
        got = I.power(t)
        assert len(got.gens) < math.comb(len(I.gens) + t - 1, t) or t == 1
        assert [list(g._terms.items()) for g in got.gens] == \
            [list(g._terms.items()) for g in want.gens], t


def test_intersection_fixtures():
    R = ring()
    x, y, z = R.variables()
    assert gens_of(intersect(Ideal(R, (x,)), Ideal(R, (y,)))) == {"x*y"}
    got = intersect(Ideal(R, (x, y)), Ideal(R, (z,)))
    assert gens_of(got) == {"x*z", "y*z"}
    # intersecting with the zero ideal is zero
    assert intersect(Ideal(R, (x,)), Ideal(R, ())).is_zero_ideal()


def test_intersection_membership_property():
    R = ring()
    x, y, z = R.variables()
    rng = random.Random(17)
    A = Ideal(R, (x * x - y * z, z * z))
    B = Ideal(R, (x * y, y * y - x * z))
    C = intersect(A, B)
    for d in (3, 4, 5):
        mons = degree_monomials(3, d)
        for _ in range(10):
            f = R.poly({m: rng.randrange(P) for m in mons})
            if f.is_zero():
                continue
            assert C.contains(f) == (A.contains(f) and B.contains(f))


def test_saturation_fixtures():
    R = ring()
    x, y, z = R.variables()
    # x*(x,y,z) has an embedded component at the irrelevant ideal;
    # saturating strips it down to the line (x)
    I = Ideal(R, (x * x, x * y, x * z))
    assert gens_of(saturate(I)) == {"x"}
    assert gens_of(saturate_variable(I, 1)) == {"x"}
    # but an embedded prime at an honest point of the plane survives:
    # (x^2, xy) = (x) cap (x^2, y) and the point (0:0:1) stays embedded
    J = Ideal(R, (x * x, x * y))
    assert saturate(J).equals(J)
    # an irrelevant-primary ideal saturates to the unit ideal
    m2 = Ideal(R, (x, y, z)).power(2)
    assert gens_of(saturate(m2)) == {"1"}
    # a saturated ideal is a fixed point
    J = Ideal(R, (x * z - y * y,))
    assert saturate(J).equals(J)
    with pytest.raises(UsageError):
        saturate_variable(I, 3)


def test_a_finite_length_quotient_saturates_to_the_unit_ideal(monkeypatch):
    # S/I of finite length (m-primary I, or I = S) has I^sat = S, read off
    # I's numerator with no per-variable saturation
    def refused(I, i):
        raise AssertionError("saturate_variable called")

    monkeypatch.setattr(groebner, "saturate_variable", refused)
    R = ring()
    x, y, z = R.variables()
    for gens in [(x * x, y * y * y, z * z, x * y * z),
                 (x, y * y, y * z, z * z), (R.one(),)]:
        S = saturate(Ideal(R, gens))
        assert gens_of(S) == {"1"}
        assert S.groebner_basis().numerator == (0,)


def test_saturation_membership_certificate():
    # f is in sat(I) iff x_i^N f lands in I for every variable and some N
    R = ring()
    x, y, z = R.variables()
    I = Ideal(R, (x * x * z, x * y * y))
    S = saturate(I)
    for f in S.gens:
        for i in range(3):
            v = R.variable(i)
            g = f
            ok = False
            for _ in range(6):
                g = g * v
                if I.contains(g):
                    ok = True
                    break
            assert ok, f"{f} * {v}^N never entered the ideal"


def _saturate_by_intersection(I, i):
    """I : x_i^infinity as the stable (I cap (x_i^k)) / x_i^k."""
    R = I.ring
    current = I
    k = 0
    while True:
        k += 1
        inter = intersect(I, Ideal(R, (R.variable(i) ** k,)))
        quotients = []
        for g in inter.gens:
            terms = {}
            for exps, c in g.sorted_terms():
                exps = list(exps)
                exps[i] -= k
                terms[tuple(exps)] = FieldElement(R.field, c)
            quotients.append(R.poly(terms))
        nxt = Ideal(R, quotients)
        if nxt.equals(current):
            return current
        current = nxt


def _random_form(R, d, rng, density):
    field = R.field
    terms = {}
    for exps in degree_monomials(R.nvars, d):
        if rng.random() < density:
            terms[exps] = FieldElement(field, field.random(rng))
    return R.poly(terms)


@pytest.mark.parametrize("p,k,seed", [(2, 1, 31), (3, 1, 32), (32003, 1, 33),
                                      (5, 2, 34)])
def test_saturation_matches_the_intersection_route(p, k, seed):
    rng = random.Random(seed)
    field = GF(p, k)
    reused = 0
    for _ in range(24):
        n = rng.choice((2, 3, 4))
        R = PolyRing(tuple("xyzw"[:n]), field=field)
        m = Ideal(R, R.variables())
        gens = []
        while not gens:
            for _ in range(rng.randint(1, 3)):
                f = _random_form(R, rng.randint(1, 2), rng, 0.5)
                if not f.is_zero():
                    gens.append(f)
        I = Ideal(R, gens)
        t = rng.randint(0, 2)
        if t:
            I = I.times(m.power(t))
        if rng.random() < 0.5:
            extra = _random_form(R, 3, rng, 0.3)
            I = I.plus(Ideal(R, (extra,)))
        parts = [_saturate_by_intersection(I, i) for i in range(n)]
        for i, ref in enumerate(parts):
            got = saturate_variable(I, i)
            assert got.gens == ref.groebner_basis().elements
            assert Ideal(R, got.gens).groebner_basis().elements == got.gens
        ref = parts[0]
        for part in parts[1:]:
            ref = intersect(ref, part)
        got = saturate(I)
        assert got.gens == ref.groebner_basis().elements
        assert Ideal(R, got.gens).groebner_basis().elements == got.gens
        # the last variable divides no lead: I is returned as it is
        reused += got.groebner_basis() is I.groebner_basis()
    assert reused


def test_saturation_falls_back_to_intersection(monkeypatch):
    # the components of (xy, xz, yz) are the three coordinate points, and
    # every coordinate hyperplane passes through one, so no single variable
    # saturates the ideal and the per-variable saturations are intersected
    R = ring()
    x, y, z = R.variables()
    calls = []

    def counted(A, B):
        calls.append(1)
        return intersect(A, B)

    monkeypatch.setattr(groebner, "intersect", counted)
    J = Ideal(R, (x * y, x * z, y * z))
    I = J.times(Ideal(R, (x, y, z)))
    assert gens_of(saturate(I)) == {"x*y", "x*z", "y*z"}
    assert calls
    # x*(x, y, z) is certified by its last variable without any intersection
    calls.clear()
    assert gens_of(saturate(Ideal(R, (x * x, x * y, x * z)))) == {"x"}
    assert not calls


@pytest.mark.parametrize("p,k,seed", [(7, 1, 111), (32003, 1, 112),
                                      (5, 2, 113)])
def test_an_intersection_presents_its_kept_basis(p, k, seed):
    # under grevlex in declaration order the elimination order restricts to
    # the ring's order, so the t-free elements intersect keeps are the
    # reduced basis of A cap B, cached: the engine run on them returns them.
    # Under lex or a permuted grevlex nothing is cached.
    rng = random.Random(seed)
    field = GF(p, k)
    R = PolyRing(("x", "y", "z"), field=field)
    others = [PolyRing(R.names, field=field, order=order) for order in
              (MonomialOrder(LEX, 3), MonomialOrder(GREVLEX, 3, (2, 0, 1)))]
    for _ in range(6):
        A, B = (Ideal(R, [_random_form(R, rng.randint(1, 3), rng, 0.5)
                          for _ in range(rng.randint(1, 3))])
                for _ in range(2))
        if A.is_zero_ideal() or B.is_zero_ideal():
            continue
        J = intersect(A, B)
        assert J._gb is not None and J._gb.elements == J.gens
        assert tuple(groebner._engine(list(J.gens), R, 64)) == J.gens
        for S in others:
            lifted = [Ideal(S, [lift_polynomial(g, S) for g in I.gens])
                      for I in (A, B)]
            assert intersect(*lifted)._gb is None


def test_the_saturation_fallback_computes_no_basis_again(monkeypatch):
    # every engine call of the fallback on (xy, xz, yz)*(x, y, z) after the
    # per-variable saturations is an intersection's, and the result's
    # basis is the last intersection's, cached
    R = ring()
    x, y, z = R.variables()
    I = Ideal(R, (x * y, x * z, y * z)).times(Ideal(R, (x, y, z)))
    intersections = []

    def counted(A, B):
        intersections.append(intersect(A, B))
        return intersections[-1]

    monkeypatch.setattr(groebner, "intersect", counted)
    seen = _engine_ceilings(monkeypatch)
    S = saturate(I)
    S.groebner_basis()
    first = next(n for n, (r, _) in enumerate(seen)
                 if isinstance(r.order, EliminationOrder))
    assert len(seen) - first == len(intersections) == 2
    assert all(isinstance(r.order, EliminationOrder) for r, _ in seen[first:])
    assert S.gens == intersections[-1].gens
    assert gens_of(S) == {"x*y", "x*z", "y*z"}


def test_saturation_reuses_a_saturated_basis(monkeypatch):
    # x3, last in grevlex, divides no lead of the twisted cubic's basis, so
    # it is a nonzerodivisor and saturate returns I's own basis object,
    # whose numerator the certificate reads from the cache; calls counts the
    # top-level calls of the numerator recursion
    calls = []
    depth = 0
    numerator = hilbert._numerator

    def counted(gens):
        nonlocal depth
        if depth == 0:
            calls.append(1)
        depth += 1
        try:
            return numerator(gens)
        finally:
            depth -= 1

    monkeypatch.setattr(hilbert, "_numerator", counted)
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(P))
    x0, x1, x2, x3 = R.variables()
    I = Ideal(R, (x0 * x2 - x1 * x1, x0 * x3 - x1 * x2, x1 * x3 - x2 * x2))
    S = saturate(I)
    gb = I.groebner_basis()
    assert not any(m[3] for m in gb.lead_monomials)
    assert S.groebner_basis() is gb
    assert S.gens == gb.elements
    assert len(calls) == 1
    # x*(x, y, z): z divides the lead x*z, so the divided basis (x) is new
    # and has its own numerator
    R = ring()
    x, y, z = R.variables()
    del calls[:]
    I = Ideal(R, (x * x, x * y, x * z))
    S = saturate(I)
    assert S.groebner_basis() is not I.groebner_basis()
    assert gens_of(S) == {"x"}
    assert len(calls) == 2


def test_degree_ceiling_trips():
    R = ring("xy")
    x, y = R.variables()
    I = Ideal(R, (x * x * x - y * y * x, x * x * y + y * y * y),
              degree_ceiling=2)
    with pytest.raises(DegreeCeilingError):
        I.groebner_basis()


def test_a_fresh_ideal_checks_its_own_ceiling():
    # a basis cached on another ideal with the same generators does not
    # answer for an ideal with a lower ceiling
    R = ring("xy")
    x, y = R.variables()
    I = Ideal(R, (x * x * x - y * y * x, x * x * y + y * y * y))
    I.groebner_basis()
    with pytest.raises(DegreeCeilingError,
                       match="S-pair of degree 4 exceeds the degree ceiling 2"):
        Ideal(R, I.gens, degree_ceiling=2).groebner_basis()


def test_intersection_ceiling_counts_ring_degree():
    # the ceiling counts degree in the ring's variables, not in the auxiliary
    # t of t*A + (1-t)*B: the S-pair of t*x and t*y - y has degree 2
    R = ring()
    x, y, z = R.variables()
    assert gens_of(intersect(Ideal(R, (x,), degree_ceiling=2),
                             Ideal(R, (y,)))) == {"x*y"}
    # (xy) cap (yz, xz) = (xyz) needs a pair of degree 3
    with pytest.raises(DegreeCeilingError, match="S-pair of degree 3"):
        intersect(Ideal(R, (x * y,), degree_ceiling=2),
                  Ideal(R, (y * z, x * z)))


def _hard_pair(R):
    """Two binary cubics whose basis takes S-pairs of degrees 4 and 5."""
    x, y = R.variables()[:2]
    return (x * x * x - y * y * x, x * x * y + y * y * y)


def _engine_ceilings(monkeypatch):
    """(ring, degree ceiling) of every later _engine call, in call order."""
    seen = []
    engine = groebner._engine

    def recorded(polys, ring, degree_ceiling, bound=()):
        seen.append((ring, degree_ceiling))
        return engine(polys, ring, degree_ceiling, bound)

    monkeypatch.setattr(groebner, "_engine", recorded)
    return seen


def test_sums_products_and_powers_take_the_first_operands_ceiling():
    R = ring("xy")
    x, y = R.variables()
    low = Ideal(R, _hard_pair(R), degree_ceiling=3)
    other = Ideal(R, (x * y * y,))
    for J, degree in ((low.plus(other), 4), (low.times(other), 7),
                      (low.power(2), 7)):
        assert J.degree_ceiling == 3
        with pytest.raises(DegreeCeilingError,
                           match=f"degree {degree} exceeds the degree "
                                 "ceiling 3"):
            J.groebner_basis()
    for J in (other.plus(low), other.times(low)):
        assert J.degree_ceiling == groebner.DEFAULT_DEGREE_CEILING
        J.groebner_basis()


def test_intersection_takes_the_first_operands_ceiling():
    R = ring()
    x, y, z = R.variables()
    A = Ideal(R, (x * y,), degree_ceiling=2)
    B = Ideal(R, (y * z, x * z))
    with pytest.raises(DegreeCeilingError, match="ceiling 2"):
        intersect(A, B)
    J = intersect(B, A)
    assert J.degree_ceiling == groebner.DEFAULT_DEGREE_CEILING
    assert gens_of(J) == {"x*y*z"}
    assert intersect(A, Ideal(R, ())).degree_ceiling == 2


def test_saturation_by_a_variable_keeps_the_ceiling(monkeypatch):
    # z is last in the ring's grevlex, so saturating by it divides I's own
    # basis; saturating by x computes a basis under a second order
    R = ring()
    seen = _engine_ceilings(monkeypatch)
    for i in (2, 0):
        with pytest.raises(DegreeCeilingError,
                           match="degree 6 exceeds the degree ceiling 5"):
            saturate_variable(Ideal(R, _hard_pair(R), degree_ceiling=5), i)
        seen.clear()
        J = saturate_variable(Ideal(R, _hard_pair(R), degree_ceiling=6), i)
        assert J.degree_ceiling == 6
        assert [c for _, c in seen] == [6] * len(seen) and seen
        assert any(r.order != R.order for r, _ in seen) == (i == 0)


def test_saturation_intersects_under_the_input_ceiling(monkeypatch):
    # no variable certifies the saturation of (xy, xz, yz)*(x, y, z), so the
    # per-variable saturations are intersected, whose basis needs a pair of
    # degree 3 in the auxiliary ring
    R = ring()
    x, y, z = R.variables()
    gens = Ideal(R, (x * y, x * z, y * z)).times(Ideal(R, (x, y, z))).gens
    seen = _engine_ceilings(monkeypatch)
    with pytest.raises(DegreeCeilingError, match="degree 3 exceeds the "
                                                 "degree ceiling 2"):
        saturate(Ideal(R, gens, degree_ceiling=2))
    assert isinstance(seen[-1][0].order, EliminationOrder)
    seen.clear()
    S = saturate(Ideal(R, gens, degree_ceiling=3))
    assert S.degree_ceiling == 3
    assert gens_of(S) == {"x*y", "x*z", "y*z"}
    assert any(isinstance(r.order, EliminationOrder) for r, _ in seen)
    assert [c for _, c in seen] == [3] * len(seen)


def test_fiber_ideals_take_the_ceiling_of_the_projected_ideal(monkeypatch):
    # under lex the fibers are saturated in a second ring, under grevlex
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(11),
                 order=MonomialOrder(LEX, 4))
    x0, x1, x2, x3 = R.variables()
    I_X = Ideal(R, (x1 * x1 - x0 * x2, x1 * x2 - x0 * x3, x2 * x2 - x1 * x3),
                degree_ceiling=9)
    spec = ProjectionSpec(I_X, (x0 + x1.scale(2) + x2.scale(3)
                                + x3.scale(4), x1 + x2.scale(5)
                                + x3.scale(9)))
    seen = _engine_ceilings(monkeypatch)
    rep = max_fiber_regularity(spec, K=1)
    assert any(r.order != R.order for r, _ in seen)
    assert [c for _, c in seen] == [9] * len(seen)
    for f in rep.fibers:
        assert f.ideal.degree_ceiling == 9
        assert fiber_ideal(spec, f.point).degree_ceiling == 9


@pytest.mark.parametrize("p,seed", [(2, 71), (32003, 72)])
def test_engine_installs_only_graded_elements(monkeypatch, p, seed):
    # every element the engine installs is homogeneous in the grading of
    # its ring's order, so a pair's degree is the degree of its S-polynomial
    installed = {"plain": 0, "permuted": 0, "elimination": 0}
    update = groebner._update

    def checked(order, G, pairs, heap, t):
        f = G.terms[t]
        assert len({order.degree(order.unpack(k)) for k in f}) == 1
        if isinstance(order, EliminationOrder):
            installed["elimination"] += 1
        elif order.precedence != tuple(range(order.nvars)):
            installed["permuted"] += 1
        else:
            installed["plain"] += 1
        return update(order, G, pairs, heap, t)

    monkeypatch.setattr(groebner, "_update", checked)
    rng = random.Random(seed)
    R = ring(p=p)
    for _ in range(6):
        A, B = (Ideal(R, [_random_form(R, rng.randint(1, 3), rng, 0.5)
                          for _ in range(rng.randint(1, 3))])
                for _ in range(2))
        A.groebner_basis()
        saturate_variable(A, 0)
        intersect(A, B)
    assert all(installed.values()), installed


def test_groebner_hilbert_agreement_random():
    """Dimension counts from the reduced basis (standard monomials) agree
    with brute-force rank over 20 random ideals."""
    rng = random.Random(23)
    R = ring()
    for _ in range(20):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            d = rng.randrange(1, 4)
            mons = degree_monomials(3, d)
            terms = {m: rng.randrange(P) for m in mons if rng.random() < 0.6}
            if terms:
                gens.append(R.poly(terms))
        if not gens:
            continue
        I = Ideal(R, gens)
        gb = I.groebner_basis()
        dense = [poly_to_dense(g) for g in I.gens]
        for d in range(1, 6):
            standard = sum(
                1
                for m in degree_monomials(3, d)
                if not any(divides(lm, m) for lm in gb.lead_monomials)
            )
            assert standard == hilbert_by_rank(P, 3, dense, d)


def _by_position(terms, R, split):
    """A term dict as {pos: Polynomial}, ``split(key) = (pos, exps)``."""
    rows = {}
    for key, c in terms.items():
        pos, m = split(key)
        rows.setdefault(pos, {})[m] = FieldElement(R.field, c)
    return {pos: R.poly(t) for pos, t in rows.items()}


def _random_terms(R, rng, positions, degrees, count, term):
    """A random term dict, ``term(pos, exps)`` giving each term's key."""
    terms = {}
    for _ in range(count):
        exps = rng.choice(degree_monomials(R.nvars, rng.choice(degrees)))
        c = R.field.random(rng)
        if c != R.field.zero:
            terms[term(rng.choice(positions), exps)] = c
    return terms


def _codec(R, order):
    """(split, term) for the term keys of a SchreyerOrder (the trivial one of
    rank 1 for ideals): split(key) = (pos, exps), term(pos, exps) = key."""
    def split(key):
        pos, k = order.split(key)
        return pos, R.order.unpack(k)
    return split, lambda pos, exps: order.term(pos, R.order.pack(exps))


def _check_division(R, start, basis, split):
    """Reduce ``start`` with quotient collection and check, with Polynomial
    arithmetic, that start = remainder + sum q * u * basis[i], that no
    remainder term is divisible by a lead at its own position, and that the
    remainder's keys come out strictly descending, so its first key is its
    lead.  Returns the number of quotient terms."""
    quotients = {}
    rem = groebner._reduce(start, basis, R.field, quotients=quotients)
    keys = list(rem)
    assert all(a > b for a, b in zip(keys, keys[1:]))
    leads = [split(lead[0]) for lead in basis.leads]
    for key in rem:
        pos, m = split(key)
        assert not any(lp == pos and divides(lm, m) for lp, lm in leads)
    total = _by_position(rem, R, split)
    for (i, u), q in quotients.items():
        mult = R.poly({R.order.unpack(u): FieldElement(R.field, q)})
        for pos, row in _by_position(basis.terms[i], R, split).items():
            total[pos] = total.get(pos, R.zero()) + mult * row
    total = {pos: row for pos, row in total.items() if not row.is_zero()}
    assert total == _by_position(start, R, split)
    return len(quotients)


@pytest.mark.parametrize("p,k,seed", [(2, 1, 61), (32003, 1, 62), (5, 2, 63)])
def test_reducer_quotients_reconstruct_the_input(p, k, seed):
    rng = random.Random(seed)
    field = GF(p, k)
    divided = [0, 0, 0]
    for _ in range(8):
        R = PolyRing(("x", "y", "z"), field=field)
        gens = [f for f in (_random_form(R, rng.randint(1, 3), rng, 0.5)
                            for _ in range(rng.randint(2, 3)))
                if not f.is_zero()]
        if not gens:
            continue
        order = SchreyerOrder.trivial(1)
        split, term = _codec(R, order)
        # ideal input at position 0, against the raw generators (which
        # _ideal_basis divides by their leads) and against the reduced basis
        for polys in (gens, Ideal(R, gens).groebner_basis().elements):
            basis = groebner._ideal_basis(R.order, polys)
            for _ in range(4):
                start = _random_terms(R, rng, [0], (2, 3, 4), 12, term)
                divided[0] += _check_division(R, start, basis, split)
        # the first two syzygy levels of the Schreyer tower, under their
        # induced orders
        cols = sorted(Ideal(R, gens).groebner_basis().elements,
                      key=lambda g: g.lead_monomial(), reverse=True)
        basis = groebner._ideal_basis(R.order, cols)
        twists = [g.homogeneous_degree() for g in cols]
        for level in (1, 2):
            basis, order, twists = _syzygy_step(R, basis, order, twists)
            if not len(basis):
                break
            split, term = _codec(R, order)
            for _ in range(4):
                start = _random_terms(R, rng, range(len(order.weights)),
                                      (1, 2, 3), 12, term)
                divided[level] += _check_division(R, start, basis, split)
    assert all(divided), divided


@pytest.mark.parametrize("p,k,seed", [(32003, 1, 71), (7, 2, 72)])
def test_reduce_matches_field_element_arithmetic(p, k, seed):
    # the reducer's inline kernels (mod p, or Zech logs on GF(7^2)) against
    # FieldElement arithmetic on exponent tuples: the basis holds the
    # generators divided by their leads, and start = remainder + sum of
    # q * u * basis[i] over the quotients
    rng = random.Random(seed)
    field = GF(p, k)
    R = PolyRing(("x", "y", "z"), field=field)
    unpack = R.order.unpack

    def elementwise(terms):
        return {unpack(key): FieldElement(field, c)
                for key, c in terms.items()}

    reduced = 0
    for _ in range(10):
        gens = [f for f in (_random_form(R, rng.randint(1, 3), rng, 0.6)
                            for _ in range(rng.randint(1, 3)))
                if not f.is_zero()]
        start = _random_form(R, 4, rng, 0.5)._terms
        if not gens or not start:
            continue
        basis = groebner._ideal_basis(R.order, gens)
        for g, terms in zip(gens, basis.terms):
            lc = FieldElement(field, g.lead_coefficient())
            assert elementwise(terms) == {
                e: c / lc for e, c in elementwise(g._terms).items()}
        quotients = {}
        rem = groebner._reduce(start, basis, field, quotients=quotients)
        total = elementwise(rem)
        for (i, u), q in quotients.items():
            for e, c in elementwise(basis.terms[i]).items():
                e = tuple(a + b for a, b in zip(unpack(u), e))
                total[e] = (total.get(e, FieldElement(field, 0))
                            + FieldElement(field, q) * c)
        assert {e: c for e, c in total.items() if not c.is_zero()} == \
            elementwise(start)
        reduced += len(quotients)
    assert reduced


def _copy(basis, count=None):
    """A fresh _Basis, with an empty memo, of the first ``count`` elements
    of ``basis``."""
    fresh = groebner._Basis(basis.order, basis.bits)
    for terms in basis.terms[:count]:
        fresh.append(terms)
    return fresh


def _reduced(start, basis, field):
    """(remainder items in order, quotients) of one reduction."""
    quotients = {}
    rem = groebner._reduce(start, basis, field, quotients=quotients)
    return list(rem.items()), quotients


def _memo_levels(R, rng):
    """(basis, positions, term) from seeded ideals: the ideal's generators
    with bits = 0 and the second level of its Schreyer tower, whose
    bits > 0; ``term(pos, exps)`` gives a term key at that level."""
    levels = []
    while len(levels) < 4:
        gens = [f for f in (_random_form(R, rng.randint(1, 3), rng, 0.6)
                            for _ in range(rng.randint(2, 4)))
                if not f.is_zero()]
        if len(gens) < 2:
            continue
        order = SchreyerOrder.trivial(1)
        levels.append((groebner._ideal_basis(R.order, gens), [0],
                       _codec(R, order)[1]))
        cols = sorted(Ideal(R, gens).groebner_basis().elements,
                      key=lambda g: g.lead_monomial(), reverse=True)
        basis, order, _ = _syzygy_step(
            R, groebner._ideal_basis(R.order, cols), order,
            [g.homogeneous_degree() for g in cols])
        if basis.bits > 0:
            levels.append((basis, range(len(order.weights)),
                           _codec(R, order)[1]))
    return levels


@pytest.mark.parametrize("p,k,seed", [(32003, 1, 91), (7, 2, 92)])
def test_a_reused_basis_reduces_as_a_fresh_one(p, k, seed):
    # the engine reduces against one growing _Basis and the tower against
    # one per level: with the divisor memo filled by earlier reductions,
    # and leads appended between them, every remainder (in key order) and
    # every quotient equals a reduction against a fresh copy
    rng = random.Random(seed)
    R = PolyRing(("x", "y", "z"), field=GF(p, k))
    field = R.field
    hits = [0, 0]  # memo entries naming a divisor, at bits = 0 and > 0
    for full, positions, term in _memo_levels(R, rng):
        half = max(1, len(full) // 2)
        shared = _copy(full, half)
        for n in range(half, len(full) + 1):
            for _ in range(3):
                start = _random_terms(R, rng, positions, (2, 3, 4), 10, term)
                assert (_reduced(start, shared, field)
                        == _reduced(start, _copy(shared), field))
            if n < len(full):
                shared.append(full.terms[n])
        hits[full.bits > 0] += sum(i >= 0 for i in shared.seen.values())
    assert all(hits), hits


@pytest.mark.parametrize("p,k", [(32003, 1), (7, 2)])
def test_a_standard_term_is_reduced_once_a_lead_divides_it(p, k):
    R = PolyRing(("x", "y", "z"), field=GF(p, k))
    x, y, z = R.variables()
    field = R.field
    basis = groebner._ideal_basis(R.order, [x * x + y * z, y * y * y])
    t = (x * y * z).scale(3)._terms
    (key,) = t
    assert groebner._reduce(t, basis, field) == t
    assert basis.seen[key] == ~2  # neither lead divides x*y*z
    basis.append((y * z + z * z)._terms)
    quotients = {}
    rem = groebner._reduce(t, basis, field, quotients=quotients)
    assert basis.seen[key] == 2
    assert list(quotients) == [(2, R.order.pack((1, 0, 0)))]
    assert rem == (x * z * z).scale(-3)._terms


@pytest.mark.parametrize("p,k", [(32003, 1), (7, 2)])
def test_a_negative_memo_entry_is_extended_not_rescanned(p, k):
    # after x*y*z is found standard against two leads, those leads' words
    # are replaced by the word of 1, which divides every monomial: a rescan
    # would divide by one of them, an extended search sees only the third
    R = PolyRing(("x", "y", "z"), field=GF(p, k))
    x, y, z = R.variables()
    field = R.field
    basis = groebner._ideal_basis(R.order, [x * x, y * y + x * z])
    t = (x * y * z)._terms
    (key,) = t
    groebner._reduce(t, basis, field)
    assert basis.seen[key] == ~2
    basis.table[0][:2] = [(0, i) for _, i in basis.table[0][:2]]
    basis.append((z * z)._terms)
    assert groebner._reduce(t, basis, field) == t
    assert basis.seen[key] == ~3
    basis.append((y * z)._terms)
    assert groebner._reduce(t, basis, field) == {}
    assert basis.seen[key] == 3
    # a recorded divisor is read back, not searched for again
    basis.table[0][:] = []
    assert groebner._reduce(t, basis, field) == {}


def test_a_step_that_overflows_is_not_remembered():
    # the key whose quotient times the tail overflows gets no memo entry,
    # so the same basis raises again
    R = ring("xy")
    x, y = R.variables()
    basis = groebner._ideal_basis(R.order, [x - y])
    t = (x * y ** 65535)._terms
    for _ in range(2):
        with pytest.raises(ExponentOverflowError, match="exponent 65536"):
            groebner._reduce(t, basis, R.field)
    assert not basis.seen


def _m_primary_ideals(p, k, nvars, seed, count=4):
    """Frozen-seed ideals of random forms of degrees 2 and 3 whose quotient
    has finite length: nvars forms, one more half the time."""
    rng = random.Random(seed)
    R = PolyRing(("x", "y", "z", "w")[:nvars], field=GF(p, k))
    out = []
    while len(out) < count:
        gens = [_random_form(R, rng.randint(2, 3), rng, 0.7)
                for _ in range(nvars + rng.randint(0, 1))]
        gens = [g for g in gens if not g.is_zero()]
        if gens and finite_length_witness(Ideal(R, gens)) is None:
            out.append(gens)
    return R, out


ARTINIAN_CASES = [(2, 1, 3, 81), (32003, 1, 3, 82), (5, 2, 3, 83),
                  (2, 1, 4, 84), (32003, 1, 4, 85), (5, 2, 4, 86)]


@pytest.mark.parametrize("p,k,nvars,seed", ARTINIAN_CASES)
def test_engine_stops_at_the_artinian_degree(monkeypatch, p, k, nvars, seed):
    # for m-primary I, m^(top + 1) lies in the lead ideal once every pair of
    # degree <= top + 1 is taken, so no pair above that degree is formed
    degrees = []
    spoly = groebner._spoly

    def recorded(order, field, f, lf, g, lg):
        degrees.append(sum(order.exponents(
            word_lcm(lf[1], lg[1], order.guards))))
        return spoly(order, field, f, lf, g, lg)

    monkeypatch.setattr(groebner, "_spoly", recorded)
    R, cases = _m_primary_ideals(p, k, nvars, seed)
    stopped = unstopped = 0
    for gens in cases:
        del degrees[:]
        I = Ideal(R, gens)
        basis = I.groebner_basis().elements
        top = top_degree_finite(I)
        assert max(degrees, default=0) <= top + 1
        stopped += len(degrees)
        # the same pairs without the stop: the loop runs until the heap is
        # empty and reaches the same reduced basis
        with monkeypatch.context() as m:
            # a lead ideal with no monomial in any degree never meets B = 0
            m.setattr(groebner, "_monomial_numerator", lambda gens: (1,))
            del degrees[:]
            assert Ideal(R, gens).groebner_basis().elements == basis
            unstopped += len(degrees)
    assert stopped < unstopped


@pytest.mark.parametrize("p,k,nvars,seed", ARTINIAN_CASES)
def test_stopped_basis_leaves_with_its_lead_numerator(p, k, nvars, seed):
    # the stop reads the numerator of the leads it stopped on, which is
    # the numerator of the returned basis's leads
    R, cases = _m_primary_ideals(p, k, nvars, seed)
    for gens in cases:
        gb = Ideal(R, gens).groebner_basis()
        assert gb.numerator == hilbert._monomial_numerator(gb.lead_monomials)


def _check_basis(I, through):
    """Buchberger's criterion, generator membership and the Hilbert function
    against the rank oracle in degrees 0..through, all without the
    engine."""
    R = I.ring
    gb = I.groebner_basis()
    for f, g in itertools.combinations(gb.elements, 2):
        lf, lg = f.lead_monomial(), g.lead_monomial()
        lcm = tuple(map(max, lf, lg))
        s = (R.poly({tuple(a - b for a, b in zip(lcm, lf)): 1}) * f
             - R.poly({tuple(a - b for a, b in zip(lcm, lg)): 1}) * g)
        assert gb.normal_form(s).is_zero()
    assert all(gb.contains(g) for g in I.gens)
    field = R.field
    min_poly = field.min_poly if field.k > 1 else None
    dense = [poly_to_dense(g) for g in I.gens]
    h = hilbert_function(I, through)
    for d in range(through + 1):
        assert h.values[d] == hilbert_by_rank(field.p, R.nvars, dense, d,
                                              min_poly), d


def _check_stopped_basis(I, top):
    """``_check_basis`` through top + 1, where S/I is zero."""
    _check_basis(I, top + 1)
    assert hilbert_function(I, top + 1).values[top + 1] == 0


@pytest.mark.parametrize("p,k,nvars,seed", ARTINIAN_CASES)
def test_stopped_basis_passes_an_independent_check(p, k, nvars, seed):
    R, cases = _m_primary_ideals(p, k, nvars, seed)
    for gens in cases:
        I = Ideal(R, gens)
        _check_stopped_basis(I, top_degree_finite(I))


def test_stopped_basis_of_a_twisted_cubic_projection():
    # the ideals (V)^t + I_X of epsilon_containment for a general linear
    # projection of the twisted cubic to P^1
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(11))
    x0, x1, x2, x3 = R.variables()
    I_X = Ideal(R, (x1 * x1 - x0 * x2, x1 * x2 - x0 * x3, x2 * x2 - x1 * x3))
    V = Ideal(R, (x0 + 2 * x1 + 3 * x2 + 4 * x3, x1 + 5 * x2 + 9 * x3))
    for t in (1, 2, 3):
        A = V.power(t).plus(I_X)
        _check_stopped_basis(A, top_degree_finite(A))


def test_degree_ceiling_counts_only_the_pairs_before_the_stop():
    # (x^2 + y^2, x*y) has its basis in degree 3; the pairs of degree 4 left
    # on the heap reduce to zero and are never taken, so ceiling 3 suffices
    R = ring("xy")
    x, y = R.variables()
    I = Ideal(R, (x * x + y * y, x * y), degree_ceiling=3)
    assert [str(g) for g in I.groebner_basis()] == [
        "y^3", "x^2 + y^2", "x*y"]
    with pytest.raises(DegreeCeilingError, match="S-pair of degree 3"):
        Ideal(R, I.gens, degree_ceiling=2).groebner_basis()


# --- the Hilbert-function bound of a fiber ideal ---

def _twisted_cubic_projection(p, seed):
    """The twisted cubic over GF(p) with two frozen-seed random linear
    forms, redrawn until they are independent and the projection is
    finite."""
    rng = random.Random(seed)
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(p))
    x0, x1, x2, x3 = R.variables()
    I_X = Ideal(R, (x1 * x1 - x0 * x2, x1 * x2 - x0 * x3, x2 * x2 - x1 * x3))
    while True:
        forms = [_random_form(R, 1, rng, 0.8) for _ in range(2)]
        try:
            spec = ProjectionSpec(I_X, forms)
        except UsageError:  # a zero or dependent form
            continue
        if check_finite(spec).finite:
            return spec


def _fiber_ideals(monkeypatch, spec, K):
    """(I_X + (l), its saturation) in P^n for every fiber that
    max_fiber_regularity resolves over points with k <= K, as ``_Fiber``
    builds and saturates them."""
    ideals, seen = [], []
    bounded, fiber = geometry._bounded, geometry._Fiber

    def built(*args):
        ideals.append(bounded(*args))
        return ideals[-1]

    def resolved(*args):
        fib = fiber(*args)
        seen.append((ideals[-1], fib.saturated))
        return fib

    with monkeypatch.context() as m:
        m.setattr(geometry, "_bounded", built)
        m.setattr(geometry, "_Fiber", resolved)
        max_fiber_regularity(spec, K=K)
    return seen


def _bound_by_rank(I_X):
    """e -> HF(S/I_X)_e - HF(S/I_X)_(e-1) from ranks, the coefficients of
    (1-T) HS(S/I_X), for I_X over a prime field."""
    p, n = I_X.ring.field.p, I_X.ring.nvars
    dense = [poly_to_dense(g) for g in I_X.gens]
    cache = {-1: 0}

    def h(e):
        if e not in cache:
            cache[e] = hilbert_by_rank(p, n, dense, e)
        return cache[e]

    return lambda e: h(e) - h(e - 1)


def _fiber_basis_through(I, Z):
    """One past the larger of the top basis degree of I and the regularity
    of the fiber Z, when Z is not empty."""
    top = max(g.degree() for g in I.groebner_basis())
    if Z.groebner_basis().elements[0].degree() > 0:
        top = max(top, fiber_regularity(Z)[1])
    return top + 1


TWISTED_CUBIC_CASES = [(5, 2, 131), (7, 2, 132), (11, 1, 133)]


def _formed_pairs(monkeypatch, I):
    """Compute I's basis and return, for each S-pair formed, its degree and
    the lead exponents of the basis at that moment."""
    formed = []
    state = {}
    spoly, update = groebner._spoly, groebner._update

    def tracked(order, G, *rest):
        state["leads"] = G.leads
        return update(order, G, *rest)

    def recorded(order, field, f, lf, g, lg):
        formed.append((sum(order.exponents(
                           word_lcm(lf[1], lg[1], order.guards))),
                       [order.exponents(lead[1]) for lead in state["leads"]]))
        return spoly(order, field, f, lf, g, lg)

    with monkeypatch.context() as m:
        m.setattr(groebner, "_update", tracked)
        m.setattr(groebner, "_spoly", recorded)
        I.groebner_basis()
    return formed


def _assert_unmet(formed, nvars, bound):
    """Every pair was formed at a degree e where its leads left more
    standard monomials, enumerated here, than bound(e)."""
    for e, lead_exps in formed:
        standard = sum(1 for m in degree_monomials(nvars, e)
                       if not any(all(a <= b for a, b in zip(l, m))
                                  for l in lead_exps))
        assert standard > bound(e), (e, standard, bound(e))


@pytest.mark.parametrize("p,K,seed", TWISTED_CUBIC_CASES)
def test_bound_met_degrees_form_no_pairs(monkeypatch, p, K, seed):
    # no pair is formed under the fiber bound at a degree where the leads of
    # the basis at that moment meet it, counted and bounded without the
    # library (on these fibers the input leads already meet it at every
    # pair's degree); without the bound the same reduced bases take more
    # pairs
    spec = _twisted_cubic_projection(p, seed)
    bound = _bound_by_rank(spec.ideal)
    bounded = unbounded = 0
    for I, _ in _fiber_ideals(monkeypatch, spec, K):
        assert I._bound  # one linear form: the search passes a bound
        J = groebner._bounded(I.ring, I.gens, I._bound, I.degree_ceiling)
        formed = _formed_pairs(monkeypatch, J)
        _assert_unmet(formed, I.ring.nvars, bound)
        U = Ideal(I.ring, I.gens)
        unformed = _formed_pairs(monkeypatch, U)
        assert (J.groebner_basis().elements == U.groebner_basis().elements
                == I.groebner_basis().elements)
        assert len(unformed) >= len(formed)
        bounded += len(formed)
        unbounded += len(unformed)
    assert bounded < unbounded


def test_pairs_are_formed_only_until_the_bound_is_met(monkeypatch):
    # the points (0:1:0), (0:0:1), (1:2:3) of P^2 have h = 1, 3, 3, ...,
    # numerator (1 + 2T)(1-T)^2 over (1-T)^3, and a cubic in their basis:
    # from the three quadrics alone the leads x^2, x*y, x*z leave 4 standard
    # cubics, so one pair of degree 3 is formed, and once its cubic is in
    # the count meets the bound and the other pairs are dropped
    R = ring()
    x, y, z = R.variables()
    quads = (x * x + y * z, x * y + (y * z).scale(2), x * z + (y * z).scale(3))
    J = groebner._bounded(R, quads, (1, 0, -3, 2),
                          groebner.DEFAULT_DEGREE_CEILING)
    formed = _formed_pairs(monkeypatch, J)
    _assert_unmet(formed, 3, lambda e: 1 if e == 0 else 3)
    assert [e for e, _ in formed] == [3]
    U = Ideal(R, quads)
    assert len(_formed_pairs(monkeypatch, U)) > 1
    assert J.groebner_basis().elements == U.groebner_basis().elements
    assert str(J.groebner_basis().elements[0]) == "y^2*z + 4*y*z^2"


@pytest.mark.parametrize("p,K,seed", TWISTED_CUBIC_CASES)
def test_bounded_fiber_basis_passes_an_independent_check(monkeypatch, p, K,
                                                         seed):
    spec = _twisted_cubic_projection(p, seed)
    for I, Z in _fiber_ideals(monkeypatch, spec, K):
        assert I._bound
        _check_basis(I, _fiber_basis_through(I, Z))


def _fiber_report_bytes(spec):
    rep = max_fiber_regularity(spec, K=1)
    return reports.fibers_report("P", spec.ring, rep).to_json()


def test_a_strict_fiber_bound_gives_the_same_bases_and_report(monkeypatch):
    # I_X = twisted cubic cap m^3 is not saturated and every linear form is
    # a zero divisor on S/I_X: (1-T) HS(S/I_X) = 1 + 3T + 6T^2 + 0T^3 + 3T^4
    # + ... lies strictly below the Hilbert function of I_X + (l) in degree
    # 3, and the bases and the report stay those without a bound
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(11))
    x0, x1, x2, x3 = R.variables()
    tc = Ideal(R, (x1 * x1 - x0 * x2, x1 * x2 - x0 * x3, x2 * x2 - x1 * x3))
    I_X = intersect(tc, Ideal(R, R.variables()).power(3))
    spec = ProjectionSpec(I_X, (x0 + x1.scale(2) + x2.scale(3) + x3.scale(4),
                                x1 + x2.scale(5) + x3.scale(9)))
    bound = _bound_by_rank(I_X)
    assert [bound(e) for e in range(6)] == [1, 3, 6, 0, 3, 3]
    fibers = _fiber_ideals(monkeypatch, spec, 1)
    strict = 0
    for I, Z in fibers:
        through = _fiber_basis_through(I, Z)
        h = hilbert_function(I, through)
        assert all(h.values[e] >= bound(e) for e in range(through + 1))
        strict += h.values[3] > bound(3)
        _check_basis(I, through)
        assert (Ideal(I.ring, I.gens).groebner_basis().elements
                == I.groebner_basis().elements)
    assert strict == len(fibers) == 12
    with_bound = _fiber_report_bytes(spec)
    monkeypatch.setattr(geometry, "_fiber_bound", lambda spec: ())
    assert _fiber_report_bytes(spec) == with_bound


def test_a_bound_above_the_lead_count_raises():
    # the bound 1/(1-T)^3 claims S/I = S; the pair of degree 3 meets leads
    # x^2 and x*y, which leave fewer standard monomials
    R = ring()
    x, y, z = R.variables()
    gens = (x * x - y * z, x * y)
    with pytest.raises(SelfCheckError,
                       match="below the Hilbert function bound 10"):
        groebner._bounded(R, gens, (1,),
                          groebner.DEFAULT_DEGREE_CEILING).groebner_basis()
    assert len(Ideal(R, gens).groebner_basis()) == 3


# --- the Hilbert certificate, the fiber's form and presented bases ---

CERTIFICATE_CASES = [(5, 2, 141), (7, 1, 142)]


def _bound_numerator(I_X, top=8):
    """(1-T) HS(S/I_X) as a numerator over (1-T)^n, from the coefficients
    of ``_bound_by_rank``: their series times (1-T)^n, which vanishes from
    degree ``top`` on through the n degrees computed past it."""
    b = _bound_by_rank(I_X)
    num = [b(e) for e in range(top + I_X.ring.nvars)]
    for _ in range(I_X.ring.nvars):
        num = num[:1] + [a - c for c, a in zip(num, num[1:])]
    assert not any(num[top:]), num
    while not num[-1]:
        num.pop()
    return tuple(num)


def _refused(*args, **kwargs):
    raise AssertionError("a pair was built")


def _engine_orders(monkeypatch):
    """The order of every later _engine call's ring, in call order."""
    seen = _engine_ceilings(monkeypatch)
    return lambda: [r.order for r, _ in seen]


def _counted(monkeypatch, name):
    """A list that gains one entry per later call of groebner.<name>."""
    calls = []
    real = getattr(groebner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, name, counted)
    return calls


@pytest.mark.parametrize("p,K,seed", CERTIFICATE_CASES)
def test_a_met_certificate_installs_no_pair(monkeypatch, p, K, seed):
    # under the bound (1-T) HS(S/I_X), counted by ranks, the leads of every
    # fiber's installed generators meet it here: the engine returns the
    # reduced inputs with the bound as their numerator and never calls
    # _update, and the basis is the one the unbounded engine computes
    spec = _twisted_cubic_projection(p, seed)
    bound = _bound_numerator(spec.ideal)
    assert bound == tuple(geometry._fiber_bound(spec))
    fibers = _fiber_ideals(monkeypatch, spec, K)
    assert len(fibers) == (16 if p == 5 else 8)
    for I, _ in fibers:
        J = groebner._bounded(I.ring, I.gens, bound, I.degree_ceiling)
        with monkeypatch.context() as m:
            m.setattr(groebner, "_update", _refused)
            gb = J.groebner_basis()
        assert gb.numerator == bound
        assert gb.elements == Ideal(I.ring, I.gens).groebner_basis().elements
        assert hilbert.hilbert_numerator(Ideal(I.ring, I.gens)) == bound


def test_an_unmet_certificate_takes_the_pair_loop(monkeypatch):
    # I_X = twisted cubic cap (x1, x2, x3)^2 has an embedded point at
    # (1:0:0:0), where l = x1 vanishes, so l is a zero divisor on S/I_X and
    # (1-T) HS(S/I_X) lies below HS(S/(I_X + l)): the certificate fails and
    # the pair loop gives the unbounded engine's basis, numerator not cached
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(7))
    x0, x1, x2, x3 = R.variables()
    tc = Ideal(R, (x1 * x1 - x0 * x2, x1 * x2 - x0 * x3, x2 * x2 - x1 * x3))
    I_X = intersect(tc, Ideal(R, (x1, x2, x3)).power(2))
    assert saturate(I_X).equals(I_X) and not I_X.equals(tc)
    bound = _bound_numerator(I_X)
    J = groebner._bounded(R, I_X.gens + (x1,), bound,
                          groebner.DEFAULT_DEGREE_CEILING)
    updates = _counted(monkeypatch, "_update")
    gb = J.groebner_basis()
    assert updates and gb.numerator is None
    assert gb.elements == Ideal(R, J.gens).groebner_basis().elements
    assert hilbert.hilbert_numerator(J) != bound
    _check_basis(J, 6)


def _coordinate_point_fiber(monkeypatch, spec, K):
    """(I_X + (l), its saturation) of the one fiber whose basis has a lead
    divisible by x3, the fiber through (1:0:0:0), where x3 vanishes."""
    hard = [(I, J) for I, J in _fiber_ideals(monkeypatch, spec, K)
            if any(m[3] for m in I.groebner_basis().lead_monomials)]
    assert len(hard) == 1
    I = hard[0][0]
    # every generator vanishes at (1:0:0:0): no pure power of x0 occurs
    assert all(g.coefficient((g.degree(), 0, 0, 0)).is_zero() for g in I.gens)
    return hard[0]


@pytest.mark.parametrize("p,K,seed", CERTIFICATE_CASES)
def test_the_fiber_through_a_coordinate_point_is_certified(monkeypatch, p, K,
                                                           seed):
    # x3 divides a lead of the fiber through (1:0:0:0), so the last
    # variable does not certify it, but the center's numerator does: the
    # search runs no saturate, no intersection and no other order, and the
    # fiber keeps its own basis, the saturation the variable route gives
    spec = _twisted_cubic_projection(p, seed)
    saturations = []
    real = geometry.saturate

    def recorded(I):
        saturations.append(I)
        return real(I)

    monkeypatch.setattr(geometry, "saturate", recorded)
    intersections = _counted(monkeypatch, "intersect")
    orders = _engine_orders(monkeypatch)
    I, J = _coordinate_point_fiber(monkeypatch, spec, K)
    searched = orders()
    assert not saturations and not intersections
    assert searched and all(o == I.ring.order for o in searched)
    assert J.groebner_basis() is I.groebner_basis()
    assert J.gens == saturate(I).gens  # the variables, then intersect


@pytest.mark.parametrize("p,K,seed", CERTIFICATE_CASES)
def test_an_unsaturated_ideal_takes_the_variables(monkeypatch, p, K, seed):
    # J*m is not saturated: for the fiber through (1:0:0:0) times m the
    # last variable fails, and other variables (under other orders) give
    # the saturation J.  (xy, xz, yz)*m goes on to intersect
    spec = _twisted_cubic_projection(p, seed)
    I, _ = _coordinate_point_fiber(monkeypatch, spec, K)
    M = I.times(Ideal(I.ring, I.ring.variables()))
    orders = _engine_orders(monkeypatch)
    assert saturate(M).gens == I.groebner_basis().elements
    assert any(o != I.ring.order for o in orders())
    R = ring()
    x, y, z = R.variables()
    I = Ideal(R, (x * y, x * z, y * z)).times(Ideal(R, (x, y, z)))
    intersections = _counted(monkeypatch, "intersect")
    assert gens_of(saturate(I)) == {"x*y", "x*z", "y*z"}
    assert intersections


@pytest.mark.parametrize("p,K,seed", CERTIFICATE_CASES)
def test_presented_fiber_bases_need_no_checks(monkeypatch, p, K, seed):
    # the bases presented without Ideal's checks are those the checks
    # would keep: nonzero, homogeneous, no two proportional
    spec = _twisted_cubic_projection(p, seed)
    for I, J in _fiber_ideals(monkeypatch, spec, K):
        for ideal in (I, J):
            assert Ideal(ideal.ring, ideal.gens).gens == ideal.gens
        P = groebner._presented(I, groebner.GroebnerBasis(I.ring, J.gens))
        assert P.gens == Ideal(I.ring, J.gens).gens == J.gens
    for fiber in max_fiber_regularity(spec, K=K).fibers:
        Z = fiber.ideal
        assert Ideal(Z.ring, Z.gens).gens == Z.gens


def _installs(monkeypatch, gens, R):
    """(_rref calls, _reduce calls) the engine makes while installing
    ``gens``, counted up to its first _update, and the lead keys of G then."""
    rrefs = _counted(monkeypatch, "_rref")
    reduces = _counted(monkeypatch, "_reduce")
    seen = []
    update = groebner._update

    def first(order, G, *rest):
        if not seen:
            seen.append((len(rrefs), len(reduces), [l[0] for l in G.leads]))
        return update(order, G, *rest)

    monkeypatch.setattr(groebner, "_update", first)
    basis = groebner._engine(gens, R, 64)
    monkeypatch.undo()
    assert basis.elements == groebner._engine(gens, R, 64).elements
    return seen[0]


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_least_degree_inputs_are_installed_by_one_rref(monkeypatch, seed):
    # the inputs of the least degree are one echelon form: one _rref and
    # no _reduce install them, with distinct leads in descending order and
    # each lead in no other installed element; every input of a higher
    # degree is reduced by _reduce, and a one-row block also stays on it
    rng = random.Random(seed)
    R = ring(p=32003)
    x, y, z = R.variables()
    quads = [_random_form(R, 2, rng, 0.8) for _ in range(4)]
    quads.append(quads[0] + quads[1].scale(5))  # dependent: rank 4
    rrefs, reduces, leads = _installs(monkeypatch, quads, R)
    assert (rrefs, reduces) == (1, 0)
    assert len(leads) == 4 and leads == sorted(leads, reverse=True)
    cubics = [_random_form(R, 3, rng, 0.6) for _ in range(2)]
    assert _installs(monkeypatch, cubics + quads, R)[:2] == (1, 2)
    linear = [x + y.scale(3) + z.scale(7)]
    assert _installs(monkeypatch, quads + linear, R)[:2] == (0, 6)


def _gf_form(R, terms):
    """The sum of monomial * coefficient over ``terms``, pairs of a
    power-basis tuple and a monomial's text."""
    F = R.field
    f = R.zero()
    for vector, mono in terms:
        f = f + parse_polynomial(mono, R).scale(FieldElement(F, F.coerce(vector)))
    return f


def test_dict_loop_fields_give_the_reduced_bases_they_gave_before():
    # GF(65537) and GF(5^2) install their least-degree inputs through the
    # dict loop of _rref; the reduced bases are those recorded from the
    # engine that reduced each input by the ones before it
    R = ring(p=65537)
    gens = [parse_polynomial(g, R) for g in (
        "42931*y^2 + 37304*x*z + 5614*y*z + 50054*z^2",
        "58365*x*y + 19942*y*z + 55855*z^2",
        "56447*x*y + 20361*x*z")]
    gens.append(gens[0] + gens[1])
    assert [str(g) for g in groebner._engine(gens, R, 64)] == [
        "y*z^2", "z^3", "x*y + 12772*y*z + 20123*z^2",
        "y^2 + 33894*y*z + 45917*z^2", "x*z + 37191*y*z + 15550*z^2"]
    R = PolyRing(("x", "y", "z"), field=GF(5, 2))
    gens = [_gf_form(R, terms) for terms in (
        [((1, 0), "x^2"), ((0, 2), "x*y"), ((3, 4), "y^2"),
         ((3, 3), "x*z"), ((3, 2), "y*z"), ((0, 3), "z^2")],
        [((0, 3), "x^2"), ((3, 3), "x*y"), ((1, 3), "y^2"),
         ((3, 4), "x*z")],
        [((3, 4), "x^2"), ((1, 3), "x*y"), ((1, 0), "y^2"),
         ((1, 0), "x*z")])]
    gens.append(gens[0] + gens[1])
    assert [str(g) for g in groebner._engine(gens, R, 64)] == [
        "z^4", "x*z^2 + (2 + 3*g)*z^3", "y*z^2 + (1 + 2*g)*z^3",
        "x^2 + (3 + 3*g)*x*z + 3*y*z + (1 + g)*z^2",
        "x*y + 3*x*z + (1 + 3*g)*y*z + 3*z^2",
        "y^2 + (2 + g)*x*z + (1 + 4*g)*y*z + (g)*z^2"]


def _brute_update(leads, pairs, t):
    """Gebauer-Moeller on exponent tuples, every lcm tested against every
    other: ``pairs`` maps (i, j) to the lcm of leads i and j."""
    lcms = [tuple(map(max, lead, leads[t])) for lead in leads[:t]]
    for (i, j), lij in list(pairs.items()):
        if divides(leads[t], lij) and lcms[i] != lij and lcms[j] != lij:
            del pairs[(i, j)]
    groups = {}
    for i, li in enumerate(lcms):
        if not any(lj != li and divides(lj, li) for lj in lcms):
            groups.setdefault(li, []).append(i)
    for lcm, members in groups.items():
        if not any(all(min(a, b) == 0 for a, b in zip(leads[i], leads[t]))
                   for i in members):
            pairs[(min(members), t)] = lcm


@pytest.mark.parametrize("nvars,seed", [(2, 51), (3, 52), (4, 53)])
def test_update_keeps_the_pairs_of_a_brute_force_m_criterion(nvars, seed):
    # _update keeps the candidates whose lcm is minimal among the sorted
    # distinct lcms; the pairs it keeps, after each element, are those of
    # the brute-force criterion, with repeated lcms and coprime leads drawn
    rng = random.Random(seed)
    order = MonomialOrder(GREVLEX, nvars)
    for _ in range(20):
        G = groebner._Basis(order)
        leads, pairs, heap, want = [], {}, [], {}
        for t in range(rng.randint(2, 14)):
            lead = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(nvars))
            G.append({order.pack(lead): 1})
            leads.append(lead)
            groebner._update(order, G, pairs, heap, t)
            _brute_update(leads, want, t)
            assert {ij: order.exponents(w) for ij, w in pairs.items()} == want
