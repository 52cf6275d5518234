import itertools
import random

import pytest

from cmreg import geometry, groebner, hilbert, messages
from cmreg.asymptotics import epsilon_containment, power_table
from cmreg.errors import (
    BudgetError,
    DegreeCeilingError,
    DimensionError,
    GeometryError,
    SelfCheckError,
    UsageError,
)
from cmreg.fields import (
    GF,
    ExtensionField,
    FieldElement,
    PrimeField,
    _rref,
    _sparse,
)
from cmreg.geometry import (
    _closed_point_coords,
    _coefficient_row,
    _hyperplane_gcd_degree,
    _image_curve_form,
    _line_values,
    ClosedPoint,
    ProjectionSpec,
    binary_gcd,
    check_finite,
    enumerate_closed_points,
    fiber_ideal,
    fiber_regularity,
    max_fiber_regularity,
    twovars_r,
    twovars_verify,
)
from cmreg.groebner import Ideal
from cmreg.hilbert import (
    hilbert_function,
    quotient_degree,
    quotient_dimension,
)
from cmreg.orders import GREVLEX, GRLEX, LEX, MonomialOrder
from cmreg.polynomials import PolyRing, lift_polynomial
from cmreg.sessions import parse_session

from oracle import degree_monomials, gf_format, hilbert_by_rank, poly_to_dense


def _power_basis(field, coords):
    """coords as power-basis tuples, the order in which a closed point's
    representative is the least member of its orbit."""
    if field.k == 1:
        return tuple(coords)
    return tuple(field.vector(c) for c in coords)


def _normalized_points(field, s):
    """All normalized points of P^s(field): first nonzero coordinate is 1."""
    elems = list(field.elements())
    one = field.one
    zero = field.zero
    for i0 in range(s + 1):
        prefix = (zero,) * i0 + (one,)
        for tail in itertools.product(elems, repeat=s - i0):
            yield prefix + tail


def ring2(p=7):
    return PolyRing(("x", "y"), field=GF(p))


def conic_spec(p=7):
    R = PolyRing(("x", "y", "z"), field=GF(p))
    x, y, z = R.variables()
    return ProjectionSpec(Ideal(R, (x * z - y * y,)), (x, z))


def twisted_cubic_spec(p=11):
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(p))
    x0, x1, x2, x3 = R.variables()
    I = Ideal(R, (x0 * x2 - x1 * x1, x0 * x3 - x1 * x2, x1 * x3 - x2 * x2))
    forms = (
        x0 + x1.scale(2) + x2.scale(3) + x3.scale(4),
        x1 + x2.scale(5) + x3.scale(9),
    )
    return ProjectionSpec(I, forms)


# --- closed points ---


def projective_count(q, s):
    return (q ** (s + 1) - 1) // (q - 1)


def test_closed_point_counts_match_point_counts_over_extensions():
    # grouping rational points of P^s(GF(p^k)) by residue degree:
    # sum over d | k of d * (number of degree-d closed points)
    for p, s, K in ((7, 1, 2), (3, 2, 2), (5, 1, 3), (2, 1, 4)):
        by_k = {}
        for pt in enumerate_closed_points(p, K, s):
            by_k[pt.k] = by_k.get(pt.k, 0) + 1
        for k in range(1, K + 1):
            total = sum(d * by_k.get(d, 0) for d in range(1, k + 1) if k % d == 0)
            assert total == projective_count(p**k, s), (p, s, k)


def test_closed_point_fixture_counts():
    assert sum(1 for _ in enumerate_closed_points(7, 1, 1)) == 8
    assert sum(1 for _ in enumerate_closed_points(7, 2, 1)) == 29
    assert sum(1 for p in enumerate_closed_points(3, 1, 2)) == 13


def test_closed_points_are_normalized_orbit_representatives():
    for pt in enumerate_closed_points(5, 2, 1):
        field = pt.coords[0].field
        raws = [c.raw for c in pt.coords]
        # normalized: first nonzero coordinate is one
        lead = next(r for r in raws if r != field.zero)
        assert lead == field.one
        # representative: lexicographically least in its Frobenius orbit
        orbit = []
        cur = tuple(raws)
        while True:
            cur = tuple(field.frobenius(r) for r in cur)
            orbit.append(cur)
            if cur == tuple(raws):
                break
        assert len(orbit) == pt.k
        assert tuple(raws) == min(orbit,
                                  key=lambda c: _power_basis(field, c))


def test_closed_point_text_matches_the_power_basis_reference():
    # GF(5^3) coordinates print through the field's table of coefficient
    # texts; the reference formats each power-basis tuple on its own
    points = list(enumerate_closed_points(5, 3, 1))
    assert {pt.k for pt in points} == {1, 2, 3}
    for pt in points + points[::-1]:
        field = pt.coords[0].field
        coords = [field.vector(c.raw) if field.k > 1 else (c.raw,)
                  for c in pt.coords]
        assert str(pt) == "(" + ":".join(map(gf_format, coords)) + ")"
    field = GF(5, 3)
    g = field.element((0, 1, 0))
    assert str(ClosedPoint(3, (field.element(1), g * g * g))) == \
        "(1:" + gf_format(field.vector((g * g * g).raw)) + ")"


def test_closed_point_enumeration_validation():
    with pytest.raises(UsageError):
        list(enumerate_closed_points(7, 0, 1))
    with pytest.raises(UsageError):
        list(enumerate_closed_points(7, 9, 1))


# --- projections and fibers ---


def _value(field, coeffs, a):
    """coeffs (low degree first) at a, by Horner's rule in the field's raw
    arithmetic."""
    v = field.zero
    for c in reversed(coeffs):
        v = field.add(field.mul(v, a), c)
    return v


def _zeros_by_evaluation(field, coeffs):
    """The elements where coeffs vanishes, in elements() order."""
    return [a for a in field.elements()
            if _value(field, coeffs, a) == field.zero]


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (101, 1), (5, 2), (2, 3),
                                 (1009, 1), (32003, 1)])
def test_zero_scan_matches_evaluation_at_every_element(p, k):
    # d = 4, 5, 6 take every slot width of the prime-field kernel, the least
    # w of 1, 2, 4, 8 bytes with (d+1)(p-1)^2 < 2^(8w): 1 for p = 3, 2 for
    # (101, 4) and (101, 5), 4 for (101, 6) and p = 1009, 8 for p = 32003;
    # values, on the same columns, gives Horner's value at every element
    field = GF(p, k)
    elems = list(field.elements())
    for d in sorted({min(4, field.order), 4, 5, 6}):
        zeros = field.zero_scan(d)
        values = field.values(d)
        rng = random.Random(p * 10 + k + 100 * d)
        # h = 0: every element; a nonzero constant: none
        assert zeros([field.zero] * (d + 1)) == elems
        assert zeros([field.one]) == zeros([field.one] + [field.zero] * d) \
            == []
        # distinct zeros: the product of the (c - a), in elements() order
        roots = rng.sample(elems, min(d, len(elems)))
        h = [field.one]
        for a in roots:
            h = [field.sub(lo, field.mul(a, hi))
                 for lo, hi in zip([field.zero] + h, h + [field.zero])]
        assert zeros(h) == [a for a in elems if a in roots]
        # against evaluation: the largest raw coefficient everywhere, also
        # in a list shorter than d + 1; a zero at the largest slot sum (the
        # top coefficient on x..x^d, and the constant term that vanishes at
        # the element whose powers have the largest raw sum); random
        # polynomials of degree at most d
        top = field.order - 1
        cases = [[top] * (d + 1), [top] * d]
        a = max(elems, key=lambda a: sum(field.pow_(a, i)
                                         for i in range(1, d + 1)))
        h = [field.zero] + [top] * d
        h[0] = field.neg(_value(field, h, a))
        assert a in zeros(h)
        cases.append(h)
        cases += [[field.random(rng) for _ in range(rng.randint(1, d + 1))]
                  for _ in range(20 if field.order < 2000 else 2)]
        for h in cases:
            assert zeros(h) == _zeros_by_evaluation(field, h), (d, h)
            assert values(h) == [_value(field, h, a) for a in elems], (d, h)


def test_projection_spec_validation():
    R = PolyRing(("x", "y", "z"), field=GF(7))
    x, y, z = R.variables()
    I = Ideal(R, (x * z - y * y,))
    with pytest.raises(UsageError):
        ProjectionSpec(I, ())
    with pytest.raises(UsageError):
        ProjectionSpec(I, (x, x.scale(2)))  # dependent
    with pytest.raises(UsageError):
        ProjectionSpec(I, (x * x,))  # not linear
    with pytest.raises(UsageError):
        ProjectionSpec(I, (ring2().variable(0),))
    spec = ProjectionSpec(I, (x, z))
    assert spec.s == 1


def test_check_finite_certificates():
    spec = conic_spec()
    assert check_finite(spec) == check_finite(spec)
    assert check_finite(spec).finite
    R = spec.ring
    x, y, _ = R.variables()
    bad = ProjectionSpec(spec.ideal, (x, y))  # center (0:0:1) lies on X
    cert = check_finite(bad)
    assert not cert.finite
    assert cert.witness == "z"
    with pytest.raises(GeometryError):
        max_fiber_regularity(bad, K=1)


def test_conic_projection_fibers():
    spec = conic_spec()
    rep = max_fiber_regularity(spec, K=1, epsilon=1)
    assert rep.max_regularity == 2
    assert rep.epsilon == 1
    assert rep.equals_epsilon_plus_1 is True
    assert rep.empty_fibers == 0
    assert not rep.partial
    assert len(rep.fibers) == 8
    for fib in rep.fibers:
        assert fib.degree == 2  # every fiber of the double cover
        assert fib.regularity == 2
    names = {str(pt) for pt in rep.argmax}
    assert {"(1:0)", "(0:1)"} <= names


def test_conic_ramified_fiber_ideal():
    # over (1:0) the fiber is the double point z = y^2 = 0
    spec = conic_spec()
    field = GF(7)
    pt = ClosedPoint(1, (field.element(1), field.element(0)))
    Z = fiber_ideal(spec, pt)
    R = spec.ring
    x, y, z = R.variables()
    assert Z.contains(z)
    assert Z.contains(y * y)
    assert not Z.contains(y)
    assert quotient_degree(Z) == 2
    deg, reg = fiber_regularity(Z)
    assert (deg, reg) == (2, 2)


def test_conic_split_fiber_is_two_reduced_points():
    # over (1:1) the conic meets x = z in two distinct rational points
    spec = conic_spec()
    field = GF(7)
    pt = ClosedPoint(1, (field.element(1), field.element(1)))
    Z = fiber_ideal(spec, pt)
    deg, reg = fiber_regularity(Z)
    assert (deg, reg) == (2, 2)
    # reduced: y^2 is not in the ideal, but y^2 - x^2 vanishes on both points
    R = spec.ring
    x, y, _ = R.variables()
    assert not Z.contains(y * y)
    assert Z.contains(y * y - x * x)


def test_identity_projection_of_the_line():
    R = ring2()
    x, y = R.variables()
    spec = ProjectionSpec(Ideal(R, ()), (x, y))
    rep = max_fiber_regularity(spec, K=2, epsilon=0)
    assert rep.max_regularity == 1
    assert rep.equals_epsilon_plus_1 is True
    assert len(rep.fibers) == 29
    assert all(f.degree == 1 and f.regularity == 1 for f in rep.fibers)


def test_twisted_cubic_general_projection():
    spec = twisted_cubic_spec()
    rep = max_fiber_regularity(spec, K=1, epsilon=1)
    assert len(rep.fibers) == 12  # P^1(GF(11))
    assert all(f.degree == 3 for f in rep.fibers)
    assert rep.max_regularity == 2
    assert rep.equals_epsilon_plus_1 is True
    assert rep.empty_fibers == 0


def test_twisted_cubic_coordinate_projection_ramified_fiber():
    # projecting to (x0 : x3): over (1:0) the fiber is curvilinear of
    # degree 3 and the identity max reg = eps + 1 = 2 still holds
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(11))
    x0, x1, x2, x3 = R.variables()
    I = Ideal(R, (x0 * x2 - x1 * x1, x0 * x3 - x1 * x2, x1 * x3 - x2 * x2))
    spec = ProjectionSpec(I, (x0, x3))
    field = GF(11)
    pt = ClosedPoint(1, (field.element(1), field.element(0)))
    Z = fiber_ideal(spec, pt)
    deg, reg = fiber_regularity(Z)
    assert (deg, reg) == (3, 2)
    assert Z.contains(x3)
    assert Z.contains(x1 * x1 - x0 * x2)
    assert Z.contains(x2 * x2)
    assert not Z.contains(x2)
    rep = max_fiber_regularity(spec, K=1, epsilon=1)
    assert rep.max_regularity == 2
    assert rep.equals_epsilon_plus_1 is True


def test_fibers_of_galois_conjugate_points_agree():
    spec = conic_spec()
    pts = [p for p in enumerate_closed_points(7, 2, 1) if p.k == 2]
    for pt in pts[:4]:
        field = pt.coords[0].field
        conj = ClosedPoint(
            2,
            tuple(
                FieldElement(field, field.frobenius(c.raw)) for c in pt.coords
            ),
        )
        assert conj.coords != pt.coords
        a = fiber_regularity(fiber_ideal(spec, pt))
        b = fiber_regularity(fiber_ideal(spec, conj))
        assert a == b


def test_fiber_invariants_are_bounded_by_the_cover_degree():
    # degree of each fiber is between 1 and deg X, regularity at most degree
    spec = twisted_cubic_spec()
    rep = max_fiber_regularity(spec, K=2, epsilon=1)
    deg_X = quotient_degree(spec.ideal)
    for fib in rep.fibers:
        assert 1 <= fib.degree <= deg_X
        assert 1 <= fib.regularity <= fib.degree


def test_fibers_are_resolved_in_grevlex_whatever_the_ring_order():
    # a fiber is saturated under grevlex and presented in the spec's ring:
    # lex and grlex rings give the grevlex generators term for term, each
    # term an exponent tuple, as the rings' term keys differ
    def fibers(kind):
        R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(5),
                     order=MonomialOrder(kind, 4))
        x0, x1, x2, x3 = R.variables()
        I = Ideal(R, (x0 * x2 - x1 * x1, x0 * x3 - x1 * x2,
                      x1 * x3 - x2 * x2))
        spec = ProjectionSpec(I, (x0 + x3.scale(2), x1 + x2 + x3.scale(3)))
        rep = max_fiber_regularity(spec, K=2)
        assert all(f.ideal.ring.order == R.order for f in rep.fibers)
        return [(f.point, f.degree, f.regularity,
                 [sorted(g.sorted_terms()) for g in f.ideal.gens])
                for f in rep.fibers]

    reference = fibers(GREVLEX)
    assert len(reference) == 16
    assert fibers(LEX) == reference
    assert fibers(GRLEX) == reference


def test_fiber_search_lifts_once_per_extension_degree(monkeypatch):
    # the ring, forms and generators over GF(p^k) are set up once per k,
    # not once per closed point (56 points here), and every fiber is
    # resolved in that ring: no ring is built per point
    lifts = []
    lift = geometry.lift_polynomial
    rings = []
    make_ring = geometry.PolyRing

    def counted_lift(f, target):
        lifts.append(target.field.k)
        return lift(f, target)

    def counted_ring(*args, **kwargs):
        ring = make_ring(*args, **kwargs)
        rings.append(ring.field.k)
        return ring

    monkeypatch.setattr(geometry, "lift_polynomial", counted_lift)
    monkeypatch.setattr(geometry, "PolyRing", counted_ring)
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(5))
    x0, x1, x2, x3 = R.variables()
    I = Ideal(R, (x0 * x2 - x1 * x1, x0 * x3 - x1 * x2, x1 * x3 - x2 * x2))
    spec = ProjectionSpec(I, (x0 + x2, x1 + x3.scale(2)))
    K = 3
    rep = max_fiber_regularity(spec, K=K)
    assert len(rep.fibers) + rep.empty_fibers == 56
    per_k = len(spec.forms) + len(spec.ideal.gens)
    assert len(lifts) <= per_k * K, len(lifts)
    assert rings == list(range(2, K + 1)), rings
    # fiber_ideal keeps its signature and sets up its own extension
    pt = next(p for p in enumerate_closed_points(5, 2, 1) if p.k == 2)
    assert fiber_ideal(spec, pt).gens == next(
        f.ideal.gens for f in rep.fibers if f.point == pt)


def test_projection_of_a_point_counts_empty_fibers():
    R = PolyRing(("x", "y", "z"), field=GF(7))
    x, y, z = R.variables()
    point = Ideal(R, (y, z))  # the single point (1:0:0)
    spec = ProjectionSpec(point, (x, y))
    rep = max_fiber_regularity(spec, K=1, epsilon=0)
    assert len(rep.fibers) == 1
    assert rep.empty_fibers == 7
    assert rep.max_regularity == 1
    assert str(rep.fibers[0].point) == "(1:0)"


def test_fiber_search_budget_carries_partial_report():
    spec = conic_spec()
    with pytest.raises(BudgetError) as exc:
        max_fiber_regularity(spec, K=1, epsilon=1, budget=3)
    partial = exc.value.partial
    assert partial.partial
    assert partial.max_regularity == 2
    assert messages.partial_lower_bound() in partial.warnings


def test_fiber_search_requires_prime_base():
    R = PolyRing(("x", "y"), field=GF(7, 2))
    x, y = R.variables()
    spec = ProjectionSpec(Ideal(R, ()), (x, y))
    with pytest.raises(UsageError):
        max_fiber_regularity(spec, K=2)


def test_fiber_regularity_rejects_positive_dimension():
    R = PolyRing(("x", "y", "z"), field=GF(7))
    x, _, _ = R.variables()
    with pytest.raises(DimensionError):
        fiber_regularity(Ideal(R, (x,)))  # a line, not points


def test_fiber_regularity_rejects_an_unsaturated_ideal_of_points():
    # (x, y) cap m^2 = (x^2, xy, y^2, xz, yz): the point (0:0:1) plus an
    # embedded component at the irrelevant ideal; HS = 1/(1-T) + 2T, so
    # Q = 1 + 2T - 2T^2 has a negative coefficient
    R = PolyRing(("x", "y", "z"), field=GF(7))
    x, y, z = R.variables()
    Z = Ideal(R, (x * x, x * y, y * y, x * z, y * z))
    assert quotient_dimension(Z) == 1
    with pytest.raises(SelfCheckError):
        fiber_regularity(Z)
    with pytest.raises(DimensionError, match="Krull dimension -1"):
        fiber_regularity(Ideal(R, (R.one(),)))


def test_fiber_search_budget_runs_out_before_the_first_fiber():
    # the point (0:1:0) lies over (0:1), the last of the four points of
    # P^1(GF(3)); a budget that ends on empty fibers is a resource limit
    # with no partial maximum, not a geometric failure
    R = PolyRing(("x", "y", "z"), field=GF(3))
    x, y, z = R.variables()
    spec = ProjectionSpec(Ideal(R, (x, z)), (x, y))
    for budget in (1, 2, 3):
        with pytest.raises(BudgetError) as exc:
            max_fiber_regularity(spec, K=1, budget=budget)
        assert exc.value.partial is None
    rep = max_fiber_regularity(spec, K=1, budget=4)
    assert (rep.max_regularity, rep.empty_fibers) == (1, 3)


def test_budgets_below_one_are_usage_errors():
    spec = conic_spec()
    R = ring2(101)
    x, y = R.variables()
    for budget in (0, -1):
        with pytest.raises(UsageError, match="budget must be at least 1"):
            max_fiber_regularity(spec, K=1, budget=budget)
        with pytest.raises(UsageError, match="budget must be at least 1"):
            twovars_r((x**3, x * x * y, y**3), 1, budget)


def test_fiber_search_computes_one_numerator_per_basis(monkeypatch):
    # the fiber certificate, saturate, fiber_regularity and the Hilbert
    # function all read the numerator cached on a basis: the recursion runs
    # at most once per GroebnerBasis, though the numerator is read more
    # often.  The engine's Hilbert certificate computes the numerator of
    # the installed leads, which is counted against the basis it certifies
    depth = 0
    top_level = 0
    numerator = hilbert._numerator

    def counted_numerator(gens):
        nonlocal depth, top_level
        top_level += depth == 0
        depth += 1
        try:
            return numerator(gens)
        finally:
            depth -= 1

    bases = []  # keeps every basis alive, so ids are not reused
    per_basis = {}
    read = hilbert.hilbert_numerator

    def counted_read(I):
        gb = I.groebner_basis()
        bases.append(gb)
        before = top_level
        out = read(I)
        per_basis[id(gb)] = per_basis.get(id(gb), 0) + top_level - before
        return out

    engine = groebner._engine

    def counted_engine(*args):
        before = top_level
        gb = engine(*args)
        bases.append(gb)
        if top_level > before:
            assert gb.numerator is not None  # every certificate here holds
            per_basis[id(gb)] = per_basis.get(id(gb), 0) + top_level - before
        return gb

    monkeypatch.setattr(hilbert, "_numerator", counted_numerator)
    monkeypatch.setattr(hilbert, "hilbert_numerator", counted_read)
    monkeypatch.setattr(groebner, "_engine", counted_engine)
    monkeypatch.setattr(geometry, "hilbert_numerator", counted_read,
                        raising=False)
    monkeypatch.setattr(groebner, "hilbert_numerator", counted_read)
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(5))
    x0, x1, x2, x3 = R.variables()
    I = Ideal(R, (x0 * x2 - x1 * x1, x0 * x3 - x1 * x2, x1 * x3 - x2 * x2))
    spec = ProjectionSpec(I, (x0 + x2, x1 + x3.scale(2)))
    rep = max_fiber_regularity(spec, K=3)
    assert len(rep.fibers) + rep.empty_fibers == 56
    assert top_level == sum(per_basis.values())
    assert max(per_basis.values()) <= 1, max(per_basis.values())
    assert len(bases) > len(per_basis)


def _certified_search(monkeypatch, spec, K):
    """max_fiber_regularity's report, with the outcome of each fiber's
    saturation certificate in order, each failed one followed by
    "saturate" when the fiber search calls it."""
    events = []
    free, real = geometry._free_over_forms, geometry.saturate

    def certified(*args):
        events.append(free(*args))
        return events[-1]

    def saturated(I):
        events.append("saturate")
        return real(I)

    with monkeypatch.context() as m:
        m.setattr(geometry, "_free_over_forms", certified)
        m.setattr(geometry, "saturate", saturated)
        rep = max_fiber_regularity(spec, K=K)
    return rep, events


def _fibers(rep):
    return [(str(f.point), f.degree, f.regularity, f.ideal.gens)
            for f in rep.fibers]


@pytest.mark.parametrize("forms,K,nonempty,empty,uncertified", [
    pytest.param(lambda x0, x1, x2, x3: (x0 + x1.scale(2) + x3.scale(3),
                                         x1 + x2 + x3.scale(4)),
                 2, 16, 0, 0, id="P1"),
    pytest.param(lambda x0, x1, x2, x3: (x0, x1, x3), 1, 6, 25, 30, id="P2"),
])
def test_an_unsaturated_ideal_gives_the_same_fibers_by_saturate(
        monkeypatch, forms, K, nonempty, empty, uncertified):
    # the twisted cubic X and X*m have the same fibers, point by point,
    # but every fiber of X*m fails the certificate and is saturated by
    # saturate, which runs on no certified fiber.  Over P^1 every fiber of
    # X is certified.  Over P^2 the empty fibers fail, and so does each
    # line through one simple point of X, which cuts it out with an
    # irrelevant component: only the double fiber over the cusp (0:0:1)
    # of the image is certified
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(5))
    x0, x1, x2, x3 = R.variables()
    X = Ideal(R, (x1 * x1 - x0 * x2, x1 * x2 - x0 * x3, x2 * x2 - x1 * x3))
    V = forms(x0, x1, x2, x3)
    rep, events = _certified_search(monkeypatch, ProjectionSpec(X, V), K)
    times, times_events = _certified_search(
        monkeypatch, ProjectionSpec(X.times(Ideal(R, R.variables())), V), K)
    assert _fibers(times) == _fibers(rep)
    assert (len(rep.fibers), rep.empty_fibers) == (nonempty, empty)
    assert times.empty_fibers == empty
    for seen, failed in ((events, uncertified),
                         (times_events, nonempty + empty)):
        outcomes = [e for e in seen if e != "saturate"]
        assert seen == [e for ok in outcomes
                        for e in ((ok,) if ok else (ok, "saturate"))]
        assert len(outcomes) == nonempty + empty
        assert outcomes.count(False) == failed


def _regularity_by_doubling(Z):
    """(degree, regularity) of a saturated ideal of points the long way:
    the first degree e where the Hilbert function reaches the degree,
    searched in windows 0..4, 0..8, ..., gives regularity e + 1."""
    assert quotient_dimension(Z) == 1
    deg = quotient_degree(Z)
    bound = 4
    while bound <= 1 << 16:
        h = hilbert_function(Z, bound)
        for e in range(bound + 1):
            if h.value(e) == deg:
                return deg, e + 1
        bound *= 2
    raise AssertionError("Hilbert function never reached the degree")


def _random_form(R, d, rng):
    """Dense random form of degree d, nonzero."""
    field = R.field
    while True:
        f = R.poly({e: FieldElement(field, field.random(rng))
                    for e in degree_monomials(R.nvars, d)})
        if not f.is_zero():
            return f


def _random_finite_projections(field, rng):
    """Seeded finite projections.  To P^1: plane curves of degree 3 and 6,
    a quartic with a doubled line, and the intersection of two quadrics in
    P^3.  To P^2, from a point of P^3: the twisted cubic and the
    intersection of two quadrics.  The linear forms are random and
    independent."""
    plane = PolyRing(("x", "y", "z"), field=field)
    space = PolyRing(("x", "y", "z", "w"), field=field)
    x, y, z, w = space.variables()
    cubic = (x * z - y * y, x * w - y * z, y * w - z * z)
    kinds = [  # (s, draw of the ring and generators of X)
        (1, lambda: (plane, (_random_form(plane, 3, rng),))),
        (1, lambda: (plane, (_random_form(plane, 6, rng),))),
        (1, lambda: (plane, (_random_form(plane, 1, rng) ** 2
                             * _random_form(plane, 2, rng),))),
        (1, lambda: (space, (_random_form(space, 2, rng),
                             _random_form(space, 2, rng)))),
        (2, lambda: (space, cubic)),
        (2, lambda: (space, (_random_form(space, 2, rng),
                             _random_form(space, 2, rng)))),
    ]
    specs = []
    for s, make in kinds:
        while True:
            R, gens = make()
            forms = tuple(_random_form(R, 1, rng) for _ in range(s + 1))
            try:
                spec = ProjectionSpec(Ideal(R, gens), forms)
            except UsageError:  # dependent forms
                continue
            if check_finite(spec).finite:
                specs.append(spec)
                break
    return specs


@pytest.mark.parametrize("p,K,seed", [(2, 1, 111), (3, 1, 112), (5, 2, 113),
                                      (7, 1, 114)])
def test_fiber_regularity_matches_the_hilbert_function_oracles(p, K, seed):
    # on every fiber of seeded projections to P^1 and P^2, degree and
    # regularity read off the numerator equal the doubling search of the
    # Hilbert function, and that Hilbert function equals ranks of the
    # degree-d pieces; with K = 2 over GF(5) the degree-2 points give
    # fibers over GF(5^2)
    rng = random.Random(seed)
    fields = set()
    regs = set()
    for spec in _random_finite_projections(GF(p), rng):
        rep = max_fiber_regularity(spec, K=K)
        for fib in rep.fibers:
            Z = fib.ideal
            field = Z.ring.field
            fields.add(field.order if field.k > 1 else field.p)
            # the s linear forms as built stand in for the reduced ones
            # of the fiber's basis, and the rest of the basis follows
            assert [g.degree() for g in Z.gens[:spec.s]] == [1] * spec.s
            assert len(Z.gens) == len(Z.groebner_basis())
            deg, reg = fiber_regularity(Z)
            assert (deg, reg) == (fib.degree, fib.regularity)
            assert (deg, reg) == _regularity_by_doubling(Z)
            regs.add(reg)
            h = hilbert_function(Z, reg + 1)
            dense = [poly_to_dense(g) for g in Z.gens]
            min_poly = field.min_poly if field.k > 1 else None
            for d in range(reg + 2):
                assert h.value(d) == hilbert_by_rank(
                    p, Z.ring.nvars, dense, d, min_poly), (spec.ideal, d)
    assert fields == ({p, p * p} if K == 2 else {p})
    assert max(regs) == 6 and len(regs) > 2  # the window doubled once


# --- binary forms ---


def test_binary_gcd_fixtures():
    R = ring2()
    x, y = R.variables()
    assert binary_gcd((x**3 * y, x**2 * y**2)) == x**2 * y
    assert binary_gcd((x * x - y * y, x * x + x * y)) == x + y
    assert binary_gcd((x * x, y * y)).degree() == 0
    assert binary_gcd((x.scale(3),)) == x
    with pytest.raises(UsageError):
        binary_gcd((R.zero(),))


def test_binary_gcd_product_property():
    R = ring2()
    x, y = R.variables()
    samples = [x + y, x - y, x, y, x + y.scale(3)]
    for i, a in enumerate(samples):
        for b in samples[i + 1:]:
            common = (x + y.scale(2)) ** 2
            g = binary_gcd((a * common, b * common))
            # gcd contains the common factor; a and b here are coprime
            assert g == common.monic() * binary_gcd((a, b))


def test_twovars_r_fixtures():
    R = ring2(101)
    x, y = R.variables()
    two = twovars_r((x * x, y * y))
    assert (two.d, two.dim_V, two.r) == (2, 2, 2)
    full = twovars_r((x * x, x * y, y * y))
    assert (full.d, full.dim_V, full.r) == (2, 3, 1)
    assert full.witness_gcd.degree() == 1
    cuspish = twovars_r((x**3, x * x * y, y**3))
    assert (cuspish.d, cuspish.r) == (3, 2)
    assert cuspish.witness_gcd == x * x
    for f in cuspish.witness:
        assert f.homogeneous_degree() == 3
        # the witness basis really is divisible by the witness gcd
        assert binary_gcd((f, cuspish.witness_gcd)) == cuspish.witness_gcd


def test_twovars_r_validation():
    R = ring2(101)
    x, y = R.variables()
    with pytest.raises(UsageError):
        twovars_r((x * x,))  # dim V < 2
    with pytest.raises(UsageError):
        twovars_r((x * x, x * x + y * y, y * y, x * y))  # dependent
    with pytest.raises(UsageError):
        twovars_r((x * x, x * y))  # gcd is x, not 1
    with pytest.raises(UsageError):
        twovars_r((x * x, y))  # mixed degrees
    R3 = PolyRing(("x", "y", "z"), field=GF(101))
    with pytest.raises(UsageError):
        twovars_r((R3.variable(0) ** 2, R3.variable(1) ** 2))


def test_twovars_budget_carries_partial_report():
    R = ring2(101)
    x, y = R.variables()
    with pytest.raises(BudgetError) as exc:
        twovars_r((x**3, x * x * y, y**3), budget=1)
    partial = exc.value.partial
    assert partial.r == 1  # the first dual point only reaches gcd degree 1
    assert messages.partial_lower_bound() in partial.warnings


def _random_binary_form(R, d, rng):
    """Dense random form of degree d whose coefficient of x^d or of y^d is
    sometimes zero, so that it has y- or x-content."""
    field = R.field
    while True:
        coeffs = [field.random(rng) for _ in range(d + 1)]
        if rng.random() < 0.3:
            coeffs[d] = field.zero
        if rng.random() < 0.3:
            coeffs[0] = field.zero
        f = R.poly({(i, d - i): FieldElement(field, c)
                    for i, c in enumerate(coeffs)})
        if f:
            return f


def _rank(field, rows) -> int:
    """The rank of a matrix given by dense rows of raw values."""
    return len(_rref(field, [_sparse(r) for r in rows]))


def _random_normalized_point(field, n, rng):
    while True:
        raw = [field.random(rng) for _ in range(n)]
        nonzero = [c for c in raw if c != field.zero]
        if nonzero:
            inv = field.inv(nonzero[0])
            return tuple(field.mul(inv, c) for c in raw)


@pytest.mark.parametrize("p,k,seed", [(2, 1, 41), (101, 1, 42), (5, 2, 43),
                                      (3, 3, 44)])
def test_hyperplane_gcd_degree_matches_binary_gcd(p, k, seed):
    # the coefficient-row kernel of twovars_r against binary_gcd on the
    # Polynomial basis, at every dual point scanned (all of them when there
    # are at most about 800, else a seeded sample of 300)
    rng = random.Random(seed)
    R = PolyRing(("x", "y"), field=GF(p, k))
    field = R.field
    seen = {"x-content": 0, "y-content": 0, "common factor": 0}
    systems = 0
    while systems < 6:
        m = rng.choice((3, 4))
        e = rng.randint(m - 1, 5)
        forms = [_random_binary_form(R, e, rng) for _ in range(m)]
        kind = systems % 3
        if kind:
            # a common factor of degree 1-3 with x-content (kind 1) or
            # y-content (kind 2)
            common = _random_binary_form(R, rng.randint(0, 2), rng)
            forms = [f * common * R.variable(kind - 1) for f in forms]
        d = forms[0].degree()
        rows = [_coefficient_row(f, d) for f in forms]
        if _rank(field, rows) != m:
            continue
        systems += 1
        if field.order ** (m - 1) <= 800:
            points = list(_normalized_points(field, m - 1))
        else:
            points = [_random_normalized_point(field, m, rng)
                      for _ in range(300)]
        for coords in points:
            i0 = coords.index(field.one)
            basis = [forms[j] - forms[i0].scale(FieldElement(field, c))
                     for j, c in enumerate(coords) if j != i0]
            gg = binary_gcd(basis)
            deg = _hyperplane_gcd_degree(field, rows, coords)
            assert deg == gg.degree(), (forms, coords)
            top = gg.degree()
            seen["x-content"] += gg.coefficient((0, top)).is_zero()
            seen["y-content"] += gg.coefficient((top, 0)).is_zero()
            seen["common factor"] += top > 0
    assert all(seen.values()), seen


def test_twovars_r_lifts_once_and_builds_bases_only_for_witnesses(monkeypatch):
    lifts = []
    gcds = []
    lift, gcd = geometry.lift_polynomial, geometry.binary_gcd

    def counted_lift(f, target):
        lifts.append(target.field.k)
        return lift(f, target)

    def counted_gcd(forms):
        gcds.append(len(forms))
        return gcd(forms)

    monkeypatch.setattr(geometry, "lift_polynomial", counted_lift)
    monkeypatch.setattr(geometry, "binary_gcd", counted_gcd)
    over101 = parse_session(
        "ring p=101 vars=x,y\n"
        "forms cuspish = x^3, x^2*y, y^3\n"
        "forms quartics = 17*x^4 + 3*x^3*y + 58*x^2*y^2 + 90*x*y^3 + 41*y^4, "
        "5*x^4 + 77*x^3*y + 12*x*y^3 + 64*y^4, "
        "33*x^3*y + 2*x^2*y^2 + 71*x*y^3 + 9*y^4\n").forms
    over3 = parse_session(
        "ring p=3 vars=x,y\n"
        "forms quartics = x^4 + x^3*y + 2*x^2*y^2 + 2*x*y^3 + y^4, "
        "x^3*y + x^2*y^2 + x*y^3, 2*x^3*y + x^2*y^2 + 2*x*y^3 + y^4\n").forms
    # the quartics scan every dual point (r stays below the ceiling 3),
    # over GF(3) through the extension degrees 2 and 3 as well
    for forms, K in ((over101["quartics"], 1), (over101["cuspish"], 1),
                     (over3["quartics"], 3)):
        lifts.clear()
        gcds.clear()
        rep = twovars_r(forms, K)
        m = len(forms)
        for k in range(1, K + 1):
            assert lifts.count(k) <= m, (k, lifts)
        assert len(gcds) <= rep.d + 2, len(gcds)


def _system(R, m, rng, make):
    """m forms from make(rng) that are independent with gcd 1."""
    while True:
        forms = make(rng)
        d = forms[0].degree()
        rows = [_coefficient_row(f, d) for f in forms]
        if (len(forms) == m and _rank(R.field, rows) == m
                and binary_gcd(forms).degree() == 0):
            return forms


def _forms_in_powers(R, m, e, power, rng):
    """m random forms of degree e in x^power, y^power: f(x^power, y^power)
    for random binary forms f, built by scaling exponents."""
    out = []
    for _ in range(m):
        f = _random_binary_form(R, e, rng)
        out.append(R.poly({tuple(power * a for a in exps):
                           FieldElement(R.field, c)
                           for exps, c in f.sorted_terms()}))
    return out


def _twovars_cases(R, m, rng):
    """(kind, forms) for each kind of system of m forms over R."""
    p = R.field.p

    def common_factor(r):
        # the first m - 1 forms, a hyperplane of V, share a factor h
        h = _random_binary_form(R, r.randint(1, 2), r)
        shared = [h * _random_binary_form(R, m, r) for _ in range(m - 1)]
        return shared + [_random_binary_form(R, m + h.degree(), r)]

    makers = [
        ("random",
         lambda r: [_random_binary_form(R, m + 1, r) for _ in range(m)]),
        ("common factor", common_factor),
        # phi factors through (x:y) -> (x^2:y^2), so every fiber has
        # length at least 2
        ("non-birational", lambda r: _forms_in_powers(R, m, m - 1, 2, r)),
    ]
    if p in (2, 3):
        # phi factors through the Frobenius (x:y) -> (x^p:y^p)
        makers.append(("inseparable",
                       lambda r: _forms_in_powers(R, m, m - 1, p, r)))
    return [(kind, _system(R, m, rng, make)) for kind, make in makers]


@pytest.mark.parametrize("p,k", [(2, 1), (101, 1), (2, 3), (3, 2), (5, 2)])
def test_restricted_coefficients_match_field_arithmetic(p, k):
    # the coefficients of h(c_3) = F(c_1, c_2, c_3), read off _line_values
    # as one column, against the field's own add and mul, for F over GF(p),
    # each first coordinate c_1 of a normalized point (raw 0 and 1) and
    # every c_2, zero included
    field = GF(p, k)
    rng = random.Random(97 * p + k)
    elems = list(field.elements())
    for d in (1, 3, 4):
        form = {}
        for a in range(d + 1):
            for b in range(d + 1 - a):
                if rng.random() < 0.7:
                    form[(a, b, d - a - b)] = rng.randrange(1, p)
        lifted = {e: field.coerce(v) for e, v in form.items()}
        for c1 in (field.zero, field.one):
            table = _line_values(field, form, d, c1, field.values(d))
            for column, c2 in enumerate(elems):
                want = [field.zero] * (d + 1)
                for (a, b, c), v in lifted.items():
                    term = field.mul(v, field.mul(field.pow_(c1, a),
                                                  field.pow_(c2, b)))
                    want[c] = field.add(want[c], term)
                assert [row[column] for row in table] == want, (d, c1, c2)


@pytest.mark.parametrize("p,k,seed", [(2, 1, 81), (3, 1, 82), (5, 2, 83),
                                      (101, 1, 84)])
def test_image_curve_form_vanishes_where_a_hyperplane_has_a_gcd(p, k, seed):
    # soundness of the image-curve filter: F is built over GF(p) from
    # f_1, f_2, f_3, and at every dual point over GF(p^k) whose hyperplane
    # has a gcd of positive degree (all points when there are at most about
    # 800, else a seeded sample of 300, half of them images phi(1:t)) it
    # vanishes at (c_1, c_2, c_3)
    rng = random.Random(seed)
    R = ring2(p)
    big = PolyRing(R.names, GF(p, k), R.order)
    field = big.field
    positive = {}
    for m in (3, 4):
        for kind, forms in _twovars_cases(R, m, rng):
            d = forms[0].degree()
            rows = [_coefficient_row(f, d) for f in forms]
            form, _ = _image_curve_form(R.field, rows[:3], d)
            # F(f_1, f_2, f_3) = 0, in Polynomial arithmetic
            total = R.zero()
            for (a, b, c), v in form.items():
                total = total + (forms[0]**a * forms[1]**b
                                 * forms[2]**c).scale(v)
            assert form and total.is_zero(), (kind, forms)
            zeros = field.zero_scan(d)
            tables = {c1: _line_values(field, form, d, c1, field.values(d))
                      for c1 in (field.zero, field.one)}
            index = {a: i for i, a in enumerate(field.elements())}
            lifted = [lift_polynomial(f, big) for f in forms]
            if field.order ** (m - 1) <= 800:
                points = list(_normalized_points(field, m - 1))
            else:
                points = [_random_normalized_point(field, m, rng)
                          for _ in range(150)]
                for _ in range(150):
                    t = field.random(rng)
                    image = [field.zero] * m
                    for j, f in enumerate(lifted):
                        for exps, c in f.sorted_terms():
                            term = field.mul(c, field.pow_(t, exps[0]))
                            image[j] = field.add(image[j], term)
                    inv = field.inv(next(c for c in image if c != field.zero))
                    points.append(tuple(field.mul(inv, c) for c in image))
            for coords in points:
                i0 = coords.index(field.one)
                basis = [lifted[j] - lifted[i0].scale(FieldElement(field, c))
                         for j, c in enumerate(coords) if j != i0]
                if binary_gcd(basis).degree() > 0:
                    h = [row[index[coords[1]]] for row in tables[coords[0]]]
                    assert coords[2] in zeros(h), (kind, forms, coords)
                    positive[kind, m] = positive.get((kind, m), 0) + 1
    kinds = {"random", "common factor", "non-birational"}
    if p in (2, 3):
        kinds.add("inseparable")
    assert set(positive) == {(kind, m) for kind in kinds for m in (3, 4)}, \
        positive


def _unfiltered_twovars(forms, K, budget):
    """(r, witness, witness gcd, exhausted) of the dual-point scan with the
    gcd kernel at every point: the scan of twovars_r without the image-curve
    filter."""
    ring = forms[0].ring
    d = forms[0].degree()
    m = len(forms)
    ceiling = max(0, d - m + 2)
    best, witness, witness_gcd = -1, None, None
    k = 0
    points = _closed_point_coords(ring.field.p, K, m - 1)
    for count, (field, coords) in enumerate(points):
        if count >= budget:
            return best, witness, witness_gcd, True
        if field.k != k:
            k = field.k
            big = PolyRing(ring.names, field, ring.order)
            lifted = [lift_polynomial(f, big) for f in forms]
            rows = [_coefficient_row(f, d) for f in lifted]
        deg = _hyperplane_gcd_degree(field, rows, coords)
        if deg > best:
            i0 = coords.index(field.one)
            witness = tuple(lifted[j]
                            - lifted[i0].scale(FieldElement(field, c))
                            for j, c in enumerate(coords) if j != i0)
            witness_gcd = binary_gcd(witness)
            best = deg
            if best >= ceiling:
                break
    return best, witness, witness_gcd, False


@pytest.mark.parametrize("p,K,m,seed", [(2, 3, 4, 91), (3, 3, 3, 92),
                                        (3, 2, 4, 93), (5, 2, 3, 94),
                                        (7, 1, 4, 95), (11, 1, 3, 96)])
def test_filtered_twovars_matches_the_unfiltered_scan(p, K, m, seed,
                                                      monkeypatch):
    # r, witness and witness gcd of twovars_r against the kernel at every
    # dual point, and the partial reports at budgets from the first point,
    # around N^2/2 points (N = (d+1)(d+2)/2), in the middle and past the end
    # of the scan
    kernel_calls = []
    kernel = geometry._hyperplane_gcd_degree

    def counted_kernel(field, rows, coords):
        kernel_calls.append(coords)
        return kernel(field, rows, coords)

    monkeypatch.setattr(geometry, "_hyperplane_gcd_degree", counted_kernel)
    rng = random.Random(seed)
    R = ring2(p)
    total = sum(1 for _ in _closed_point_coords(p, K, m - 1))
    skipped = 0
    for kind, forms in _twovars_cases(R, m, rng):
        d = forms[0].degree()
        n = (d + 1) * (d + 2) // 2
        lazy = n * n // 2
        budgets = [1, lazy - 1, lazy + 1, (lazy + total) // 2, total + 1]
        for budget in budgets:
            want = _unfiltered_twovars(forms, K, budget)
            kernel_calls.clear()
            try:
                rep = twovars_r(forms, K, budget)
                exhausted = False
            except BudgetError as exc:
                rep = exc.partial
                exhausted = True
            got = (rep.r, rep.witness, rep.witness_gcd, exhausted)
            assert got == want, (kind, forms, budget)
            if not exhausted and rep.r < max(0, d - m + 2):
                skipped += total - len(kernel_calls)
    # the filter ran and skipped points in at least one full scan
    assert skipped > 0


def _rational_normal_curve_projection(forms):
    """The rational normal curve of degree d in P^d, cut out by the 2x2
    minors of its Hankel matrix, with the linear forms whose coefficient
    vectors are the coefficient rows of the degree-d binary forms: through
    z_i = x^i y^(d-i), its fibers over P^(m-1) are those of (f_1:...:f_m)."""
    d = forms[0].degree()
    names = tuple(f"z{i}" for i in range(d + 1))
    R = PolyRing(names, field=forms[0].ring.field)
    z = R.variables()
    minors = [z[i] * z[j + 1] - z[i + 1] * z[j]
              for i in range(d) for j in range(i + 1, d)]
    linear = []
    for f in forms:
        L = R.zero()
        for i, c in enumerate(_coefficient_row(f, d)):
            L = L + z[i].scale(c)
        linear.append(L)
    return ProjectionSpec(Ideal(R, minors), linear)


@pytest.mark.parametrize("p,K,max_m,seed", [(2, 1, 4, 101), (2, 2, 4, 102),
                                            (3, 1, 4, 103), (3, 2, 3, 104)])
def test_twovars_r_is_the_largest_fiber_of_the_rational_normal_curve(
        p, K, max_m, seed):
    # an independent route to r: saturated fiber ideals and their Hilbert
    # functions (max_fiber_regularity) instead of gcds of binary forms
    rng = random.Random(seed)
    R = ring2(p)
    x, y = R.variables()
    systems = [(x**3, x * x * y, y**3)]
    for m in range(3, max_m + 1):
        # degree at most 5 keeps the curve in at most 6 variables
        systems += [forms for _, forms in _twovars_cases(R, m, rng)
                    if forms[0].degree() <= 5]
    for forms in systems:
        rep = max_fiber_regularity(_rational_normal_curve_projection(forms),
                                   K=K)
        r = twovars_r(forms, K).r
        assert r == max(f.degree for f in rep.fibers), forms


def test_twovars_r_runs_the_kernel_only_on_the_image_curve(monkeypatch):
    # after the first point the kernel runs only where the image-curve form
    # vanishes, at most about 2(p + 1) points of P^2(GF(101)); the full scan
    # visits 10,303
    calls = []
    kernel = geometry._hyperplane_gcd_degree

    def counted_kernel(field, rows, coords):
        calls.append(coords)
        return kernel(field, rows, coords)

    monkeypatch.setattr(geometry, "_hyperplane_gcd_degree", counted_kernel)
    forms = parse_session(
        "ring p=101 vars=x,y\n"
        "forms quartics = 17*x^4 + 3*x^3*y + 58*x^2*y^2 + 90*x*y^3 + 41*y^4, "
        "5*x^4 + 77*x^3*y + 12*x*y^3 + 64*y^4, "
        "33*x^3*y + 2*x^2*y^2 + 71*x*y^3 + 9*y^4\n").forms["quartics"]
    rep = twovars_r(forms, 1)
    assert rep.r == 2 < rep.d - 1  # below the ceiling: every point visited
    assert len(calls) <= 1 + 2 * (101 + 1), len(calls)


def test_twovars_verify_fixtures():
    R = ring2(101)
    x, y = R.variables()
    m2 = twovars_verify((x * x, x * y, y * y), t_max=4)
    assert m2.r == 1
    assert m2.equality_on_stable_rows is True
    for row in m2.rows:
        assert row.reg_power == 2 * row.t
        assert row.predicted == 2 * row.t
    squares = twovars_verify((x * x, y * y), t_max=4)
    assert squares.r == 2
    assert squares.equality_on_stable_rows is True
    for row in squares.rows:
        assert row.reg_power == 2 * row.t + 1
    assert squares.report is not None
    assert squares.report.dim_V == 2


def test_a_root_ceiling_bounds_every_derived_basis():
    # the ceiling set on the ideal a computation starts from reaches the
    # powers, sums and fibers built from it
    R = ring2(101)
    x, y = R.variables()
    I = Ideal(R, (x * x + y * y, x * y), degree_ceiling=2)
    with pytest.raises(DegreeCeilingError, match="ceiling 2"):
        power_table(I, 2)
    # I's own basis fits under 5, the basis of I^2 does not
    hard = Ideal(R, (x**3 - x * y * y, x * x * y + y**3), degree_ceiling=5)
    hard.groebner_basis()
    with pytest.raises(DegreeCeilingError, match="degree 7 exceeds the "
                                                 "degree ceiling 5"):
        power_table(hard, 2, route="hilbert")
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(11))
    x0, x1, x2, x3 = R.variables()
    I_X = Ideal(R, (x0 * x2 - x1 * x1, x0 * x3 - x1 * x2, x1 * x3 - x2 * x2),
                degree_ceiling=2)
    forms = (x0 + x1.scale(2) + x2.scale(3) + x3.scale(4),
             x1 + x2.scale(5) + x3.scale(9))
    with pytest.raises(DegreeCeilingError, match="ceiling 2"):
        epsilon_containment(I_X, forms, 3)
    with pytest.raises(DegreeCeilingError, match="ceiling 2"):
        max_fiber_regularity(ProjectionSpec(I_X, forms), K=1)
    R = ring2(101)
    x, y = R.variables()
    with pytest.raises(DegreeCeilingError, match="ceiling 2"):
        twovars_verify((x**4, x * x * y * y + y**4, x * y**3), 3, K=1,
                       degree_ceiling=2)


def _closed_points_by_full_orbit(p, K, s):
    """(k, coords) of each closed point, by building every Frobenius orbit."""
    out = []
    for k in range(1, K + 1):
        field = GF(p, k)
        for coords in _normalized_points(field, s):
            orbit = [coords]
            cur = coords
            while True:
                cur = tuple(field.frobenius(c) for c in cur)
                if cur == coords:
                    break
                orbit.append(cur)
            if len(orbit) == k and coords == min(
                    orbit, key=lambda c: _power_basis(field, c)):
                out.append((k, coords))
    return out


@pytest.mark.parametrize("p,K,s", [(2, 3, 3), (3, 3, 2), (3, 2, 3),
                                   (5, 3, 1), (5, 2, 2)])
def test_closed_points_match_the_full_orbit_reference(p, K, s):
    got = [(field.k, coords) for field, coords in _closed_point_coords(p, K, s)]
    assert got == _closed_points_by_full_orbit(p, K, s)


def _start_prefixes(field, s):
    """The prefixes _point_blocks starts from: (1, c) for every c, then the
    normalized (0, ..., 0, 1) of each length from 2."""
    one, zero = field.one, field.zero
    starts = {(one, c) for c in field.elements()} if s else set()
    return starts | {(zero,) * i0 + (one,)
                     for i0 in range(1 if s else 0, s + 1)}


def _frobenius_power(field, coords, i):
    """phi^i(coords)."""
    for _ in range(i):
        coords = tuple(field.frobenius(c) for c in coords)
    return coords


@pytest.mark.parametrize("p,K,s", [(5, 3, 2), (2, 4, 2), (7, 2, 2),
                                   (3, 3, 3), (2, 3, 0)])
def test_point_blocks_hold_exactly_the_orbit_representatives(p, K, s):
    # the blocks, flattened, are the full-orbit reference; every block's
    # prefix lies strictly below its Frobenius images, and a block that is
    # not a starting block comes from splitting a prefix that some phi^i
    # fixes
    got = []
    for field, elems, prefix, width in geometry._point_blocks(p, K, s):
        assert elems == list(field.elements())
        assert all(_power_basis(field, _frobenius_power(field, prefix, i))
                   > _power_basis(field, prefix)
                   for i in range(1, field.k)), prefix
        if prefix not in _start_prefixes(field, s):
            parent = prefix[:-1]
            assert any(_frobenius_power(field, parent, i) == parent
                       for i in range(1, field.k)), prefix
        got += [(field.k, prefix + tail)
                for tail in itertools.product(elems, repeat=width)]
    assert got == _closed_points_by_full_orbit(p, K, s)


def test_closed_points_of_degree_three_split_only_fixed_prefixes(monkeypatch):
    # four quintics over GF(3), K = 3: the scan walks the 7,230 closed
    # points of P^3 in 204 blocks, tabulates the Frobenius map once per
    # extension degree (one call per element), and splits a block towards
    # single points only when its starting prefix is fixed by some phi^i
    calls = {}
    frobenius = ExtensionField.frobenius

    def counted(field, a):
        calls[field.k] = calls.get(field.k, 0) + 1
        return frobenius(field, a)

    monkeypatch.setattr(ExtensionField, "frobenius", counted)
    rng = random.Random(5)
    R = ring2(3)
    forms = _system(R, 4, rng, lambda r: [_random_binary_form(R, 5, r)
                                          for _ in range(4)])
    assert [f.degree() for f in forms] == [5] * 4
    assert twovars_r(forms, 3).r == 2
    assert calls == {2: 9, 3: 27}
    calls.clear()
    blocks = list(geometry._point_blocks(3, 3, 3))
    assert calls == {2: 9, 3: 27}
    assert sum(len(elems) ** width for _, elems, _, width in blocks) == 7230
    assert len(blocks) == 204
    for field, elems, prefix, width in blocks:
        starts = _start_prefixes(field, 3)
        root = next(prefix[:n] for n in range(2, 5) if prefix[:n] in starts)
        if root != prefix:
            assert any(_frobenius_power(field, root, i) == root
                       for i in range(1, field.k)), prefix


def _counted_zero_scans(monkeypatch):
    """{extension degree: zero passes}, filled as the scan runs."""
    passes = {}
    for cls in (PrimeField, ExtensionField):
        def zero_scan(field, d, scan=cls.zero_scan):
            zeros = scan(field, d)

            def counted(coeffs):
                passes[field.k] = passes.get(field.k, 0) + 1
                return zeros(coeffs)

            return counted

        monkeypatch.setattr(cls, "zero_scan", zero_scan)
    return passes


QUARTICS_101 = (
    "ring p=101 vars=x,y\n"
    "forms quartics = 17*x^4 + 3*x^3*y + 58*x^2*y^2 + 90*x*y^3 + 41*y^4, "
    "5*x^4 + 77*x^3*y + 12*x*y^3 + 64*y^4, "
    "33*x^3*y + 2*x^2*y^2 + 71*x*y^3 + 9*y^4\n")


def test_twovars_scan_runs_one_zero_pass_per_leading_pair(monkeypatch):
    # m = 3: at most q + 2 zero passes per extension degree, over GF(q) =
    # GF(p^k): one per leading pair (1, c), (0, 1) and (0, 0)
    passes = _counted_zero_scans(monkeypatch)
    forms = parse_session(QUARTICS_101).forms["quartics"]
    assert twovars_r(forms, 1).r == 2
    assert passes == {1: 101 + 2}
    passes.clear()
    rng = random.Random(7)
    R = ring2(3)
    for kind, forms in _twovars_cases(R, 3, rng):
        passes.clear()
        rep = twovars_r(forms, 3)
        for k, n in passes.items():
            assert n <= 3**k + 2, (kind, passes)
        if rep.r < forms[0].degree() - 1:
            assert set(passes) == {1, 2, 3}, (kind, passes)


def test_twovars_budgets_around_a_line_boundary_match_the_unfiltered_scan():
    # over GF(101) a block is a line of 101 dual points; a budget at a line
    # boundary and one point either side of it, at the first line, in the
    # middle and at the last two blocks, stops where the full scan stops
    forms = parse_session(QUARTICS_101).forms["quartics"]
    total = 101 * 101 + 101 + 1
    for budget in (100, 101, 102, 5049, 5050, 5051,
                   total - 2, total - 1, total, total + 1):
        want = _unfiltered_twovars(forms, 1, budget)
        try:
            rep = twovars_r(forms, 1, budget)
            exhausted = False
        except BudgetError as exc:
            rep = exc.partial
            exhausted = True
            assert str(exc) == (f"subspace budget {budget} exhausted after "
                                f"{budget} points")
        assert (rep.r, rep.witness, rep.witness_gcd, exhausted) == want, \
            budget
        assert exhausted == (budget < total)


def _counted_scan(monkeypatch):
    """{"kernel": gcd kernel calls, "on curve": dual points the image-curve
    filter passes on to twovars_r}, filled as the scan runs."""
    counts = {"kernel": 0, "on curve": 0}
    kernel = geometry._hyperplane_gcd_degree
    scan = geometry._curve_scan

    def counted_kernel(field, rows, coords):
        counts["kernel"] += 1
        return kernel(field, rows, coords)

    def counted_scan(*args):
        for item in scan(*args):
            counts["on curve"] += item[2] is not None
            yield item

    monkeypatch.setattr(geometry, "_hyperplane_gcd_degree", counted_kernel)
    monkeypatch.setattr(geometry, "_curve_scan", counted_scan)
    return counts


def _nullity(forms):
    """The dimension of the degree-d forms vanishing on the image curve of
    the first three forms."""
    d = forms[0].degree()
    return _image_curve_form(forms[0].ring.field,
                             [_coefficient_row(f, d) for f in forms[:3]],
                             d)[1]


def _scan_outcome(forms, K, budget):
    """(r, witness, witness gcd, exhausted) of twovars_r, as
    _unfiltered_twovars gives them."""
    try:
        rep = twovars_r(forms, K, budget)
        exhausted = False
    except BudgetError as exc:
        rep = exc.partial
        exhausted = True
    return rep.r, rep.witness, rep.witness_gcd, exhausted


@pytest.mark.parametrize("p,K,m,d,seed", [(2, 3, 3, 5, 101), (3, 2, 3, 4, 102),
                                          (3, 2, 3, 6, 103), (5, 2, 3, 4, 104),
                                          (2, 3, 4, 4, 105), (7, 1, 4, 7, 106),
                                          (3, 2, 4, 6, 107)])
def test_singular_filter_matches_the_unfiltered_scan(p, K, m, d, seed,
                                                     monkeypatch):
    # random systems whose image curve has a unique degree-d form, over
    # GF(2), GF(3) and GF(5^2) points, three of them with p | d: r,
    # witness, witness gcd and budget outcome against the kernel at every
    # dual point, at budgets from the first point to past the end; the
    # kernel runs at fewer points than the image-curve filter passes on
    counts = _counted_scan(monkeypatch)
    rng = random.Random(seed)
    R = ring2(p)
    total = sum(1 for _ in _closed_point_coords(p, K, m - 1))
    skipped = 0
    systems = 0
    while systems < 3:
        forms = _system(R, m, rng, lambda r: [_random_binary_form(R, d, r)
                                              for _ in range(m)])
        if _nullity(forms) != 1:
            continue
        systems += 1
        for budget in (1, 2, total // 3, total // 2, total - 1, total + 1):
            want = _unfiltered_twovars(forms, K, budget)
            counts.update({"kernel": 0, "on curve": 0})
            assert _scan_outcome(forms, K, budget) == want, (forms, budget)
            assert counts["kernel"] <= counts["on curve"]
            if not want[3] and want[0] < max(0, d - m + 2):
                skipped += counts["on curve"] - counts["kernel"]
    assert skipped > 0


def _non_birational_cases(p, rng):
    """(kind, forms) of systems whose image curve has more than one
    degree-d form: phi factors through (x^e:y^e), e = 2, or the Frobenius
    e = p, for m = 3; for m = 4 only the first three forms do, so that phi
    itself can be birational with a fiber of length 2 at a smooth point of
    the first three forms' image."""
    R = ring2(p)
    cases = [("squares", _system(R, 3, rng, lambda r: _forms_in_powers(
        R, 3, 2, 2, r)))]
    if p in (2, 3):
        cases.append(("frobenius", _system(R, 3, rng, lambda r:
                                           _forms_in_powers(R, 3, 2, p, r))))
    cases.append(("squares, then a general form", _system(
        R, 4, rng, lambda r: _forms_in_powers(R, 3, 2, 2, r)
        + [_random_binary_form(R, 4, r)])))
    return cases


@pytest.mark.parametrize("p,K,seed", [(2, 3, 111), (3, 2, 112), (5, 1, 113),
                                      (7, 1, 114)])
def test_singular_filter_skips_nothing_unless_the_curve_form_is_unique(
        p, K, seed, monkeypatch):
    # when the degree-d forms on the image curve span more than one
    # dimension, the kernel runs at every point the image-curve filter
    # passes on, and the scan equals the unfiltered one; with four forms
    # whose first three factor through (x^2:y^2), some seeds reach r = 2
    # only at a simple root of h
    counts = _counted_scan(monkeypatch)
    rng = random.Random(seed)
    found = set()
    for kind, forms in _non_birational_cases(p, rng):
        assert _nullity(forms) > 1, (kind, forms)
        counts.update({"kernel": 0, "on curve": 0})
        want = _unfiltered_twovars(forms, K, 10**6)
        assert _scan_outcome(forms, K, 10**6) == want, (kind, forms)
        assert counts["kernel"] == counts["on curve"], (kind, counts)
        found.add((kind, want[0]))
    assert ("squares, then a general form", 2) in found or p == 2, found


def test_singular_filter_leaves_the_quartics_few_kernel_calls(monkeypatch):
    # over GF(101) the quartics' image curve is a plane quartic with a
    # unique equation: past the first witness the kernel runs only at its
    # singular points and on the lines with c_1 = c_2 = 0
    counts = _counted_scan(monkeypatch)
    forms = parse_session(QUARTICS_101).forms["quartics"]
    assert _nullity(forms) == 1
    assert twovars_r(forms, 1).r == 2
    assert counts["kernel"] <= 10, counts
    assert counts["on curve"] > 100, counts
