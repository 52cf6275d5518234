import random

import pytest

from cmreg.errors import ExponentOverflowError, ResourceError, UsageError
from cmreg.fields import GF, FieldElement
from cmreg.orders import (EXPONENT_LIMIT, GREVLEX, GRLEX, LEX,
                          EliminationOrder, MonomialOrder)
from cmreg.groebner import Ideal, _aux_ring, _project_down, _shift_up
from cmreg.polynomials import PolyRing, lift_polynomial

from oracle import poly_text


def ring3(p=7, order=None):
    return PolyRing(("x", "y", "z"), field=GF(p), order=order)


def random_poly(ring, rng, max_deg=4, max_terms=6):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(ring.nvars))
        terms[exps] = rng.randrange(ring.field.p)
    return ring.poly(terms)


def test_ring_constructors_and_equality():
    R = ring3()
    assert R.nvars == 3
    assert R == PolyRing(("x", "y", "z"), field=GF(7))
    assert R != PolyRing(("x", "y", "z"), field=GF(11))
    assert R != PolyRing(("x", "y", "z"), field=GF(7), order=MonomialOrder(LEX, 3))
    x, y, z = R.variables()
    assert x * x + y == R.poly({(2, 0, 0): 1, (0, 1, 0): 1})
    assert R.constant(0).is_zero()
    assert R.one() == R.constant(8)  # 8 = 1 mod 7


def test_arithmetic_against_integer_model():
    """Multiply out (x + 2y + 3z)^3 by hand via trinomial expansion."""
    R = ring3(101)
    x, y, z = R.variables()
    f = (x + y.scale(2) + z.scale(3)) ** 3
    from math import factorial

    for (i, j, k), c in f.sorted_terms():
        expected = (
            factorial(3)
            // (factorial(i) * factorial(j) * factorial(k))
            * 2**j
            * 3**k
        ) % 101
        assert c == expected
    assert len(f) == 10  # all trinomial terms survive


def test_ring_axioms_on_random_samples():
    R = ring3()
    rng = random.Random(42)
    for _ in range(40):
        f, g, h = (random_poly(R, rng) for _ in range(3))
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert f - f == R.zero()
        assert f * R.one() == f
        assert f * R.zero() == R.zero()


def test_lead_terms_respect_the_order():
    grev = ring3()
    lex = ring3(order=MonomialOrder(LEX, 3))
    f_terms = {(1, 0, 2): 1, (0, 3, 0): 1}
    assert grev.poly(f_terms).lead_monomial() == (0, 3, 0)
    assert lex.poly(f_terms).lead_monomial() == (1, 0, 2)
    with pytest.raises(UsageError):
        grev.zero().lead_monomial()


def test_monic_and_scale():
    R = ring3()
    x, y, _ = R.variables()
    f = (x * x + y).scale(3)
    assert f.lead_coefficient() == 3
    assert f.monic().lead_coefficient() == 1
    assert f.monic() == x * x + y
    assert R.zero().monic().is_zero()


def test_degree_and_homogeneity():
    R = ring3()
    x, y, z = R.variables()
    assert (x * y + z * z * z).degree() == 3
    assert (x * y + z * z * z).homogeneous_degree() is None
    assert (x * y + z * z).homogeneous_degree() == 2
    assert R.zero().degree() is None
    assert R.zero().homogeneous_degree() is None


def test_lift_polynomial_to_extension_ring():
    R = ring3()
    x, y, _ = R.variables()
    f = x * x + y.scale(5)
    E = PolyRing(("x", "y", "z"), field=GF(7, 2), order=R.order)
    lifted = lift_polynomial(f, E)
    assert lifted.ring is E or lifted.ring == E
    assert E.field.vector(lifted.coefficient((0, 1, 0)).raw) == (5, 0)
    with pytest.raises(UsageError):
        lift_polynomial(f, PolyRing(("a", "b", "c"), field=GF(7, 2)))


def test_string_rendering():
    R = ring3()
    x, y, z = R.variables()
    assert str(R.zero()) == "0"
    assert str(x * x + y.scale(3)) == "x^2 + 3*y"
    assert str(x * y * z) == "x*y*z"
    assert str(R.one() + R.one()) == "2"


def reference_text(f):
    """f's text from its sorted terms alone, by the oracle's renderer."""
    field = f.ring.field
    return poly_text(f.ring.names, [
        (exps, field.vector(c) if field.k > 1 else (c,))
        for exps, c in f.sorted_terms()])


@pytest.mark.parametrize("p, k", [(7, 1), (32003, 1), (5, 3), (2, 4)])
def test_rendering_matches_an_independent_renderer(p, k):
    F = GF(p, k)
    R = PolyRing(("x", "y", "z"), field=F)
    x, y, z = R.variables()
    g = F.coerce((0, 1) + (0,) * (k - 2)) if k > 1 else 3
    special = {
        "one": F.one, "minus one": F.neg(F.one), "g": g,
        "g^k": F.pow_(g, k),  # reduced modulo min_poly when k > 1
    }
    polys = [R.zero(), R.one(), x, x * y * z]
    for c in special.values():
        polys.append(R.constant(FieldElement(F, c)))
        polys.append(R.poly({(2, 0, 1): FieldElement(F, c), (0, 1, 0): 1,
                             (0, 0, 0): FieldElement(F, c)}))
    rng = random.Random(p * k)
    elements = list(F.elements())[1:]
    for _ in range(20):
        polys.append(R.poly({
            tuple(rng.randrange(3) for _ in range(3)):
                FieldElement(F, rng.choice(elements))
            for _ in range(rng.randrange(1, 6))}))
    for f in polys + polys[::-1]:  # the second pass reads filled tables
        assert str(f) == reference_text(f)
    if k > 1:
        assert str(x.scale(FieldElement(F, g))) == "(g)*x"
    else:
        assert str(x.scale(-1) + R.one()) == f"{p - 1}*x + 1"


def test_each_ring_renders_by_its_own_table():
    # lex with the precedence reversed packs x as lex packs z, so a table
    # shared between the rings would print one ring's monomials for the
    # other's keys
    rings = [ring3(), ring3(order=MonomialOrder(LEX, 3)),
             ring3(order=MonomialOrder(LEX, 3, (2, 1, 0)))]
    terms = {(1, 0, 0): 1, (0, 0, 1): 2, (0, 2, 1): 3, (2, 0, 0): 4,
             (0, 0, 0): 5, (1, 1, 1): 6}
    polys = [R.poly(terms) for R in rings]
    texts = [str(f) for f in polys]
    assert len(set(texts)) == 3
    for f in polys[::-1] + polys:
        assert str(f) == reference_text(f)
    assert texts[2] == "3*y^2*z + 6*x*y*z + 2*z + 4*x^2 + x + 5"


def test_structure_key_identifies_terms_within_a_ring():
    R1 = ring3()
    R2 = ring3(order=MonomialOrder(LEX, 3))
    f1 = R1.poly({(1, 1, 0): 2, (0, 0, 2): 3})
    f2 = R2.poly({(1, 1, 0): 2, (0, 0, 2): 3})
    assert f1.structure_key() == R1.poly({(0, 0, 2): 3, (1, 1, 0): 2}).structure_key()
    assert f1.structure_key() != (f1 + R1.variable(0) ** 2).structure_key()
    assert f1.structure_key() != f1.scale(2).structure_key()
    assert hash(f1) == hash(R1.poly(dict(f1.sorted_terms())))
    assert f1 != f2  # different rings


def test_exponents_stop_at_the_16_bit_limit():
    R = PolyRing(("x", "y"), field=GF(7))
    x, y = R.variables()
    top = x ** 65535
    assert top.lead_monomial() == (65535, 0)
    assert issubclass(ExponentOverflowError, OverflowError)
    assert issubclass(ExponentOverflowError, ResourceError)
    with pytest.raises(ExponentOverflowError,
                       match="exponent 65536 exceeds the 16-bit limit"):
        top * x
    # the packed products of Ideal.power and of the engine's S-pairs
    with pytest.raises(ExponentOverflowError, match="exponent 65536"):
        Ideal(R, (x, top)).power(2)
    # the S-pair of x*y and x^65535 + y^65535 multiplies the latter by y
    I = Ideal(R, (x * y, top + y ** 65535), degree_ceiling=1 << 17)
    with pytest.raises(ExponentOverflowError, match="exponent 65536"):
        I.groebner_basis()
    # the packed key that orders the terms holds 16-bit exponents only, so
    # poly, monomial and coefficient check the exponents they are given
    for bad in ((EXPONENT_LIMIT, 0), (-1, 2), (1, 0, 0)):
        with pytest.raises(UsageError):
            R.poly({bad: 1, (0, 1): 1})
        with pytest.raises(UsageError):
            R.monomial(bad)
        with pytest.raises(UsageError):
            top.coefficient(bad)


def test_a_reduction_step_stops_at_the_16_bit_limit():
    # x*y^65535 fits, but dividing it by x - y multiplies the tail y by
    # y^65535: the engine's reduction of its second input, and a normal
    # form, raise from the reducer, before any S-pair is formed
    R = PolyRing(("x", "y"), field=GF(7))
    x, y = R.variables()
    f = x * y ** 65535
    I = Ideal(R, (x - y, f), degree_ceiling=1 << 17)
    for run in (I.groebner_basis, lambda: Ideal(R, (x - y,)).contains(f)):
        with pytest.raises(ExponentOverflowError,
                           match="exponent 65536") as caught:
            run()
        names = [entry.name for entry in caught.traceback]
        assert "_reduce" in names and "_spoly" not in names


def _cross_order_rings(rng):
    """GF(7)[x,y,z,w] under grevlex, lex, grlex and each of them under a
    random precedence."""
    perm = list(range(4))
    rng.shuffle(perm)
    orders = [MonomialOrder(kind, 4, precedence)
              for precedence in (None, perm)
              for kind in (GREVLEX, LEX, GRLEX)]
    return [PolyRing(("x", "y", "z", "w"), field=GF(7), order=order)
            for order in orders]


def _assert_descending(f):
    exps = [e for e, _ in f.sorted_terms()]
    assert all(f.ring.order.compare(a, b) > 0 for a, b in zip(exps, exps[1:]))
    if f:
        assert f.lead_monomial() == exps[0]


@pytest.mark.parametrize("seed", [161, 162, 163])
def test_lift_polynomial_moves_terms_between_orders(seed):
    # every ring keys terms by its own order's packed keys; a move into
    # another order and back gives the same polynomial, and sorted_terms
    # is strictly descending in every ring
    rng = random.Random(seed)
    rings = _cross_order_rings(rng)
    for _ in range(10):
        f = random_poly(rings[0], rng, max_deg=5, max_terms=8)
        terms = dict(f.sorted_terms())
        for target in rings:
            g = lift_polynomial(f, target)
            _assert_descending(g)
            assert dict(g.sorted_terms()) == terms
            assert g.degree() == f.degree()
            assert g.homogeneous_degree() == f.homogeneous_degree()
            for exps, c in terms.items():
                assert g.coefficient(exps).raw == c
            assert lift_polynomial(g, f.ring) == f
            for other in rings:
                assert lift_polynomial(lift_polynomial(g, other), target) == g
        # products and sums agree term for term whatever the order
        h = random_poly(rings[0], rng)
        for target in rings:
            lf, lh = lift_polynomial(f, target), lift_polynomial(h, target)
            assert lift_polynomial(lf * lh, rings[0]) == f * h
            assert lift_polynomial(lf - lh, rings[0]) == f - h


@pytest.mark.parametrize("seed", [171, 172])
def test_shift_up_and_project_down_repack_for_the_elimination_order(seed):
    rng = random.Random(seed)
    for R in _cross_order_rings(rng):
        aux = _aux_ring(R)
        assert aux.order == EliminationOrder(5, 1)
        for _ in range(6):
            f = random_poly(R, rng, max_deg=5, max_terms=8)
            for t_exp in (0, 1, 3):
                up = _shift_up(f, aux, t_exp)
                _assert_descending(up)
                assert dict(up.sorted_terms()) == {
                    (t_exp,) + e: c for e, c in f.sorted_terms()}
                if t_exp == 0:
                    assert _project_down(up, R) == f
