import random

import pytest

from cmreg.errors import ExponentOverflowError, ResourceError, UsageError
from cmreg.fields import GF
from cmreg.orders import EXPONENT_LIMIT, GREVLEX, LEX, MonomialOrder
from cmreg.groebner import Ideal
from cmreg.polynomials import Monomial, PolyRing, Polynomial, lift_polynomial


def ring3(p=7, order=None):
    return PolyRing(("x", "y", "z"), field=GF(p), order=order)


def random_poly(ring, rng, max_deg=4, max_terms=6):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(ring.nvars))
        terms[exps] = rng.randrange(ring.field.p)
    return ring.poly(terms)


def test_monomial_lattice_operations():
    a = Monomial((2, 1, 0))
    b = Monomial((1, 3, 0))
    assert a.mul(b) == Monomial((3, 4, 0))
    assert a.lcm(b) == Monomial((2, 3, 0))
    assert a.gcd(b) == Monomial((1, 1, 0))
    assert not a.divides(b)
    assert a.gcd(b).divides(a)
    assert a.lcm(b).quotient(a) == Monomial((0, 2, 0))
    assert Monomial((0, 0, 1)).coprime(Monomial((1, 1, 0)))
    assert Monomial((0, 0, 0)).is_one()
    assert a.degree == 3


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

    for m, c in f.sorted_terms():
        i, j, k = m.exps
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
    assert grev.poly(f_terms).lead_monomial() == Monomial((0, 3, 0))
    assert lex.poly(f_terms).lead_monomial() == Monomial((1, 0, 2))
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
    assert not (x * y + z * z * z).is_homogeneous()
    assert (x * y + z * z).homogeneous_degree() == 2
    assert R.zero().degree() is None
    assert R.zero().is_homogeneous()


def test_lift_polynomial_to_extension_ring():
    R = ring3()
    x, y, _ = R.variables()
    f = x * x + y.scale(5)
    E = PolyRing(("x", "y", "z"), field=GF(7, 2), order=R.order)
    lifted = lift_polynomial(f, E)
    assert lifted.ring is E or lifted.ring == E
    assert lifted.coefficient(Monomial((0, 1, 0))).raw == (5, 0)
    with pytest.raises(UsageError):
        lift_polynomial(f, PolyRing(("a", "b", "c"), field=GF(7, 2)))


def test_string_rendering():
    R = ring3()
    x, y, z = R.variables()
    assert str(R.zero()) == "0"
    assert str(x * x + y.scale(3)) == "x^2 + 3*y"
    assert str(x * y * z) == "x*y*z"
    assert str(R.one() + R.one()) == "2"


def test_structure_key_is_ring_independent():
    R1 = ring3()
    R2 = ring3(order=MonomialOrder(LEX, 3))
    f1 = R1.poly({(1, 1, 0): 2, (0, 0, 2): 3})
    f2 = R2.poly({(1, 1, 0): 2, (0, 0, 2): 3})
    assert f1.structure_key() == f2.structure_key()
    assert f1 != f2  # different rings


def test_exponents_stop_at_the_16_bit_limit():
    R = PolyRing(("x", "y"), field=GF(7))
    x, y = R.variables()
    top = x ** 65535
    assert top.lead_monomial().exps == (65535, 0)
    assert issubclass(ExponentOverflowError, OverflowError)
    assert issubclass(ExponentOverflowError, ResourceError)
    with pytest.raises(ExponentOverflowError,
                       match="exponent 65536 exceeds the 16-bit limit"):
        top * x
    # the packed products of Ideal.power and of the engine's S-pairs
    with pytest.raises(ExponentOverflowError, match="exponent 65536"):
        Ideal(R, (x, top)).power(2)
    # the S-pair of x*y and x^65535 + y^65535 multiplies the latter by y
    I = Ideal(R, (x * y, top + y ** 65535))
    with pytest.raises(ExponentOverflowError, match="exponent 65536"):
        I.groebner_basis(degree_ceiling=1 << 17)
    # poly checks Monomials as it checks tuples: the packed key that orders
    # the terms holds 16-bit exponents only
    for bad in (Monomial((EXPONENT_LIMIT, 0)), Monomial((-1, 2)),
                Monomial((1, 0, 0))):
        with pytest.raises(UsageError):
            R.poly({bad: 1, (0, 1): 1})
