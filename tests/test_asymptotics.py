import itertools
import random

import pytest

from cmreg import messages
from cmreg.asymptotics import (
    STATUS_NOT_STABILIZED,
    STATUS_STABLE,
    bound_report,
    ci_formula_check,
    conjecture_sampler,
    epsilon_containment,
    power_table,
)
from cmreg.errors import DimensionError, GeometryError, UsageError
from cmreg.fields import GF
from cmreg import asymptotics, groebner
from cmreg.groebner import Ideal
from cmreg.hilbert import finite_length_witness, top_degree_finite
from cmreg.polynomials import PolyRing
from cmreg.sessions import parse_polynomial


def ring2(p=7):
    return PolyRing(("x", "y"), field=GF(p))


def ring3(p=7):
    return PolyRing(("x", "y", "z"), field=GF(p))


def conic_ideal(p=7):
    R = ring3(p)
    x, y, z = R.variables()
    return Ideal(R, (x * z - y * y,))


def twisted_cubic(p=11):
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(p))
    x0, x1, x2, x3 = R.variables()
    I = Ideal(R, (x0 * x2 - x1 * x1, x0 * x3 - x1 * x2, x1 * x3 - x2 * x2))
    return R, I


def test_power_table_square_generators():
    R = ring2()
    x, y = R.variables()
    I = Ideal(R, (x * x, y * y))
    rep = power_table(I, 4, route="both")
    assert rep.d == 2 and rep.route == "both"
    for row in rep.rows:
        assert row.reg_power == 2 * row.t + 1
        assert row.reg_quotient == 2 * row.t
        assert row.e_t == row.f_t == 1
    assert rep.epsilon_estimate == 1
    assert rep.stable_from_t == 1
    assert rep.status == STATUS_STABLE
    assert messages.stabilization_heuristic(rep.window) in rep.warnings


def test_power_table_maximal_ideal_square():
    R = ring2()
    x, y = R.variables()
    I = Ideal(R, (x, y)).power(2)
    rep = power_table(I, 4, route="hilbert")
    for row in rep.rows:
        assert row.reg_power == 2 * row.t
        assert row.e_t == 0
    assert rep.epsilon_estimate == 0


def test_power_table_routes_cross_check():
    R = ring2()
    x, y = R.variables()
    I = Ideal(R, (x * x, x * y, y * y))
    both = power_table(I, 3, route="both")
    res = power_table(I, 3, route="resolution")
    hil = power_table(I, 3, route="hilbert")
    assert both.rows == res.rows == hil.rows


def test_power_table_non_primary_behavior():
    R = ring3()
    x, y, _ = R.variables()
    I = Ideal(R, (x * x, y * y))  # V(I) contains (0:0:1)
    with pytest.raises(DimensionError):
        power_table(I, 3, route="hilbert")
    rep = power_table(I, 3, route="resolution", window=2)
    assert messages.MONOTONICITY_SUPPRESSED in rep.warnings


def test_power_table_validation():
    R = ring2()
    x, y = R.variables()
    I = Ideal(R, (x, y * y))
    with pytest.raises(UsageError):
        power_table(I, 3)  # mixed degrees
    with pytest.raises(UsageError):
        power_table(Ideal(R, ()), 3)
    with pytest.raises(UsageError):
        power_table(Ideal(R, (x, y)), 0)
    with pytest.raises(UsageError):
        power_table(Ideal(R, (x, y)), 3, route="magic")
    with pytest.raises(UsageError):
        power_table(Ideal(R, (x, y)), 3, window=0)
    with pytest.raises(UsageError):
        power_table(Ideal(R, (R.one(),)), 3)


def test_not_stabilized_when_window_exceeds_rows():
    R = ring2()
    x, y = R.variables()
    rep = power_table(Ideal(R, (x, y)), 2, route="both", window=3)
    assert rep.status == STATUS_NOT_STABILIZED
    assert rep.epsilon_estimate is None
    assert messages.not_stabilized(2) in rep.warnings


def test_fit_asymptotic():
    R = ring2()
    x, y = R.variables()
    rep = power_table(Ideal(R, (x * x, y * y)), 4, route="both")
    assert (rep.d, rep.epsilon_estimate, rep.stable_from_t) == (2, 1, 1)


def test_epsilon_containment_conic():
    I = conic_ideal()
    R = I.ring
    x, _, z = R.variables()
    rep = epsilon_containment(I, (x, z), 4)
    assert rep.d == 1
    assert rep.epsilon == 1
    assert rep.status == STATUS_STABLE
    # eps_t = top - d*t + 1 rows are consistent
    for row in rep.rows:
        assert row.epsilon_t == row.top_degree - row.t + 1


def test_epsilon_containment_rejects_center_meeting_x():
    I = conic_ideal()
    R = I.ring
    x, y, _ = R.variables()
    # (0:0:1) lies on the conic and on V(x, y)
    with pytest.raises(GeometryError):
        epsilon_containment(I, (x, y), 3)


def test_epsilon_containment_validation():
    I = conic_ideal()
    R = I.ring
    x, y, z = R.variables()
    with pytest.raises(UsageError):
        epsilon_containment(I, (x, y * z), 3)  # mixed degrees
    with pytest.raises(UsageError):
        epsilon_containment(I, (x, R.zero()), 3)
    with pytest.raises(UsageError):
        epsilon_containment(I, (x, x + y * y), 3)  # inhomogeneous
    with pytest.raises(UsageError):
        epsilon_containment(I, (x, z), 0)
    with pytest.raises(UsageError):
        epsilon_containment(I, (ring2().variable(0),), 3)
    with pytest.raises(UsageError):
        epsilon_containment(I, (R.constant(3),), 3)


def test_bound_report_conic():
    I = conic_ideal()
    R = I.ring
    x, _, z = R.variables()
    rep = bound_report(I, (x, z), 4)
    assert rep.epsilon_computed == 1
    assert rep.reg_R == 2
    assert rep.bound_easy == 1 and rep.easy_tight is True
    assert rep.deg_X == 2 and rep.codim_X == 1
    assert rep.bound_degcodim == 1 and rep.degcodim_tight is True
    assert messages.DEGCODIM_INFORMATIONAL in rep.warnings


def test_bound_report_twisted_cubic_general_forms():
    R, I = twisted_cubic()
    x0, x1, x2, x3 = R.variables()
    forms = (
        x0 + x1.scale(2) + x2.scale(3) + x3.scale(4),
        x1 + x2.scale(5) + x3.scale(9),
    )
    rep = bound_report(I, forms, 4)
    assert rep.epsilon_computed == 1
    assert rep.reg_R == 2
    assert rep.deg_X == 3 and rep.codim_X == 2
    assert rep.bound_easy == 1 and rep.easy_tight is True
    assert rep.bound_degcodim == 1 and rep.degcodim_tight is True


def test_bound_report_requires_linear_forms():
    I = conic_ideal()
    R = I.ring
    x, y, _ = R.variables()
    with pytest.raises(UsageError):
        bound_report(I, (x * x, y * y), 3)


def test_ci_formula_check():
    assert ci_formula_check(2, 1, 2) == 2 + 1 - 1
    assert ci_formula_check(3, 4, 3) == 12 + 2 * 2 - 1
    for d in (2, 3):
        for t in range(1, 5):
            assert ci_formula_check(d, t, 3) == t * d + 2 * (d - 1) - 1
    with pytest.raises(UsageError):
        ci_formula_check(0, 1, 2)
    with pytest.raises(UsageError):
        ci_formula_check(2, 0, 2)


def test_sampler_is_deterministic_and_bounded():
    I = conic_ideal(101)
    rep1 = conjecture_sampler(I, c=1, trials=6, seed=2024)
    rep2 = conjecture_sampler(I, c=1, trials=6, seed=2024)
    assert rep1 == rep2
    assert rep1.n == 1 and rep1.bound == 1
    assert rep1.seed == 2024
    assert rep1.all_within
    assert messages.EMPIRICAL_NOT_PROOF in rep1.warnings
    assert all(r.epsilon <= 1 for r in rep1.rows)
    assert len(rep1.rows) + rep1.skipped == 6
    other = conjecture_sampler(I, c=1, trials=6, seed=77)
    assert other.seed != rep1.seed


def test_sampler_small_field_warning_and_validation():
    I = conic_ideal(7)
    rep = conjecture_sampler(I, c=1, trials=2, seed=5)
    assert messages.small_field(7) in rep.warnings
    with pytest.raises(UsageError):
        conjecture_sampler(I, c=0, trials=2, seed=5)
    with pytest.raises(UsageError):
        conjecture_sampler(I, c=1, trials=-1, seed=5)
    for trials in (0, 2):
        with pytest.raises(UsageError, match="t_max must be at least 1"):
            conjecture_sampler(I, c=1, trials=trials, seed=5, t_max=0)
    R = I.ring
    x, y, z = R.variables()
    fat_point = Ideal(R, (x, y, z)).power(2)
    with pytest.raises(UsageError):
        conjecture_sampler(fat_point, c=1, trials=1, seed=5)


def _record_certificates(monkeypatch):
    """The outcomes of every regular-sequence certificate checked."""
    outcomes = []
    free = asymptotics._free_over_forms

    def recorded(*args):
        outcomes.append(free(*args))
        return outcomes[-1]

    monkeypatch.setattr(asymptotics, "_free_over_forms", recorded)
    return outcomes


def _random_forms(R, d, count, rng):
    monomials = [m for m in itertools.product(range(d + 1), repeat=R.nvars)
                 if sum(m) == d]
    p = R.field.p
    return [R.poly({m: rng.randrange(p) for m in monomials})
            for _ in range(count)]


def _finite_projection(I, d, seed):
    """Two random forms of degree d whose center misses the scheme of I."""
    rng = random.Random(seed)
    while True:
        forms = _random_forms(I.ring, d, 2, rng)
        if any(f.is_zero() for f in forms):
            continue
        center = Ideal(I.ring, I.gens + tuple(forms))
        if finite_length_witness(center) is None:
            return forms


def _basis_tops(I, forms, t_max):
    """top_t of S/((V)^t + I_X) from a basis of each, on fresh ideals."""
    R = I.ring
    return [top_degree_finite(Ideal(R, forms).power(t).plus(Ideal(R, I.gens)))
            for t in range(1, t_max + 1)]


@pytest.mark.parametrize("p", [5, 7, 32003])
@pytest.mark.parametrize("d", [1, 2])
def test_certified_rows_agree_with_the_basis_route(p, d, monkeypatch):
    # the twisted cubic is arithmetically Cohen-Macaulay of dimension 2, so
    # two forms whose center misses it are a regular sequence on S/I_X
    _, I = twisted_cubic(p)
    forms = _finite_projection(I, d, seed=100 * p + d)
    certified = _record_certificates(monkeypatch)
    rep = epsilon_containment(I, forms, 3)
    assert certified == [True]
    assert [r.top_degree for r in rep.rows] == _basis_tops(I, forms, 3)
    assert len({r.epsilon_t for r in rep.rows}) == 1


@pytest.mark.parametrize("d", [1, 2])
def test_a_certified_center_builds_no_basis_of_a_higher_power(d,
                                                            monkeypatch):
    _, I = twisted_cubic(32003)
    forms = _finite_projection(I, d, seed=d)
    R = I.ring
    powers = [sorted(str(f.monic()) for f in
                     Ideal(R, forms).power(t).gens + I.gens)
              for t in (2, 3)]
    inputs = []
    engine = groebner._engine

    def recorded(polys, *args):
        inputs.append(sorted(str(f.monic()) for f in polys))
        return engine(polys, *args)

    monkeypatch.setattr(groebner, "_engine", recorded)
    rep = epsilon_containment(I, forms, 3)
    assert inputs and not any(gens in inputs for gens in powers)
    assert [r.top_degree for r in rep.rows] == _basis_tops(I, forms, 3)


def _ring4(p):
    return PolyRing(("x", "y", "z", "w"), field=GF(p))


@pytest.mark.parametrize("p, gens, forms", [
    # the rational quartic curve: not Cohen-Macaulay, two forms = dim S/I_X
    (32003, ("y*z - x*w", "z^3 - y*w^2", "x*z^2 - y^2*w", "y^3 - x^2*z"),
     ("x + 2*y + 3*z", "y + 5*w")),
    # two skew lines: not Cohen-Macaulay (depth 1, dimension 2)
    (7, ("x*z", "x*w", "y*z", "y*w"), ("x + 2*y + 3*z", "y + 5*w + z")),
])
def test_a_non_cohen_macaulay_x_takes_the_basis_route(p, gens, forms,
                                                      monkeypatch):
    R = _ring4(p)
    I = Ideal(R, [parse_polynomial(g, R) for g in gens])
    V = [parse_polynomial(f, R) for f in forms]
    certified = _record_certificates(monkeypatch)
    rep = epsilon_containment(I, V, 4)
    assert certified == [False]
    assert [r.top_degree for r in rep.rows] == _basis_tops(I, V, 4)


def test_more_forms_than_the_dimension_take_the_basis_route(monkeypatch):
    # a 0-dimensional X (Krull dimension 1) with two linear forms; its rows
    # are not top_1 + (t - 1)
    R = _ring4(5)
    I = Ideal(R, [parse_polynomial(g, R) for g in
                  ("x*z - y^2", "y*w - z^2", "x*w - y*z", "x^2*y", "x^3")])
    _, y, _, w = R.variables()
    certified = _record_certificates(monkeypatch)
    rep = epsilon_containment(I, (y, w), 4)
    assert certified == [False]
    assert [(r.top_degree, r.epsilon_t) for r in rep.rows] == [
        (2, 2), (2, 1), (3, 1), (4, 1)]
    assert [r.top_degree for r in rep.rows] == _basis_tops(I, (y, w), 4)


def test_the_unit_ideal_is_not_certified(monkeypatch):
    # S/I_X = 0: every row has top degree -1, which no closed form from
    # row 1 gives
    R = ring3()
    x, _, z = R.variables()
    certified = _record_certificates(monkeypatch)
    rep = epsilon_containment(Ideal(R, (R.one(),)), (x, z), 3)
    assert certified == [False]
    assert [r.top_degree for r in rep.rows] == [-1, -1, -1]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_forms_on_the_whole_space_follow_the_complete_intersection_formula(
        d, monkeypatch):
    # I_X = 0 and n + 1 forms of degree d with a finite-length center: a
    # regular sequence on S
    R = ring3(32003)
    rng = random.Random(d)
    while True:
        forms = _random_forms(R, d, 3, rng)
        if finite_length_witness(Ideal(R, forms)) is None:
            break
    certified = _record_certificates(monkeypatch)
    rep = epsilon_containment(Ideal(R, ()), forms, 4)
    assert certified == [True]
    for row in rep.rows:
        assert row.top_degree == ci_formula_check(d, row.t, 3)


def test_sampler_builds_one_basis_per_draw(monkeypatch):
    # a draw whose center meets X is skipped by epsilon_containment's
    # GeometryError; the center's basis is not computed a second time
    R = ring3(2)
    x, y, z = R.variables()
    I = Ideal(R, (x * z - y * y,))
    calls = []
    engine = groebner._engine

    def counted(*args):
        calls.append(1)
        return engine(*args)

    monkeypatch.setattr(groebner, "_engine", counted)
    certified = _record_certificates(monkeypatch)
    rep = conjecture_sampler(I, c=1, trials=8, seed=0, t_max=3)
    assert rep.skipped and rep.rows
    assert len(rep.rows) + rep.skipped == 8
    # over GF(2) some draws repeat a form, leaving two forms on the conic,
    # which are a regular sequence on it
    assert len(certified) == len(rep.rows)
    assert True in certified and False in certified
    # S/I_X's dimension, then per draw the center and, when it has finite
    # length and the certificate fails, (V)^t + I_X for t = 2, 3
    assert len(calls) == 1 + rep.skipped + sum(1 if c else 3
                                                for c in certified)


def test_each_power_gets_one_groebner_basis(monkeypatch):
    # I^1 is I itself, so the finite-length check and row t = 1 share one
    # basis; likewise (V) + I_X in epsilon_containment
    R = ring3(32003)
    x, y, z = R.variables()
    I = Ideal(R, (x * x, y * y, z * z, x * y + y * z))
    calls = []
    engine = groebner._engine

    def counted(*args):
        calls.append(1)
        return engine(*args)

    monkeypatch.setattr(groebner, "_engine", counted)
    power_table(I, 2, route="both")
    assert len(calls) == 2
    calls.clear()
    epsilon_containment(Ideal(R, (x * z - y * y,)), (x, z), 2)
    assert len(calls) == 2
