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
from cmreg import groebner
from cmreg.groebner import Ideal
from cmreg.polynomials import PolyRing


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
    rep = conjecture_sampler(I, c=1, trials=8, seed=0, t_max=3)
    assert rep.skipped and rep.rows
    assert len(rep.rows) + rep.skipped == 8
    # S/I_X's dimension, then per draw the center and, when it has finite
    # length, (V)^t + I_X for t = 2, 3
    assert len(calls) == 1 + rep.skipped + 3 * len(rep.rows)


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
