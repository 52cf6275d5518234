"""Acceptance battery: one test per shipped guarantee.

Each test covers one end-to-end claim the package makes, prints a single
CRITERION line on success, and asserts its wall-clock budget.  Random
inputs are drawn from frozen seeds so every run checks the same instances.
"""

import random
import time

from cmreg import messages
from cmreg.asymptotics import (
    STATUS_STABLE,
    bound_report,
    ci_formula_check,
    conjecture_sampler,
    epsilon_containment,
    power_table,
)
from cmreg.fields import GF
from cmreg.geometry import ProjectionSpec, binary_gcd, max_fiber_regularity, twovars_verify
from cmreg.groebner import Ideal
from cmreg.hilbert import finite_length_witness, hilbert_function, top_degree_finite
from cmreg.polynomials import PolyRing
from cmreg.resolution import minimal_free_resolution, regularity
from cmreg.sessions import parse_polynomial
from cmreg import reports

from fixtures import projective_plane_ideal
from oracle import degree_monomials, free_module_hilbert, gf_rank, hilbert_by_rank, poly_to_dense
from test_resolution import has_constant_entry, is_complex


def _passed(n, detail):
    print(f"CRITERION {n}: PASS - {detail}")


def _random_form(rng, ring, d):
    """Dense random homogeneous form of degree d, never zero."""
    xs = ring.variables()
    p = ring.field.p
    while True:
        f = None
        for exps in degree_monomials(ring.nvars, d):
            c = rng.randrange(p)
            if c == 0:
                continue
            t = None
            for xv, e in zip(xs, exps):
                if e:
                    w = xv ** e
                    t = w if t is None else t * w
            t = c * t
            f = t if f is None else f + t
        if f is not None:
            return f


def test_criterion_1_regularity_of_powers_fixture():
    t0 = time.time()
    I = projective_plane_ideal(32003)
    r1 = regularity(I, "ideal")
    r2 = regularity(I.power(2), "ideal")
    assert r1 == 3
    assert r2 == 7
    elapsed = time.time() - t0
    assert elapsed <= 300
    _passed(1, f"reg I = {r1}, reg I^2 = {r2} over GF(32003) in {elapsed:.1f}s")


def test_criterion_2_complete_intersection_powers():
    t0 = time.time()
    checked = 0
    for n in (2, 3):
        ring = PolyRing(tuple("xyz"[:n]), field=GF(101))
        xs = ring.variables()
        for d in (2, 3):
            I = Ideal(ring, tuple(x ** d for x in xs))
            for t in range(1, 5):
                top = top_degree_finite(I.power(t))
                assert top == t * d + (n - 1) * (d - 1) - 1
                assert top == ci_formula_check(d, t, n)
                checked += 1
    elapsed = time.time() - t0
    assert elapsed <= 60
    _passed(2, f"{checked} closed-form socle degrees of CI powers in {elapsed:.1f}s")


def test_criterion_3_random_primary_power_tables():
    t0 = time.time()
    rng = random.Random(320033)
    field = GF(32003)
    rings = {n: PolyRing(tuple("xyz"[:n]), field=field) for n in (2, 3)}
    for i in range(50):
        nvars = rng.choice((2, 3))
        ring = rings[nvars]
        d = rng.choice((1, 2, 3))
        g = nvars + (i % 2)
        while True:
            I = Ideal(ring, tuple(_random_form(rng, ring, d) for _ in range(g)))
            if finite_length_witness(I) is None:
                break
        table = power_table(I, 4, route="both")
        es = [row.e_t for row in table.rows]
        fs = [row.f_t for row in table.rows]
        assert es == fs, f"instance {i}: e_t {es} != f_t {fs}"
        assert all(e >= 0 for e in es), f"instance {i}: negative e_t in {es}"
        assert all(a >= b for a, b in zip(es, es[1:])), \
            f"instance {i}: e_t not nonincreasing: {es}"
    elapsed = time.time() - t0
    assert elapsed <= 600
    _passed(3, f"50 random primary ideals, both routes agree, in {elapsed:.1f}s")


def test_criterion_4_fiber_identity_three_projections():
    t0 = time.time()

    # plane conic projected from (0:0:1)
    R = PolyRing(("x", "y", "z"), field=GF(7))
    x, y, z = R.variables()
    conic = Ideal(R, (x * z - y * y,))
    eps = epsilon_containment(conic, (x, z), 4).epsilon
    assert eps == 1
    rep = max_fiber_regularity(ProjectionSpec(conic, (x, z)), K=2, epsilon=eps)
    assert rep.max_regularity == 2
    assert rep.equals_epsilon_plus_1 is True
    assert len(rep.fibers) == 29 and rep.empty_fibers == 0
    assert all(f.degree == 2 and f.regularity == 2 for f in rep.fibers)

    # identity projection of the line: every fiber is one reduced point
    R1 = PolyRing(("x", "y"), field=GF(7))
    u, v = R1.variables()
    line = Ideal(R1, ())
    eps = epsilon_containment(line, (u, v), 4).epsilon
    assert eps == 0
    rep = max_fiber_regularity(ProjectionSpec(line, (u, v)), K=2, epsilon=eps)
    assert rep.max_regularity == 1
    assert rep.equals_epsilon_plus_1 is True
    assert len(rep.fibers) == 29
    assert all(f.degree == 1 and f.regularity == 1 for f in rep.fibers)

    # twisted cubic under a general linear projection to P^1
    R3 = PolyRing(("x0", "x1", "x2", "x3"), field=GF(11))
    x0, x1, x2, x3 = R3.variables()
    tc = Ideal(R3, (x1 * x1 - x0 * x2, x1 * x2 - x0 * x3, x2 * x2 - x1 * x3))
    forms = (x0 + 2 * x1 + 3 * x2 + 4 * x3, x1 + 5 * x2 + 9 * x3)
    eps = epsilon_containment(tc, forms, 4).epsilon
    assert eps == 1
    rep = max_fiber_regularity(ProjectionSpec(tc, forms), K=3, epsilon=eps)
    assert rep.max_regularity == 2
    assert rep.equals_epsilon_plus_1 is True
    assert len(rep.fibers) == 507 and rep.empty_fibers == 0
    assert all(f.degree == 3 and f.regularity == 2 for f in rep.fibers)

    elapsed = time.time() - t0
    assert elapsed <= 300
    _passed(4, f"max fiber reg = eps + 1 on conic, line, twisted cubic in {elapsed:.1f}s")


def test_criterion_5_binary_systems_lower_bound():
    t0 = time.time()
    R = PolyRing(("x", "y"), field=GF(101))
    x, y = R.variables()

    # exact families: r known in closed form and the bound is an equality
    exact = [
        ((x ** 2, y ** 2), 2),
        ((x ** 3, y ** 3), 3),
        ((x ** 4, y ** 4), 4),
        ((x * x, x * y, y * y), 1),
        ((x ** 3, x * x * y, y ** 3), 2),
    ]
    for forms, r_expected in exact:
        v = twovars_verify(forms, t_max=4)
        assert v.r == r_expected
        assert v.status == STATUS_STABLE
        assert v.equality_on_stable_rows is True
        for row in v.rows:
            assert row.reg_power == v.d * row.t + v.r - 1

    # random systems: dt + r - 1 <= reg I^t with r from rational dual points
    rng = random.Random(5101)
    for i in range(25):
        d = rng.randrange(1, 6)
        m = 2 if d == 1 else rng.choice((2, 3))
        while True:
            coeffs = [[rng.randrange(101) for _ in range(d + 1)] for _ in range(m)]
            if gf_rank(101, [row[:] for row in coeffs]) != m:
                continue
            forms = []
            for row in coeffs:
                f = None
                for j, c in enumerate(row):
                    if c == 0:
                        continue
                    t = (x ** (d - j) if d > j else None)
                    if j:
                        w = y ** j
                        t = w if t is None else t * w
                    t = c * t
                    f = t if f is None else f + t
                forms.append(f)
            if binary_gcd(forms).degree() == 0:
                break
        v = twovars_verify(tuple(forms), t_max=4, K=1)
        assert 1 <= v.r <= d
        assert v.status == STATUS_STABLE, f"instance {i} did not stabilize"
        assert len(v.rows) >= 2
        for row in v.rows:
            assert row.predicted <= row.reg_power

    elapsed = time.time() - t0
    assert elapsed <= 900
    _passed(5, f"5 exact families + 25 random binary systems in {elapsed:.1f}s")


def test_criterion_6_epsilon_bound_reports():
    t0 = time.time()

    R3 = PolyRing(("x0", "x1", "x2", "x3"), field=GF(11))
    x0, x1, x2, x3 = R3.variables()
    tc = Ideal(R3, (x1 * x1 - x0 * x2, x1 * x2 - x0 * x3, x2 * x2 - x1 * x3))
    forms = (x0 + 2 * x1 + 3 * x2 + 4 * x3, x1 + 5 * x2 + 9 * x3)
    rep = bound_report(tc, forms, 4)
    assert rep.epsilon_computed == 1
    assert rep.reg_R == 2 and rep.bound_easy == 1 and rep.easy_tight is True
    assert rep.deg_X == 3 and rep.codim_X == 2
    assert rep.bound_degcodim == 1 and rep.degcodim_tight is True
    assert messages.DEGCODIM_INFORMATIONAL in rep.warnings

    R = PolyRing(("x", "y", "z"), field=GF(7))
    x, y, z = R.variables()
    conic = Ideal(R, (x * z - y * y,))
    rep = bound_report(conic, (x, z), 4)
    assert rep.epsilon_computed == 1
    assert rep.reg_R == 2 and rep.bound_easy == 1 and rep.easy_tight is True
    assert rep.deg_X == 2 and rep.codim_X == 1
    assert rep.bound_degcodim == 1 and rep.degcodim_tight is True

    elapsed = time.time() - t0
    assert elapsed <= 60
    _passed(6, f"eps = reg R - 1 = deg - codim on twisted cubic and conic in {elapsed:.1f}s")


def test_criterion_7_engine_properties():
    t0 = time.time()
    R = PolyRing(("x", "y", "z"), field=GF(7))
    x, y, z = R.variables()

    # (a) the reduced basis is independent of presentation
    base = [x * x - y * z, x * y - z * z, y * y - x * z]
    reference = tuple(str(g) for g in Ideal(R, tuple(base)).groebner_basis())
    rng = random.Random(77)
    for _ in range(20):
        gens = list(base)
        rng.shuffle(gens)
        gens = [g.scale(rng.randrange(1, 7)) for g in gens]
        l1 = _random_form(rng, R, 1)
        l2 = _random_form(rng, R, 1)
        gens.append(l1 * gens[0] + l2 * gens[1])
        got = tuple(str(g) for g in Ideal(R, tuple(gens)).groebner_basis())
        assert got == reference

    # (b) resolutions are minimal complexes with the right Euler characteristic
    rng = random.Random(707)
    for _ in range(8):
        g = rng.choice((2, 3))
        I = Ideal(R, tuple(_random_form(rng, R, rng.choice((1, 2, 3))) for _ in range(g)))
        res, _ = minimal_free_resolution(I, "quotient")
        assert is_complex(res)
        assert not has_constant_entry(res)
        assert res.length <= 3
        hf = hilbert_function(I, 8)
        for dd in range(9):
            chi = 0
            for k, free in enumerate(res.frees):
                chi += (-1) ** k * free_module_hilbert(3, free.twists, dd)
            assert chi == hf.value(dd)

    # (c) Hilbert functions against a rank oracle that shares no code path
    rng = random.Random(7007)
    for _ in range(20):
        nv = rng.choice((2, 3))
        ring = PolyRing(tuple("xyz"[:nv]), field=GF(7))
        gens = tuple(_random_form(rng, ring, rng.choice((1, 2, 3)))
                     for _ in range(rng.choice((1, 2, 3))))
        I = Ideal(ring, gens)
        hf = hilbert_function(I, 6)
        dense = [poly_to_dense(f) for f in gens]
        for dd in range(7):
            assert hf.value(dd) == hilbert_by_rank(7, nv, dense, dd)

    # (d) printing and parsing are inverse bijections on the sampled range
    rng = random.Random(70007)
    R101 = PolyRing(("x", "y", "z"), field=GF(101))
    for _ in range(100):
        f = _random_form(rng, R101, rng.randrange(1, 5))
        if rng.randrange(2):
            f = f + _random_form(rng, R101, rng.randrange(1, 5))
        assert parse_polynomial(str(f), R101) == f

    # (e) reports are byte deterministic, pinned by a golden literal
    golden = (
        '{\n  "command": "reg",\n  "result": {\n    "ideal": "conic",\n'
        '    "ideal_regularity": 2,\n    "quotient_regularity": 1,\n'
        '    "ring": {\n      "ext": 1,\n      "order": "grevlex",\n'
        '      "p": 7,\n      "vars": [\n        "x",\n        "y",\n'
        '        "z"\n      ]\n    }\n  },\n  "version": "0.1.0",\n'
        '  "warnings": []\n}\n'
    )
    for _ in range(2):
        Rg = PolyRing(("x", "y", "z"), field=GF(7))
        xg, yg, zg = Rg.variables()
        Ig = Ideal(Rg, (xg * zg - yg * yg,))
        rep = reports.reg_report("conic", Rg, regularity(Ig, "ideal"),
                                 regularity(Ig, "quotient"))
        assert rep.to_json() == golden

    elapsed = time.time() - t0
    assert elapsed <= 600
    _passed(7, f"basis uniqueness, complexes, Hilbert oracle, parser, golden bytes in {elapsed:.1f}s")


def test_criterion_8_sampler_smoke():
    t0 = time.time()
    R = PolyRing(("x", "y", "z"), field=GF(101))
    x, y, z = R.variables()
    conic = Ideal(R, (x * z - y * y,))
    rep = conjecture_sampler(conic, c=1, trials=20, seed=320)
    assert rep.seed == 320
    assert rep.bound == 1
    assert len(rep.rows) + rep.skipped == 20
    assert all(row.epsilon <= 1 for row in rep.rows)
    assert rep.all_within is True
    assert messages.EMPIRICAL_NOT_PROOF in rep.warnings
    text = reports.sample_report("conic", R, rep).to_json()
    assert '"seed": 320' in text
    assert messages.EMPIRICAL_NOT_PROOF in text
    elapsed = time.time() - t0
    assert elapsed <= 60
    _passed(8, f"20 seeded trials, every eps within n/c, in {elapsed:.1f}s")
