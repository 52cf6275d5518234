import random

import pytest

from cmreg import resolution
from cmreg.asymptotics import power_table
from cmreg.errors import SelfCheckError, UsageError
from cmreg.fields import GF
from cmreg.groebner import Ideal, _Basis, _ideal_basis
from cmreg.hilbert import hilbert_function
from cmreg.polynomials import Polynomial, PolyRing
from cmreg.resolution import (
    BettiTable,
    FreeModule,
    Resolution,
    SchreyerOrder,
    _betti_by_ranks,
    _betti_from_frees,
    _minimize,
    _schreyer_tower,
    _syzygy_step,
    betti_table,
    minimal_free_resolution,
    regularity,
)

from fixtures import projective_plane_ideal
from oracle import (
    degree_monomials,
    free_module_hilbert,
    hilbert_by_rank,
    koszul_betti,
    poly_to_dense,
)

P = 7


def is_complex(res: Resolution) -> bool:
    """Whether consecutive differentials of res compose to zero."""
    for k in range(len(res.differentials) - 1):
        A, B = res.differentials[k], res.differentials[k + 1]
        rows_of = {}
        for (r, c), p in A.items():
            rows_of.setdefault(c, []).append((r, p))
        sums = {}
        for (r, c), p in B.items():
            for s, q in rows_of.get(r, ()):
                key = (s, c)
                acc = sums.get(key)
                prod = q * p
                sums[key] = prod if acc is None else acc + prod
        if any(not v.is_zero() for v in sums.values()):
            return False
    return True


def polynomial_maps(R, tower):
    """The packed tower's differentials as {(row, col): Polynomial} maps."""
    maps = []
    for columns, order in tower:
        D = {}
        for col, terms in enumerate(columns):
            per_row = {}
            for t, c in terms.items():
                row, key = order.split(t)
                per_row.setdefault(row, {})[key] = c
            for row, entry in per_row.items():
                D[(row, col)] = Polynomial(R, entry)
        maps.append(D)
    return maps


def has_constant_entry(res: Resolution) -> bool:
    return any(p.degree() == 0
               for D in res.differentials for p in D.values())


def beta(table: BettiTable, i: int, j: int) -> int:
    return table.entries.get((i, j), 0)


def ring(names=("x", "y", "z")):
    return PolyRing(names, field=GF(P))


def random_ideal(R, rng, max_gens=3, max_deg=3):
    gens = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        d = rng.randrange(1, max_deg + 1)
        terms = {
            m: rng.randrange(P)
            for m in degree_monomials(R.nvars, d)
            if rng.random() < 0.6
        }
        if terms:
            gens.append(R.poly(terms))
    return Ideal(R, gens)


def test_koszul_complex_of_the_maximal_ideal():
    R = ring()
    x, y, z = R.variables()
    res, betti = minimal_free_resolution(Ideal(R, (x, y, z)))
    assert [f.rank for f in res.frees] == [1, 3, 3, 1]
    assert betti.as_json_map() == {"0,0": 1, "1,1": 3, "2,2": 3, "3,3": 1}
    assert betti.regularity() == 0
    assert betti.projective_dimension() == 3
    assert is_complex(res)
    assert not has_constant_entry(res)


def test_twisted_cubic_betti_table():
    R = PolyRing(("x0", "x1", "x2", "x3"), field=GF(P))
    x0, x1, x2, x3 = R.variables()
    I = Ideal(R, (x0 * x2 - x1 * x1, x0 * x3 - x1 * x2, x1 * x3 - x2 * x2))
    res, betti = minimal_free_resolution(I)
    assert betti.as_json_map() == {"0,0": 1, "1,2": 3, "2,3": 2}
    assert regularity(I, of="quotient") == 1
    assert regularity(I, of="ideal") == 2
    assert res.length == 2


def test_complete_intersection_betti():
    R = ring(("x", "y"))
    x, y = R.variables()
    for a, b in [(1, 1), (2, 2), (2, 3)]:
        I = Ideal(R, (x**a, y**b))
        _, betti = minimal_free_resolution(I)
        assert betti.as_json_map() == {
            "0,0": 1,
            f"1,{a}": 1 + (a == b),
            **({f"1,{b}": 1} if a != b else {}),
            f"2,{a + b}": 1,
        }
        assert regularity(I, of="quotient") == a + b - 2


def test_triangulated_plane_depends_on_characteristic():
    # the 6-vertex triangulation of the real projective plane: its
    # Stanley-Reisner ring gains an extra syzygy exactly in characteristic 2
    for p, reg, pd in ((2, 4, 4), (3, 3, 3), (32003, 3, 3)):
        I = projective_plane_ideal(p)
        res, betti = minimal_free_resolution(I)
        assert regularity(I, of="ideal") == reg, f"char {p}"
        assert betti.projective_dimension() == pd
        base = {"0,0": 1, "1,3": 10, "2,4": 15, "3,5": 6}
        if p == 2:
            base.update({"3,6": 1, "4,6": 1})
        assert betti.as_json_map() == base


def test_resolutions_are_minimal_complexes():
    rng = random.Random(41)
    R = ring()
    for _ in range(12):
        I = random_ideal(R, rng)
        if I.is_zero_ideal():
            continue
        res, betti = minimal_free_resolution(I)
        assert is_complex(res)
        assert not has_constant_entry(res)
        assert res.length <= R.nvars  # Hilbert syzygy theorem
        # differentials are degree-compatible by construction; spot-check
        for k, D in enumerate(res.differentials):
            for (r, c), poly in D.items():
                expected = res.frees[k + 1].twists[c] - res.frees[k].twists[r]
                assert poly.homogeneous_degree() == expected


def test_euler_characteristic_matches_hilbert_function():
    """Alternating rank sums of the resolution reproduce h_{S/I} through
    degree 8, tying the resolution engine to the independent numerator path."""
    rng = random.Random(43)
    R = ring()
    for _ in range(10):
        I = random_ideal(R, rng)
        if I.is_zero_ideal():
            continue
        res, _ = minimal_free_resolution(I)
        h = hilbert_function(I, 8)
        for d in range(9):
            chi = 0
            for i, free in enumerate(res.frees):
                chi += (-1) ** i * free_module_hilbert(R.nvars, free.twists, d)
            assert chi == h.value(d), f"degree {d} of {I}"


def _euler_cases():
    """A complete intersection of points in P^2 and a twisted cubic in
    P^3, whose quotient is not Artinian, over GF(7)."""
    R = ring()
    x, y, z = R.variables()
    S = ring(("x0", "x1", "x2", "x3"))
    x0, x1, x2, x3 = S.variables()
    return [Ideal(R, (x * x, y * y, z * z)),
            Ideal(S, (x0 * x2 - x1 * x1, x0 * x3 - x1 * x2,
                      x1 * x3 - x2 * x2))]


def _mutate_step(monkeypatch, level, mutate):
    """Make the level-th call of _syzygy_step return mutate(its result)."""
    real = resolution._syzygy_step
    calls = []

    def step(ring, basis, order, twists):
        out = real(ring, basis, order, twists)
        calls.append(level)
        return mutate(*out) if len(calls) == level else out

    monkeypatch.setattr(resolution, "_syzygy_step", step)


def _drop_last_sigma(basis, order, twists):
    kept = _Basis(basis.order, basis.bits)
    for terms in basis.terms[:-1]:
        kept.append(terms)
    return kept, order, twists[:-1]


def _shift_last_twist(basis, order, twists):
    return basis, order, twists[:-1] + [twists[-1] + 1]


@pytest.mark.parametrize("case", range(2))
def test_euler_check_catches_a_dropped_sigma_or_a_shifted_twist(
        monkeypatch, case):
    # the tower's Euler characteristic must equal the Hilbert numerator;
    # a sigma dropped at the last level leaves no S-pair to notice, so only
    # that check can see it
    I = _euler_cases()[case]
    _, tower = _schreyer_tower(I)
    levels = len(tower) - 1  # _syzygy_step calls with a nonempty result
    assert levels >= 1
    for level in range(1, levels + 1):
        for mutate in (_drop_last_sigma, _shift_last_twist):
            with monkeypatch.context() as m:
                _mutate_step(m, level, mutate)
                with pytest.raises(SelfCheckError) as exc:
                    betti_table(Ideal(I.ring, I.gens))
                if level == levels or mutate is _shift_last_twist:
                    assert "Euler characteristic" in str(exc.value)


def test_betti_by_ranks_matches_the_minimized_complex():
    """Ranks of the constant blocks give the minimized complex's table, over
    several characteristics and 1-4 variables, zero and unit ideals included."""
    for p in (2, 3, 7, 32003):
        for nv in (1, 2, 3, 4):
            rng = random.Random(1000 * p + nv)
            R = PolyRing(tuple("xyzw"[:nv]), field=GF(p))
            ideals = [Ideal(R, ()), Ideal(R, (R.one(),))]
            for _ in range(6):
                gens = []
                for _ in range(rng.randrange(1, 5)):
                    d = rng.randrange(1, 4)
                    terms = {m: rng.randrange(p)
                             for m in degree_monomials(nv, d)
                             if rng.random() < 0.5}
                    if terms:
                        gens.append(R.poly(terms))
                ideals.append(Ideal(R, gens))
            for I in ideals:
                frees, tower = _schreyer_tower(I)
                minimal, _ = _minimize(R, frees, tower)
                assert (_betti_by_ranks(R, frees, tower)
                        == _betti_from_frees(minimal)), (p, I)
                for of in ("quotient", "ideal"):
                    _, betti = minimal_free_resolution(I, of)
                    assert betti_table(I, of) == betti, (p, I, of)
    # d_1 d_2 != 0 is no complex: beta_{1,0} = 1 - 1 - 1 is caught
    R = ring()
    unit = ([{0: R.field.one}], SchreyerOrder.trivial(1))
    frees = [FreeModule((0,))] * 3
    with pytest.raises(SelfCheckError, match="negative Betti"):
        _betti_by_ranks(R, frees, [unit, unit])
    # a constant entry between different twists is no graded map
    with pytest.raises(SelfCheckError, match="joins twists 0 and 1"):
        _betti_by_ranks(R, [FreeModule((0,)), FreeModule((1,))], [unit])


def test_schreyer_tower_is_a_complex():
    # consecutive differentials of the non-minimal tower compose to zero;
    # d_1 d_2 = 0 says the level-1 syzygies annihilate the Groebner basis
    R = ring()
    x, y, z = R.variables()
    I = Ideal(R, (x * x - y * z, x * y + z * z, y * y * y - x * z * z))
    gb = I.groebner_basis()
    frees, tower = _schreyer_tower(I)
    assert is_complex(Resolution(R, frees, polynomial_maps(R, tower)))
    assert frees[2].rank >= len(gb) - 1
    rng = random.Random(47)
    for _ in range(10):
        I = random_ideal(R, rng)
        frees, tower = _schreyer_tower(I)
        assert is_complex(Resolution(R, frees, polynomial_maps(R, tower))), I


@pytest.mark.parametrize("nvars,seed", [(3, 191), (4, 192)])
def test_schreyer_rank_is_the_position(nvars, seed):
    """At every level the sigmas' leads sit at nondecreasing positions, so
    the tie paths of the Schreyer order (the lead positions down the tower)
    are nondecreasing too, and ranking by position alone is the order: a
    term's low bits are top - pos."""
    rng = random.Random(seed)
    R = ring(("x", "y", "z", "w")[:nvars])
    levels = 0
    for _ in range(6):
        I = random_ideal(R, rng, max_gens=4)
        frees, tower = _schreyer_tower(I)
        paths = [()]
        for columns, order in tower:
            assert order.top == len(order.weights) - 1 == len(paths) - 1
            leads = [order.split(max(col))[0] for col in columns]
            assert leads == sorted(leads)
            paths = [paths[p] + (p,) for p in leads]
            assert paths == sorted(paths)
            mask = (1 << order.bits) - 1
            for pos in range(order.top + 1):
                for exps in [(0,) * nvars] + degree_monomials(nvars, 2):
                    k = R.order.pack(exps)
                    t = order.term(pos, k)
                    assert order.split(t) == (pos, k)
                    assert t & mask == order.top - pos
            levels += len(tower) > 1
    assert levels


def _reference_pairs(R, basis, order):
    """The pairs (i, j) a (degree, u, j) order keeps at one level, and how
    many candidates repeat a kept u: for each i, the j > i at i's position
    give u = lcm(m_i, m_j) / m_i on exponent tuples, taken by
    (sum(u), u, j), and a pair is kept unless the u of a kept pair
    divides its u."""
    exps = [R.order.exponents(w) for _, w, _ in basis.leads]
    pos = [order.split(k)[0] for k, _, _ in basis.leads]
    kept, ties = set(), 0
    for i, ei in enumerate(exps):
        cands = []
        for j in range(i + 1, len(exps)):
            if pos[j] == pos[i]:
                u = tuple(max(a, b) - a for a, b in zip(ei, exps[j]))
                cands.append((sum(u), u, j))
        chosen = []
        for _, u, j in sorted(cands):
            ties += u in chosen
            if not any(all(a <= b for a, b in zip(c, u)) for c in chosen):
                chosen.append(u)
                kept.add((i, j))
    return kept, ties


def _syzygy_pairs(basis, order, nxt, nxt_order):
    """(i, j) of each syzygy u * e_i - v * e_j + ... in ``nxt``, the level
    after ``basis``: its lead sits at i, and -v * e_j is its one other term
    at a lead of i's position whose image, u * m_i = v * m_j, equals the
    lead's (the reduction's terms lie below that image there)."""
    pos = [order.split(k)[0] for k, _, _ in basis.leads]
    bits = nxt_order.bits
    pairs = set()
    for sig in nxt.terms:
        lead = max(sig)
        i = nxt_order.split(lead)[0]
        (j,) = [nxt_order.split(t)[0] for t in sig if t != lead
                and t >> bits == lead >> bits
                and pos[nxt_order.split(t)[0]] == pos[i]]
        pairs.add((i, j))
    return pairs


@pytest.mark.parametrize("nvars,seed", [(3, 201), (4, 202)])
def test_syzygy_pairs_match_a_degree_ordered_selection(nvars, seed):
    # the tower takes its pairs in the int order of the words of u; at every
    # level of random towers, and of monomial ideals whose pairs tie on
    # their lcm, it keeps the pairs a (degree, u, j) order keeps
    rng = random.Random(seed)
    R = ring(("x", "y", "z", "w")[:nvars])
    x, y, z = R.variables()[:3]
    m = Ideal(R, R.variables())
    ideals = [Ideal(R, (x * y, x * z, y * z)), m.power(2), m.power(3)]
    ideals += [random_ideal(R, rng, max_gens=4) for _ in range(8)]
    levels = ties = 0
    for I in ideals:
        cols = sorted(I.groebner_basis().elements,
                      key=lambda g: g.lead_monomial(), reverse=True)
        basis = _ideal_basis(R.order, cols)
        order = SchreyerOrder.trivial(1)
        twists = [g.homogeneous_degree() for g in cols]
        while basis.terms:
            expected, tied = _reference_pairs(R, basis, order)
            nxt, order_next, twists = _syzygy_step(R, basis, order, twists)
            assert _syzygy_pairs(basis, order, nxt,
                                 order_next) == expected
            basis, order = nxt, order_next
            levels += 1
            ties += tied
    assert levels and ties


def test_rank_path_builds_no_polynomial_differential(monkeypatch):
    # betti_table, regularity and the resolution route of power_table read
    # the packed tower; only minimal_free_resolution minimizes it
    R = ring()
    x, y, z = R.variables()
    I = Ideal(R, (x * x + y * z, y * y - x * z, z * z))
    res, betti = minimal_free_resolution(I)

    def refuse(ring, frees, tower):
        raise AssertionError("differentials built on the rank path")

    monkeypatch.setattr(resolution, "_minimize", refuse)
    assert betti_table(I) == betti
    assert regularity(I) == betti.regularity() + 1
    table = power_table(I, 2, route="resolution")
    assert table.rows[0].reg_power == betti.regularity() + 1
    with pytest.raises(AssertionError, match="rank path"):
        minimal_free_resolution(I)


def test_minimization_does_no_polynomial_arithmetic(monkeypatch):
    # _minimize cancels units on the tower's term dicts; Polynomials are
    # only built from its surviving entries
    R = ring()
    x, y, z = R.variables()
    ideals = [Ideal(R, (x * x + y * z, y * y - x * z, z * z)),
              projective_plane_ideal(2)]
    expected = [minimal_free_resolution(I) for I in ideals]

    def refuse(self, other):
        raise AssertionError("Polynomial arithmetic while minimizing")

    for name in ("__add__", "__sub__", "__mul__"):
        monkeypatch.setattr(Polynomial, name, refuse)
    for I, (res, betti) in zip(ideals, expected):
        I = Ideal(I.ring, I.gens)  # no cached basis
        again, betti_again = minimal_free_resolution(I)
        assert betti_again == betti
        assert again.frees == res.frees
        assert again.differentials == res.differentials


def _koszul_cases(p, nv, rng):
    """Frozen random ideals over GF(p) in nv variables: m-primary ones
    from nv + 1 quadrics, and others from fewer forms than variables."""
    R = PolyRing(tuple("xyzw"[:nv]), field=GF(p))

    def form(d, density):
        while True:
            terms = {m: rng.randrange(1, p) for m in degree_monomials(nv, d)
                     if rng.random() < density}
            if terms:
                return R.poly(terms)

    shapes = [(nv + 1, (2, 2), 0.7), (nv - 1, (2, 2), 0.4),
              (2, (2, 3), 0.3)]
    if nv == 3:
        shapes.append((3, (2, 3), 0.5))
    return [Ideal(R, [form(rng.randint(*degrees), density)
                      for _ in range(count)])
            for count, degrees, density in shapes]


def test_both_betti_routes_agree_with_koszul_homology():
    """beta_{i,j} of S/J as the Koszul homology of S/J, from dense ranks
    alone, against the ranks of the tower's constant blocks and the
    minimized complex, for both targets, through degree j_max.  For an
    m-primary J with (S/J)_{j_max - n} = 0 every K_{i,j} with j >= j_max
    vanishes, so the window is complete; for the others, entries above
    j_max go unchecked."""
    kinds = set()
    shrunk = 0
    for p in (7, 32003):
        for nv in (3, 4):
            j_max = 9 if nv == 3 else 7
            for I in _koszul_cases(p, nv, random.Random(100 * p + nv)):
                gens = [poly_to_dense(g) for g in I.gens]
                expected = koszul_betti(p, nv, gens, j_max)
                assert max(j for _, j in expected) < j_max, I
                kinds.add(hilbert_by_rank(p, nv, gens, j_max - nv) == 0)
                frees, _ = _schreyer_tower(I)
                shrunk += sum(f.rank for f in frees) > sum(expected.values())
                ideal = {(i - 1, j): v for (i, j), v in expected.items()
                         if i >= 1}
                for of, table in (("quotient", expected), ("ideal", ideal)):
                    assert betti_table(I, of).entries == table, (p, I, of)
                    _, betti = minimal_free_resolution(I, of)
                    assert betti.entries == table, (p, I, of)
    # m-primary ideals and others; towers that minimization shrinks
    assert kinds == {True, False} and shrunk


def test_resolution_of_ideal_strips_the_leading_free_module():
    R = ring()
    x, y, z = R.variables()
    I = Ideal(R, (x * x, x * y, y * y))
    res_q, betti_q = minimal_free_resolution(I, of="quotient")
    res_i, betti_i = minimal_free_resolution(I, of="ideal")
    assert [f.twists for f in res_i.frees] == [
        f.twists for f in res_q.frees[1:]
    ]
    assert beta(betti_i, 0, 2) == beta(betti_q, 1, 2) == 3
    assert betti_i.regularity() == betti_q.regularity() + 1
    with pytest.raises(UsageError):
        minimal_free_resolution(I, of="module")


def test_regularity_conventions():
    R = ring()
    x, _, _ = R.variables()
    zero = Ideal(R, ())
    unit = Ideal(R, (R.one(),))
    assert regularity(zero, of="ideal") == 1
    assert regularity(zero, of="quotient") == 0
    assert regularity(unit, of="ideal") == 0
    assert regularity(unit, of="quotient") == -1
    # for proper nonzero ideals the two differ by one
    for gens in [(x,), (x * x,)]:
        I = Ideal(R, gens)
        assert regularity(I, of="ideal") == regularity(I, of="quotient") + 1
    with pytest.raises(UsageError):
        regularity(Ideal(R, (x,)), of="both")


def test_unknown_targets_are_rejected_before_any_work(monkeypatch):
    def refused(*args):
        raise AssertionError("work done before the target check")

    monkeypatch.setattr(resolution, "_schreyer_tower", refused)
    R = ring()
    I = Ideal(R, R.variables())
    for call in (betti_table, minimal_free_resolution, regularity):
        with pytest.raises(UsageError, match="unknown resolution target"):
            call(I, of="module")


def test_betti_table_interface():
    t = BettiTable({(0, 0): 1, (1, 2): 3, (2, 3): 2})
    assert beta(t, 1, 2) == 3
    assert beta(t, 5, 5) == 0
    assert t.regularity() == 1
    assert t.projective_dimension() == 2
    grid = t.render()
    assert "total:" in grid and "." in grid
    assert t == BettiTable({(0, 0): 1, (1, 2): 3, (2, 3): 2, (9, 9): 0})
    empty = BettiTable({})
    assert empty.render() == "(zero module)"
    with pytest.raises(UsageError):
        empty.regularity()
    with pytest.raises(UsageError):
        empty.projective_dimension()
    assert FreeModule((0, 1, 1)).rank == 3
