import itertools
import random

import pytest

from cmreg import fields
from cmreg.errors import UsageError
from cmreg.fields import (
    GF,
    MAX_EXTENSION_DEGREE,
    FieldElement,
    find_irreducible,
    is_prime,
)

from oracle import gf_echelon, gf_format, gf_mul


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 32003, 101}
    for n in range(2, 40):
        assert is_prime(n) == all(n % d for d in range(2, n))
    for n in primes:
        assert is_prime(n)
    assert not is_prime(1)
    assert not is_prime(32001)  # 3 * 10667


def test_constructor_caches_and_validates():
    assert GF(7) is GF(7)
    assert GF(7, 2) is GF(7, 2)
    assert GF(7) is not GF(11)
    with pytest.raises(UsageError):
        GF(6)
    with pytest.raises(UsageError):
        GF(7, MAX_EXTENSION_DEGREE + 1)
    with pytest.raises(UsageError):
        GF(7, 1, min_poly=(1, 1))


def test_extension_degree_is_checked_before_the_polynomial_search(
        monkeypatch):
    def refused(p, k):
        raise AssertionError("searched before the degree check")

    monkeypatch.setattr(fields, "find_irreducible", refused)
    for k in (-1, 0, MAX_EXTENSION_DEGREE + 1):
        with pytest.raises(UsageError, match="extension degree"):
            GF(7, k)
    # so are the characteristic and the order
    with pytest.raises(UsageError, match="characteristic 6 is not prime"):
        GF(6, 2)
    for p, k in ((257, 2), (65537, 2), (10**9 + 7, 8)):
        with pytest.raises(UsageError,
                           match=f"elements; extension fields are limited "
                                 f"to {fields.MAX_ORDER}$"):
            GF(p, k)


def test_prime_field_arithmetic_matches_int_mod_p():
    F = GF(13)
    for a in range(13):
        for b in range(13):
            assert F.add(a, b) == (a + b) % 13
            assert F.sub(a, b) == (a - b) % 13
            assert F.mul(a, b) == a * b % 13
            if b:
                assert F.mul(F.div(a, b), b) == a
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def field_axioms_sample(F, rng, trials=200):
    els = [F.random(rng) for _ in range(trials)]
    for i in range(0, trials - 2, 3):
        a, b, c = els[i], els[i + 1], els[i + 2]
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one


def test_extension_field_axioms_sampled():
    rng = random.Random(0)
    for p, k in [(2, 3), (3, 2), (5, 4), (7, 2)]:
        field_axioms_sample(GF(p, k), rng)


def test_extension_field_multiplicative_order():
    # the unit group of GF(2^4) is cyclic of order 15
    F = GF(2, 4)
    nonzero = [a for a in F.elements() if a != F.zero]
    assert len(nonzero) == 15
    for a in nonzero:
        assert F.pow_(a, 15) == F.one
    orders = set()
    for a in nonzero:
        o = 1
        cur = a
        while cur != F.one:
            cur = F.mul(cur, a)
            o += 1
        orders.add(o)
    assert 15 in orders  # a generator exists


def test_frobenius_is_additive_and_fixes_prime_subfield():
    F = GF(3, 3)
    rng = random.Random(1)
    for _ in range(50):
        a, b = F.random(rng), F.random(rng)
        assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
        assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))
    for c in range(3):
        raw = F.coerce(c)
        assert F.frobenius(raw) == raw
    # frobenius iterated k times is the identity
    for _ in range(20):
        a = F.random(rng)
        cur = a
        for _ in range(F.k):
            cur = F.frobenius(cur)
        assert cur == a


def test_coercion_rules():
    F7 = GF(7)
    F49 = GF(7, 2)
    assert F49.vector(F49.coerce(9)) == (2, 0)
    assert F49.vector(F49.coerce(F7.element(3))) == (3, 0)
    assert F49.vector(F49.coerce((8, 7))) == (1, 0)
    with pytest.raises(UsageError):
        F49.coerce(GF(5).element(1))
    with pytest.raises(UsageError):
        F7.coerce("x")


def test_field_element_operators():
    F = GF(11)
    a = F.element(4)
    b = F.element(9)
    assert (a + b).raw == 2
    assert (a - b).raw == 6
    assert (a * b).raw == 3
    assert (a / b).raw == F.div(4, 9)
    assert (-a).raw == 7
    assert (a ** 5).raw == pow(4, 5, 11)
    assert (a ** -1).raw == F.inv(4)
    assert a + 7 == F.element(0)
    assert a != b and a == F.element(4) and a == 4
    assert hash(a) == hash(F.element(4))
    with pytest.raises(UsageError):
        a + GF(5).element(1)


def test_find_irreducible_is_deterministic_and_valid():
    f1 = find_irreducible(5, 3)
    f2 = find_irreducible(5, 3)
    assert f1 == f2
    assert len(f1) == 4 and f1[-1] == 1
    # degree-3 irreducible over GF(5): no roots in GF(5)
    for r in range(5):
        assert sum(c * r**i for i, c in enumerate(f1)) % 5 != 0


def test_element_repr_and_formatting():
    F = GF(7, 2)
    g = FieldElement(F, F.coerce((0, 1)))
    assert "g" in repr(g)
    assert F.format_coeff(F.coerce((3, 0))) == "3"
    assert F.format_coeff(F.coerce((0, 2))) == "(2*g)"
    assert F.format_coeff(F.coerce((1, 1))) == "(1 + g)"


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 3), (7, 2)])
def test_zech_arithmetic_matches_the_schoolbook_oracle(p, k):
    # every sum, product and inverse of the Zech-log representation against
    # schoolbook arithmetic on power-basis tuples; elements() runs in tuple
    # order, and every element prints as its tuple does
    F = GF(p, k)
    els = list(F.elements())
    tuples = list(itertools.product(range(p), repeat=k))
    assert [F.vector(a) for a in els] == tuples
    assert [F.format_coeff(a) for a in els] == [gf_format(t) for t in tuples]
    assert els[0] == F.zero and F.vector(F.one) == tuples[p ** (k - 1)]
    for a, ta in zip(els, tuples):
        for b, tb in zip(els, tuples):
            assert F.vector(F.add(a, b)) == tuple(
                (x + y) % p for x, y in zip(ta, tb))
            assert F.vector(F.mul(a, b)) == gf_mul(ta, tb, F.min_poly, p)
        if a != F.zero:
            assert gf_mul(ta, F.vector(F.inv(a)), F.min_poly, p) == \
                tuples[p ** (k - 1)]
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


def test_extension_fields_are_capped_at_65536_elements():
    assert GF(2, 8).order == 256 and GF(251, 2).order == 63001
    for p, k in [(257, 2), (41, 3), (17, 4), (7, 6), (5, 7)]:
        with pytest.raises(UsageError, match="limited to 65536"):
            GF(p, k)


@pytest.mark.parametrize("p", [2, 101, 65521, 65537, 2**32 + 15])
def test_pmul_matches_the_integer_product_mod_p(p):
    # the packed product of residue lists against the schoolbook product
    # over Z reduced mod p: 1-byte slots for p = 2, wider ones up to 8
    # bytes, and slots past 8 bytes for p above 2^32; empty lists, lists
    # with top zeros and zero products strip to [] or their true length
    assert is_prime(p)
    rng = random.Random(p)

    def want(a, b):
        out = [c % p for c in fields._zmul(a, b)]
        while out and out[-1] == 0:
            out.pop()
        return out

    cases = [([], []), ([], [1, 2]), ([3 % p], []), ([0], [0, 0]),
             ([1, 0, 0], [p - 1]), ([0, 0], [1, 1, 0])]
    for _ in range(40):
        a = [rng.randrange(p) for _ in range(rng.randint(1, 20))]
        b = [rng.randrange(p) for _ in range(rng.randint(1, 20))]
        if rng.random() < 0.3:
            a += [0] * rng.randint(1, 3)
        cases.append((a, b))
    cases.append(([p - 1] * 30, [p - 1] * 30))
    for a, b in cases:
        assert fields._pmul(a, b, p) == want(a, b), (a, b)


def _echelon_cases(p, rng):
    """Seeded sparse and dense matrices over GF(p), as (columns, dense
    rows): the column labels are arbitrary ints, in ascending order."""
    cases = []
    for density in (0.15, 0.5, 1.0):
        for _ in range(12):
            n, m = rng.randint(1, 9), rng.randint(1, 12)
            columns = sorted(rng.sample(range(-10**12, 10**12), m))
            rows = [[rng.randrange(1, p) if rng.random() < density else 0
                     for _ in range(m)] for _ in range(n)]
            if n > 1 and rng.random() < 0.5:
                # a dependent row: the rank falls below the row count
                c = rng.randrange(1, p)
                rows.append([(a + c * b) % p for a, b in zip(rows[0], rows[1])])
            cases.append((columns, rows))
    return cases


def _counted_axpy(monkeypatch):
    """The number of _axpy calls, which only the dict loop of _rref makes."""
    calls = []
    axpy = fields._axpy

    def counted(*args, **kwargs):
        calls.append(1)
        return axpy(*args, **kwargs)

    monkeypatch.setattr(fields, "_axpy", counted)
    return calls


def _short_cases(p, rng):
    """Seeded matrices of one to three rows over GF(p), as _echelon_cases
    gives them: a zero row, a dependent row and a single entry included."""
    cases = []
    for n in (1, 2, 3):
        for density in (0.3, 1.0):
            for _ in range(4):
                m = rng.randint(1, 8)
                columns = sorted(rng.sample(range(-10**12, 10**12), m))
                rows = [[rng.randrange(1, p) if rng.random() < density
                         else 0 for _ in range(m)] for _ in range(n)]
                cases.append((columns, rows))
        columns = sorted(rng.sample(range(-10**12, 10**12), 5))
        row = [rng.randrange(1, p) for _ in columns]
        c = rng.randrange(1, p)
        cases.append((columns, [row] + [[c * v % p for v in row]] * (n - 1)))
        cases.append((columns, [[0] * 5] * (n - 1) + [[0, 0, c, 0, 0]]))
    return cases


@pytest.mark.parametrize("p", [2, 3, 101, 32003, 65521, 65537])
def test_rref_matches_the_oracle_echelon(monkeypatch, p):
    # the pivots and the nonzero rows of _rref against dense Gaussian
    # elimination in the oracle, with the rows after the rank left empty;
    # GF(p) with p <= 65536 runs the packed kernel on PACKED_ROWS rows or
    # more and the dict loop on fewer, GF(65537) the dict loop always; the
    # short cases are matrices of 1-3 rows, as most fiber forms and engine
    # blocks are
    packed = []
    kernel = fields._rref_packed

    def counted(*args):
        packed.append(1)
        return kernel(*args)

    monkeypatch.setattr(fields, "_rref_packed", counted)
    rng = random.Random(p)
    ran = set()
    for columns, dense in _echelon_cases(p, rng) + _short_cases(p, rng):
        rows = [{c: v for c, v in zip(columns, row) if v} for row in dense]
        before = len(packed)
        pivots = fields._rref(GF(p), rows)
        want, want_pivots = gf_echelon(p, dense)
        assert pivots == [columns[j] for j in want_pivots]
        assert rows[:len(pivots)] == [
            {c: v for c, v in zip(columns, row) if v} for row in want]
        assert rows[len(pivots):] == [{}] * (len(rows) - len(pivots))
        is_packed = len(packed) - before == 1
        assert is_packed == (p <= fields.MAX_ORDER
                             and len(dense) >= fields.PACKED_ROWS), dense
        ran.add(is_packed)
    assert ran == ({False, True} if p <= fields.MAX_ORDER else {False})


def test_rref_slots_grow_past_32_bits_without_carrying():
    # dense GF(65521) matrices with every entry near p - 1: every row takes
    # a step of about p^2 ~ 2^32 at every pivot, so a slot grows far past
    # 2^32 and would carry into the next in 4-byte slots
    p = 65521
    rng = random.Random(65521)
    for n in (6, 12, 20):
        dense = [[rng.randrange(p - 9, p) for _ in range(n + 2)]
                 for _ in range(n)]
        rows = [dict(enumerate(row)) for row in dense]
        pivots = fields._rref(GF(p), rows)
        want, want_pivots = gf_echelon(p, dense)
        assert pivots == want_pivots and len(pivots) == n
        assert rows == [dict((j, v) for j, v in enumerate(row) if v)
                        for row in want]


def _gfq_echelon(F, rows):
    """Reduced row echelon form over GF(p^k) on power-basis tuples, by
    schoolbook arithmetic in the oracle: (nonzero rows, pivot columns)."""
    p, f = F.p, F.min_poly
    zero = (0,) * F.k
    one = (1,) + (0,) * (F.k - 1)
    elements = list(itertools.product(range(p), repeat=F.k))

    def sub(a, b):
        return tuple((x - y) % p for x, y in zip(a, b))

    def inv(a):
        return next(b for b in elements if gf_mul(a, b, f, p) == one)

    mat = [list(row) for row in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        rank = len(pivots)
        hit = next((r for r in range(rank, len(mat)) if mat[r][col] != zero),
                   None)
        if hit is None:
            continue
        mat[rank], mat[hit] = mat[hit], mat[rank]
        s = inv(mat[rank][col])
        mat[rank] = [gf_mul(s, a, f, p) for a in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != zero:
                c = mat[r][col]
                mat[r] = [sub(a, gf_mul(c, b, f, p))
                          for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat[:len(pivots)], pivots


@pytest.mark.parametrize("p,k", [(2, 3), (5, 2)])
def test_rref_over_an_extension_field_runs_the_dict_loop(monkeypatch, p, k):
    # GF(p^k) takes the dict loop, through _axpy, and agrees with
    # schoolbook elimination on power-basis tuples
    calls = _counted_axpy(monkeypatch)
    F = GF(p, k)
    rng = random.Random(31 * p + k)
    tuples = list(itertools.product(range(p), repeat=k))
    for density in (0.3, 1.0):
        for _ in range(10):
            n, m = rng.randint(1, 6), rng.randint(1, 8)
            dense = [[rng.choice(tuples[1:]) if rng.random() < density
                      else tuples[0] for _ in range(m)] for _ in range(n)]
            rows = [{j: F.coerce(t) for j, t in enumerate(row) if any(t)}
                    for row in dense]
            pivots = fields._rref(F, rows)
            want, want_pivots = _gfq_echelon(F, dense)
            assert pivots == want_pivots
            assert [{j: F.vector(v) for j, v in row.items()}
                    for row in rows[:len(pivots)]] == [
                {j: t for j, t in enumerate(row) if any(t)} for row in want]
            assert not any(rows[len(pivots):])
    assert calls
