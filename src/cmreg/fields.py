"""Exact arithmetic in prime fields GF(p) and small extensions GF(p^k).

Raw element values are ints in every field, 0 the zero and 1 the one: a
residue in range(p) in GF(p), and n + 1 for h^n in GF(p^k), h the first
primitive element in elements() order, where a product adds logs and a sum
reads a Zech logarithm log(1 + h^n) (Huber, IEEE Trans. Inf. Theory 36,
1990) from tables built once per field, which GF caches.  The kernels
``_axpy`` and ``_divide`` read the field's arithmetic once per call and run
one inline loop per kind of field; the reducer, the Schreyer tower and
Polynomial arithmetic are built on them.  Gaussian elimination, ``_rref``,
runs on rows packed into ints over GF(p) with p <= MAX_ORDER from
PACKED_ROWS rows up, and on those kernels on fewer rows and over every
other field.  Multipoint evaluation lives here too:
``values(d)`` gives a polynomial of degree at most d at every element and
``zero_scan(d)`` its zeros, from packed int columns over GF(p) and from
tables of power logs over GF(p^k), built by ``_slots(d)``, which both take
in place of d to share one build.  ``_pmul`` multiplies residue lists by
one big-int product.  Raw values are converted only at the
edges: ``coerce`` (integer constants, power-basis tuples in g, the class of
x modulo ``min_poly``, and FieldElements), ``vector``, ``format_coeff``
(kept in the field's table ``texts``, filled on first use), ``elements()``
(in power-basis tuple order) and ``FieldElement``, which wraps a raw value
for API boundaries and tests.
"""

from __future__ import annotations

import heapq
import random
import sys
from array import array
from operator import mul

from .errors import UsageError

DEFAULT_PRIME = 32003
MAX_EXTENSION_DEGREE = 8
MAX_ORDER = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# Univariate polynomial helpers over GF(p).  Coefficient lists are
# low-degree-first; all inputs are assumed already reduced mod p.

def _strip(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _zmul(a, b):
    """The product of two integer coefficient lists, exact in Z[T]."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _pmul(a, b, p):
    """The product of two lists of residues mod p, as residues with the top
    zeros stripped, by one big-int product (Kronecker substitution): each
    list is packed into an int with one slot per coefficient, and the
    slots of the product hold the coefficients over the integers, each at
    most min(len(a), len(b)) (p - 1)^2, so none carries into the next.
    Slots are 1, 2, 4 or 8 bytes, read through array, or as many bytes as
    that bound needs."""
    n = len(a) + len(b) - 1
    if n <= 0:
        return []
    bound = min(len(a), len(b)) * (p - 1) ** 2
    code = next((t for t in "BHIQ" if bound >> 8 * array(t).itemsize == 0),
                None)
    if code is None:
        w = (bound.bit_length() + 7) // 8
        x = (int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a),
                            "little")
             * int.from_bytes(b"".join(c.to_bytes(w, "little") for c in b),
                              "little")).to_bytes(n * w, "little")
        return _strip([int.from_bytes(x[i:i + w], "little") % p
                       for i in range(0, n * w, w)])
    order = sys.byteorder
    x = (int.from_bytes(array(code, a), order)
         * int.from_bytes(array(code, b), order))
    return _strip([v % p for v in array(
        code, x.to_bytes(n * array(code).itemsize, order))])


def _pmod(a, f, p):
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - df
            for i, fi in enumerate(f):
                a[shift + i] = (a[shift + i] - c * fi) % p
        a.pop()
    return _strip(a)


def _ppowmod(a, e, f, p):
    result = [1]
    base = _pmod(a, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        e >>= 1
    return result


class _Texts(dict):
    """A table filled on first use: a missing key gets ``make(key)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


class FieldElement:
    """A value in a fixed finite field."""

    __slots__ = ("field", "raw")

    def __init__(self, field, raw):
        self.field = field
        self.raw = raw

    def _check(self, other):
        if not isinstance(other, FieldElement):
            other = FieldElement(self.field, self.field.coerce(other))
        if other.field != self.field:
            raise UsageError(
                f"elements of {self.field} and {other.field} cannot be combined"
            )
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.add(self.raw, other.raw))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.sub(self.raw, other.raw))

    def __mul__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.mul(self.raw, other.raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.div(self.raw, other.raw))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.raw))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElement(self.field, self.field.pow_(self.raw, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.raw))

    def is_zero(self):
        return self.raw == self.field.zero

    def __eq__(self, other):
        if isinstance(other, int):
            return self.raw == self.field.coerce(other)
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.field, self.raw))

    def __repr__(self):
        return f"{self.field.format_coeff(self.raw)} in {self.field}"


class PrimeField:
    """GF(p) with raw values in range(p); ``texts`` is the table
    {raw value: ``format_coeff`` text}."""

    __slots__ = ("p", "order", "texts")
    k, zero, one, min_poly, zech = 1, 0, 1, None, None

    def __init__(self, p):
        if not is_prime(p):
            raise UsageError(f"characteristic {p} is not prime")
        self.p = p
        self.order = p
        self.texts = _Texts(str)

    def coerce(self, v):
        if isinstance(v, FieldElement):
            if v.field != self:
                raise UsageError(f"cannot coerce element of {v.field} into {self}")
            return v.raw
        if isinstance(v, int):
            return v % self.p
        raise UsageError(f"cannot coerce {v!r} into {self}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return self.p - a if a else 0

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + str(self))
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_(self, a, e):
        return pow(a, e, self.p)

    def frobenius(self, a):
        return a

    def _slots(self, d):
        """A function from the coefficients of a polynomial of degree at
        most d (raw values, low degree first) to an array whose slot a is
        its value at a, not yet reduced mod p, for a = 0..p-1: the columns
        of ``values`` and ``zero_scan``, which take it in place of d so
        that one build serves both.

        Packed multipoint evaluation: column i, built once, is one int
        holding a^i mod p for a = 0..p-1 in slots of w bytes, w the least of
        1, 2, 4, 8 with (d+1)(p-1)^2 < 2^(8w) (8 serves p <= MAX_ORDER for
        d < 2^32).  A call sums c_i * column i; slot a of the sum is
        sum c_i a^i over the integers, at most (d+1)(p-1)^2, so no slot
        carries into the next."""
        p = self.p
        bound = (d + 1) * (p - 1) ** 2
        code = next(t for t in "BHIQ" if bound >> 8 * array(t).itemsize == 0)
        size = p * array(code).itemsize
        order = sys.byteorder
        columns = [int.from_bytes(array(code, [pow(a, i, p)
                                               for a in range(p)]), order)
                   for i in range(d + 1)]
        return lambda coeffs: array(code, sum(map(mul, coeffs, columns))
                                    .to_bytes(size, order))

    def values(self, d):
        """A function from the coefficients of a polynomial of degree at
        most d (raw values, low degree first) to its values at the elements,
        in elements() order: the slots of ``_slots(d)`` mod p.  d is the
        degree bound, or ``_slots(d)`` already built."""
        p = self.p
        slots = self._slots(d) if isinstance(d, int) else d
        return lambda coeffs: [v % p for v in slots(coeffs)]

    def zero_scan(self, d):
        """A function from the coefficients of a polynomial of degree at
        most d (raw values, low degree first) to its zeros, in elements()
        order, every element for the zero polynomial: the slots of
        ``_slots(d)`` that are 0 mod p.  d is the degree bound, or
        ``_slots(d)`` already built."""
        p = self.p
        slots = self._slots(d) if isinstance(d, int) else d
        return lambda coeffs: [a for a, v in enumerate(slots(coeffs))
                               if not v % p]

    def random(self, rng):
        return rng.randrange(self.p)

    def elements(self):
        return iter(range(self.p))

    def element(self, v):
        return FieldElement(self, self.coerce(v))

    def format_coeff(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField:
    """GF(p^k) as GF(p)[g] modulo a monic irreducible ``min_poly`` of degree
    k, q = p^k <= MAX_ORDER, with raw value n + 1 for h^n and 0 for zero.

    ``zech = (W, Z, m)``: W[a + b] is the product of nonzero raw a and b;
    a + b is W[a + Z[b - a]], or 0 where Z[b - a], the raw 1 + h^(b - a),
    is 0; m is the raw -1.  ``_elements`` lists the raw values in
    power-basis tuple order, and ``_ranks[a]`` is the position of a there.
    ``texts`` is the table {raw value: ``format_coeff`` text}.
    """

    __slots__ = ("p", "k", "order", "min_poly", "zech", "_elements",
                 "_ranks", "texts")
    zero, one = 0, 1

    def __init__(self, p, k, min_poly):
        if not is_prime(p):
            raise UsageError(f"characteristic {p} is not prime")
        if not 2 <= k <= MAX_EXTENSION_DEGREE:
            raise UsageError(
                f"extension degree {k} outside supported range 2..{MAX_EXTENSION_DEGREE}"
            )
        q = p**k
        if q > MAX_ORDER:
            raise UsageError(f"GF({p}^{k}) has {q} elements; extension "
                             f"fields are limited to {MAX_ORDER}")
        self.p = p
        self.k = k
        self.order = q
        self.min_poly = tuple(c % p for c in min_poly)
        if len(self.min_poly) != k + 1 or self.min_poly[-1] != 1:
            raise UsageError("minimal polynomial must be monic of degree k")
        if not _is_irreducible(list(self.min_poly), p):
            raise UsageError("minimal polynomial is reducible")
        self._elements, self._ranks = _discrete_logs(p, k, self.min_poly)
        q1 = q - 1
        # 1 + h^n adds 1 to the constant coefficient of h^n, the leading
        # digit of its rank _ranks[n + 1]
        top = p ** (k - 1)
        zech = [self._elements[r + top if r < q - top else r + top - q]
                for r in self._ranks[1:]]
        self.zech = ([(s - 2) % q1 + 1 for s in range(2 * q)], zech,
                     1 if p == 2 else q1 // 2 + 1)
        self.texts = _Texts(self.format_coeff)

    def coerce(self, v):
        if isinstance(v, FieldElement):
            if v.field == self:
                return v.raw
            if not (isinstance(v.field, PrimeField) and v.field.p == self.p):
                raise UsageError(f"cannot coerce element of {v.field} into {self}")
            v = v.raw
        if isinstance(v, int):
            v = (v,) + (0,) * (self.k - 1)
        if not (isinstance(v, tuple) and len(v) == self.k):
            raise UsageError(f"cannot coerce {v!r} into {self}")
        rank = 0
        for c in v:
            rank = rank * self.p + c % self.p
        return self._elements[rank]

    def vector(self, a):
        """The power-basis coefficients of raw a in g, low degree first."""
        p, k, rank = self.p, self.k, self._ranks[a]
        return tuple(rank // p ** (k - 1 - i) % p for i in range(k))

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        W, Z, _ = self.zech
        z = Z[b - a]
        return W[a + z] if z else 0

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        W, _, m = self.zech
        return W[a + m] if a else 0

    def mul(self, a, b):
        return self.zech[0][a + b] if a and b else 0

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in " + str(self))
        return self.zech[0][self.order + 2 - a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_(self, a, e):
        if not a:
            return 0 if e else 1
        return (a - 1) * e % (self.order - 1) + 1

    def frobenius(self, a):
        return self.pow_(a, self.p)

    def _slots(self, d):
        """A function from the coefficients of a polynomial of degree at
        most d (raw values, low degree first) to its values at the elements,
        in elements() order: the table of ``values`` and ``zero_scan``,
        which take it in place of d so that one build serves both.  Each
        element's powers a^0..a^d are tabulated once, as multiples of its
        log, so each value is a sum of table products through the Zech
        table."""
        W, Z, _ = self.zech
        q1 = self.order - 1
        # the zero element: only the constant term counts
        table = [[(a - 1) * i % q1 + 1 for i in range(d + 1)] if a else [1]
                 for a in self._elements]

        def at(coeffs):
            out = []
            for row in table:
                v = 0
                for c, r in zip(coeffs, row):
                    if c:
                        t = W[c + r]
                        if v:
                            z = Z[t - v]
                            v = W[v + z] if z else 0
                        else:
                            v = t
                out.append(v)
            return out

        return at

    def values(self, d):
        """A function from the coefficients of a polynomial of degree at
        most d (raw values, low degree first) to its values at the elements,
        in elements() order: ``_slots(d)``.  d is the degree bound, or
        ``_slots(d)`` already built."""
        return self._slots(d) if isinstance(d, int) else d

    def zero_scan(self, d):
        """A function from the coefficients of a polynomial of degree at
        most d (raw values, low degree first) to its zeros, in elements()
        order: the elements where ``values`` is 0.  d is the degree bound,
        or ``_slots(d)`` already built."""
        values = self.values(d)
        elements = self._elements
        return lambda coeffs: [a for a, v in zip(elements, values(coeffs))
                               if not v]

    def random(self, rng):
        return self.coerce(tuple(rng.randrange(self.p) for _ in range(self.k)))

    def elements(self):
        return iter(self._elements)

    def element(self, v):
        return FieldElement(self, self.coerce(v))

    def format_coeff(self, a):
        a = self.vector(a)
        if not any(a[1:]):
            return str(a[0])
        return "(" + " + ".join(
            str(c) if i == 0 else ("" if c == 1 else f"{c}*")
            + ("g" if i == 1 else f"g^{i}") for i, c in enumerate(a) if c) + ")"

    def __eq__(self, other):
        return (isinstance(other, ExtensionField)
                and (other.p, other.k, other.min_poly)
                == (self.p, self.k, self.min_poly))

    def __hash__(self):
        return hash(("GF", self.p, self.k, self.min_poly))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


def _discrete_logs(p, k, f):
    """(elements, ranks) of GF(p)[g]/(f): the raw value of each element in
    the order of its power-basis tuple (a_0, ..., a_{k-1}), whose rank is
    a_0 p^(k-1) + ... + a_{k-1}, and the rank of each raw value, for the
    first primitive element h in that order."""
    q = p**k
    weights = [p ** (k - 1 - i) for i in range(k)]
    primes = [r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
    for cand in range(1, q):
        h = [cand // w % p for w in weights]
        if all(_ppowmod(h, (q - 1) // r, f, p) != [1] for r in primes):
            break
    # the columns of the matrix of a -> a h in the power basis
    cols = list(zip(*[(_pmod(_pmul([0] * i + [1], h, p), f, p) + [0] * k)[:k]
                      for i in range(k)]))
    elements = [0] * q
    ranks = [0] * q
    cur = [1] + [0] * (k - 1)
    for n in range(1, q):
        rank = sum(map(mul, cur, weights))
        elements[rank] = n
        ranks[n] = rank
        cur = [sum(map(mul, cur, col)) % p for col in cols]
    return elements, ranks


def _is_irreducible(f, p):
    """f monic of degree k: no irreducible factor of degree <= k/2."""
    k = len(f) - 1
    if k == 1:
        return True
    xq = [0, 1]
    F = GF(p)
    for _ in range(k // 2):
        xq = _ppowmod(xq, p, f, p)
        diff = list(xq) + [0] * (2 - len(xq))
        diff[1] = (diff[1] - 1) % p
        diff = _strip(diff)
        if not diff:
            return False
        if len(_unieuclid(F, f, diff)) != 1:
            return False
    return True


def find_irreducible(p: int, k: int) -> tuple:
    """Deterministic random search for a monic irreducible of degree k over GF(p)."""
    rng = random.Random(p * 1_000_003 + k)
    while True:
        coeffs = [rng.randrange(p) for _ in range(k)] + [1]
        if coeffs[0] == 0:
            continue
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)


# --- the coefficient kernels: term dicts keyed by ints ---

def _axpy(work: dict, field, coeff, shift: int, terms: dict, heap=None):
    """work -= coeff * u * terms, in place, for a nonzero raw ``coeff``,
    where u moves a term key by ``shift``: ``pack(u) << bits`` for the
    term dicts of ``polynomials`` and ``groebner``, 0 for matrix rows keyed
    by column.  The one loop that multiplies a term dict into another; for
    polynomials the caller has checked it for exponent overflow.  When
    ``heap`` is a list, the negated key of every term new to work is pushed
    on it."""
    get = work.get
    push = heapq.heappush
    zech = field.zech
    if zech is None:
        p = field.p
        m = p - coeff
        for k, c in terms.items():
            k += shift
            old = get(k)
            if old is None:
                work[k] = m * c % p
                if heap is not None:
                    push(heap, -k)
            else:
                v = (old + m * c) % p
                if v:
                    work[k] = v
                else:
                    del work[k]
    else:
        W, Z, minus = zech
        m = W[coeff + minus]
        for k, c in terms.items():
            k += shift
            t = W[m + c]
            old = get(k)
            if old is None:
                work[k] = t
                if heap is not None:
                    push(heap, -k)
            else:
                z = Z[t - old]
                if z:
                    work[k] = W[old + z]
                else:
                    del work[k]


def _divide(field, terms: dict, c) -> dict:
    """{key: v / c} over the terms of ``terms``, for a nonzero raw c."""
    zech = field.zech
    if zech is None:
        p = field.p
        inv = pow(c, p - 2, p)
        return {k: v * inv % p for k, v in terms.items()}
    W = zech[0]
    s = field.order + 1 - c
    return {k: W[v + s] for k, v in terms.items()}


def _sparse(values) -> dict:
    """{index: value} of the nonzero raw values of a sequence."""
    return {i: c for i, c in enumerate(values) if c}


def _unieuclid(field, a, b):
    """The monic gcd of two univariate polynomials given as dense lists of
    raw values, low degree first; [] when both are zero.  Each divisor is
    made monic once, and each division step runs inline, mod p on GF(p) and
    through the Zech tables on GF(p^k)."""
    a, b = _strip(list(a)), _strip(list(b))
    if not b:
        a, b = b, a
    zech = field.zech
    while b:
        db = len(b) - 1
        if zech is None:
            p = field.p
            inv = pow(b[-1], p - 2, p)
            b = [c * inv % p for c in b]
            while len(a) > db:
                # cancel the lead of a against b, whose other terms line up
                # with the top db terms of a
                m = p - a.pop()
                shift = len(a) - db
                for i in range(db):
                    a[shift + i] = (a[shift + i] + m * b[i]) % p
                _strip(a)
        else:
            W, Z, minus = zech
            s = field.order + 1 - b[-1]
            b = [W[c + s] if c else 0 for c in b]
            while len(a) > db:
                m = W[a.pop() + minus]
                shift = len(a) - db
                for i in range(db):
                    if b[i]:
                        t = W[m + b[i]]
                        old = a[shift + i]
                        if old:
                            z = Z[t - old]
                            a[shift + i] = W[old + z] if z else 0
                        else:
                            a[shift + i] = t
                _strip(a)
        a, b = b, a
    return a


# --- Gaussian elimination on rows of raw values ---

# the least row count at which _rref runs its packed kernel over GF(p): on
# one to four rows the dict loop is faster, in replays of the _rref calls
# of every perfbench workload
PACKED_ROWS = 5


def _rref(field, rows):
    """Reduced row echelon form, in place, of rows given as dicts {column:
    nonzero raw value}, columns taken in ascending order; returns the pivot
    column list, rows[i] being the row of pivots[i], and the rows after the
    rank end empty.

    Over GF(p) with p <= MAX_ORDER, on PACKED_ROWS rows or more, this is
    _rref_packed.  Every other matrix runs one loop over the dict rows,
    through ``_axpy``."""
    columns = sorted(set().union(*rows))
    if (field.zech is None and field.p <= MAX_ORDER
            and len(rows) >= PACKED_ROWS):
        return _rref_packed(field.p, rows, columns)
    pivots = []
    for col in columns:
        rank = len(pivots)
        hit = next((r for r in range(rank, len(rows)) if col in rows[r]),
                   None)
        if hit is None:
            continue
        row = _divide(field, rows[hit], rows[hit][col])
        rows[hit] = rows[rank]
        rows[rank] = row
        for other in rows:
            if other is not row and col in other:
                _axpy(other, field, other[col], 0, row)
        pivots.append(col)
    return pivots


def _rref_packed(p, rows, columns):
    """_rref over GF(p), p <= MAX_ORDER, on the given ascending columns:
    each row is one int of 8-byte slots, slot j holding the j-th column,
    and each elimination step is one big-int multiply-add: a row whose slot
    holds v != 0 mod p gains (p - v) times the pivot row, which is
    normalized mod p once, as it becomes the pivot.  A slot starts below p
    and gains at most (p-1)^2 per pivot, so over C columns it stays below
    p - 1 + C(p-1)^2 < 2^64 for C < 2^32 and no slot carries into the next;
    a pivot is sought as a slot nonzero mod p, and each row is read mod p
    once at the end."""
    pivots = []
    order = sys.byteorder
    size = 8 * len(columns)
    mask = (1 << 64) - 1
    packed = [int.from_bytes(array("Q", [row.get(c, 0) for c in columns]),
                             order) for row in rows]
    for j, col in enumerate(columns):
        rank = len(pivots)
        if rank == len(packed):
            break  # every row holds a pivot
        shift = 64 * j
        hit = next((r for r in range(rank, len(packed))
                    if (packed[r] >> shift & mask) % p), None)
        if hit is None:
            continue
        slots = array("Q", packed[hit].to_bytes(size, order))
        inv = pow(slots[j] % p, p - 2, p)
        row = int.from_bytes(array("Q", [v * inv % p for v in slots]), order)
        packed[hit] = packed[rank]
        packed[rank] = row
        for r, other in enumerate(packed):
            v = (other >> shift & mask) % p
            if v and r != rank:
                packed[r] = other + (p - v) * row
        pivots.append(col)
    rank = len(pivots)
    for r in range(rank):
        slots = array("Q", packed[r].to_bytes(size, order))
        residues = [v % p for v in slots]
        rows[r] = {c: v for c, v in zip(columns, residues) if v}
    rows[rank:] = [{} for _ in rows[rank:]]
    return pivots


_CACHE: dict = {}


def GF(p: int = DEFAULT_PRIME, k: int = 1, min_poly=None):
    """Field constructor; instances are cached so equal parameters share an
    object, and an extension field's tables are built once."""
    key = (p, k, tuple(min_poly) if min_poly is not None else None)
    if key in _CACHE:
        return _CACHE[key]
    if not 1 <= k <= MAX_EXTENSION_DEGREE:
        raise UsageError(f"extension degree {k} outside the supported range "
                         f"1..{MAX_EXTENSION_DEGREE}")
    if k == 1:
        if min_poly is not None:
            raise UsageError("minimal polynomial only applies to extensions")
        field = PrimeField(p)
    else:
        if min_poly is None:
            min_poly = find_irreducible(p, k)
        field = ExtensionField(p, k, min_poly)
    _CACHE[key] = field
    return field
