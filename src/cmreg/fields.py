"""Exact arithmetic in prime fields GF(p) and small extensions GF(p^k).

Raw element values are plain ints for GF(p) and coefficient tuples of length k
for GF(p^k); the polynomial layer stores raw values and calls the field's
methods directly.  ``FieldElement`` wraps a raw value for use at API
boundaries and in tests.
"""

from __future__ import annotations

import random
from operator import mul

from .errors import UsageError

DEFAULT_PRIME = 32003
MAX_EXTENSION_DEGREE = 8


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

def _norm(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _norm(out)


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
    return _norm(a)


def _ppowmod(a, e, f, p):
    result = [1]
    base = _pmod(a, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        e >>= 1
    return result


def _pxgcd(a, f, p):
    """Inverse of a modulo f (both reduced, f monic irreducible)."""
    r0, r1 = list(f), list(a)
    s0, s1 = [], [1]
    while r1:
        # divide r0 by r1
        q = [0] * max(len(r0) - len(r1) + 1, 0)
        r = list(r0)
        d1 = len(r1) - 1
        inv_lead = pow(r1[-1], p - 2, p)
        while r and len(r) - 1 >= d1:
            c = (r[-1] * inv_lead) % p
            shift = len(r) - 1 - d1
            if c:
                q[shift] = c
                for i, ci in enumerate(r1):
                    r[shift + i] = (r[shift + i] - c * ci) % p
            r.pop()
            _norm(r)
        r0, r1 = r1, _norm(r)
        q = _norm(q)
        new_s = [x % p for x in _psub(s0, _pmul(q, s1, p), p)]
        s0, s1 = s1, _norm(new_s)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    inv_lead = pow(r0[0], p - 2, p)
    return _norm([(c * inv_lead) % p for c in s0])


def _psub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return out


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
    """GF(p) with raw values in range(p)."""

    __slots__ = ("p", "k", "order", "zero", "one", "min_poly")

    def __init__(self, p):
        if not is_prime(p):
            raise UsageError(f"characteristic {p} is not prime")
        self.p = p
        self.k = 1
        self.order = p
        self.zero = 0
        self.one = 1
        self.min_poly = None

    def coerce(self, v):
        if isinstance(v, FieldElement):
            if v.field != self:
                raise UsageError(f"cannot coerce element of {v.field} into {self}")
            return v.raw
        if isinstance(v, int):
            return v % self.p
        raise UsageError(f"cannot coerce {v!r} into {self}")

    def add(self, a, b):
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a, b):
        d = a - b
        return d + self.p if d < 0 else d

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

    def zero_scan(self, d):
        """A function from the coefficients of a polynomial of degree at
        most d (raw values, low degree first) to its zeros, in elements()
        order; every element is a zero of the zero polynomial.  The table
        of the powers a^0..a^d of every element a is built here, once, so
        each evaluation is one sum of raw int products."""
        p = self.p
        table = [[pow(a, i, p) for i in range(d + 1)] for a in range(p)]

        def zeros(coeffs):
            return [a for a, row in enumerate(table)
                    if not sum(map(mul, coeffs, row)) % p]

        return zeros

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
    """GF(p^k) as GF(p)[g] modulo a monic irreducible ``min_poly`` of degree k.

    Raw values are tuples of k ints, low-degree-first coefficients in g.
    """

    __slots__ = ("p", "k", "order", "min_poly", "zero", "one", "_red")

    def __init__(self, p, k, min_poly):
        if not is_prime(p):
            raise UsageError(f"characteristic {p} is not prime")
        if not 2 <= k <= MAX_EXTENSION_DEGREE:
            raise UsageError(
                f"extension degree {k} outside supported range 2..{MAX_EXTENSION_DEGREE}"
            )
        self.p = p
        self.k = k
        self.order = p**k
        self.min_poly = tuple(c % p for c in min_poly)
        if len(self.min_poly) != k + 1 or self.min_poly[-1] != 1:
            raise UsageError("minimal polynomial must be monic of degree k")
        if not _is_irreducible(list(self.min_poly), p):
            raise UsageError("minimal polynomial is reducible")
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        # reduction rows: g^(k+i) expressed in the power basis, i = 0..k-2
        rows = []
        cur = [(-c) % p for c in self.min_poly[:-1]]
        rows.append(tuple(cur))
        for _ in range(k - 2):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                for j in range(k):
                    nxt[j] = (nxt[j] - top * self.min_poly[j]) % p
            # the shift above multiplied by g and reduced the overflow term
            cur = [c % p for c in nxt]
            rows.append(tuple(cur))
        self._red = rows

    def coerce(self, v):
        if isinstance(v, FieldElement):
            if v.field == self:
                return v.raw
            if isinstance(v.field, PrimeField) and v.field.p == self.p:
                return (v.raw,) + (0,) * (self.k - 1)
            raise UsageError(f"cannot coerce element of {v.field} into {self}")
        if isinstance(v, int):
            return (v % self.p,) + (0,) * (self.k - 1)
        if isinstance(v, tuple) and len(v) == self.k:
            return tuple(c % self.p for c in v)
        raise UsageError(f"cannot coerce {v!r} into {self}")

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
        out = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        low = [c % p for c in out[:k]]
        for i in range(k - 1):
            c = out[k + i] % p
            if c:
                row = self._red[i]
                for j in range(k):
                    low[j] = (low[j] + c * row[j]) % p
        return tuple(low)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero in " + str(self))
        coeffs = _pxgcd(_norm(list(a)), list(self.min_poly), self.p)
        coeffs = coeffs + [0] * (self.k - len(coeffs))
        return tuple(coeffs)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_(self, a, e):
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a):
        return self.pow_(a, self.p)

    def zero_scan(self, d):
        """A function from the coefficients of a polynomial of degree at
        most d (raw values, low degree first) to its zeros, in elements()
        order, by Horner's rule at every element."""
        elems = list(self.elements())
        zero, add, mul_ = self.zero, self.add, self.mul

        def zeros(coeffs):
            out = []
            for a in elems:
                v = zero
                for c in reversed(coeffs):
                    v = add(mul_(v, a), c)
                if v == zero:
                    out.append(a)
            return out

        return zeros

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def elements(self):
        def gen(prefix, left):
            if left == 0:
                yield tuple(prefix)
                return
            for c in range(self.p):
                yield from gen(prefix + [c], left - 1)

        return gen([], self.k)

    def element(self, v):
        return FieldElement(self, self.coerce(v))

    def format_coeff(self, a):
        if all(c == 0 for c in a[1:]):
            return str(a[0])
        parts = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("g" if c == 1 else f"{c}*g")
            else:
                parts.append(f"g^{i}" if c == 1 else f"{c}*g^{i}")
        return "(" + " + ".join(parts) + ")"

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.k == self.k
            and other.min_poly == self.min_poly
        )

    def __hash__(self):
        return hash(("GF", self.p, self.k, self.min_poly))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


def _is_irreducible(f, p):
    """f monic of degree k: no irreducible factor of degree <= k/2."""
    k = len(f) - 1
    if k == 1:
        return True
    xq = [0, 1]
    for _ in range(k // 2):
        xq = _ppowmod(xq, p, f, p)
        diff = list(xq) + [0] * (2 - len(xq))
        diff[1] = (diff[1] - 1) % p
        diff = _norm(diff)
        if not diff:
            return False
        if len(_unieuclid(GF(p), f, diff)) != 1:
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


# --- univariate Euclid on raw values, over any field ---

def _unieuclid(field, a, b):
    """gcd, up to a unit, of two dense univariate lists of raw values, low
    degree first; [] when both are zero.  Each divisor's lead is inverted
    once for the whole division."""
    zero = field.zero
    sub, mul = field.sub, field.mul
    a = list(a)
    b = list(b)
    while a and a[-1] == zero:
        a.pop()
    while b and b[-1] == zero:
        b.pop()
    if len(a) < len(b):
        a, b = b, a
    while b:
        db = len(b) - 1
        inv_lead = field.inv(b[-1])
        while len(a) > db:
            # cancel the lead of a, which is nonzero, against b; the rest
            # of b lines up with the top db entries of a
            c = mul(a.pop(), inv_lead)
            shift = len(a) - db
            for i in range(db):
                a[shift + i] = sub(a[shift + i], mul(c, b[i]))
            while a and a[-1] == zero:
                a.pop()
        a, b = b, a
    return a


# --- Gaussian elimination on rows of raw values ---

def _rref(field, rows):
    """In-place reduced row echelon form; returns the pivot column list."""
    pivots = []
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        hit = None
        for r in range(rank, len(rows)):
            if rows[r][col] != field.zero:
                hit = r
                break
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != field.zero:
                factor = rows[r][col]
                rows[r] = [field.sub(a, field.mul(factor, b))
                           for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return pivots


def _rank(field, rows) -> int:
    return len(_rref(field, [list(r) for r in rows]))


_CACHE: dict = {}


def GF(p: int = DEFAULT_PRIME, k: int = 1, min_poly=None):
    """Field constructor; instances are cached so equal parameters share an object."""
    key = (p, k, tuple(min_poly) if min_poly is not None else None)
    if key in _CACHE:
        return _CACHE[key]
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
