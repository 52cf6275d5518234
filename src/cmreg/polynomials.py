"""Sparse multivariate polynomials over a finite field.

A Monomial is an exponent tuple with cached total degree; exponents are
checked 16-bit values, the width of a field of the packed keys in ``orders``
less its guard bit.  A product that reaches ``EXPONENT_LIMIT`` raises
ExponentOverflowError instead of wrapping.  A Polynomial maps Monomials to
nonzero raw field coefficients; values are immutable once built.
"""

from __future__ import annotations

from .errors import ExponentOverflowError, UsageError
from .fields import FieldElement, GF, DEFAULT_PRIME
from .orders import EXPONENT_LIMIT, GREVLEX, MonomialOrder


class Monomial:
    __slots__ = ("exps", "degree", "_hash")

    def __init__(self, exps):
        exps = tuple(exps)
        self.exps = exps
        self.degree = sum(exps)
        self._hash = hash(exps)

    def mul(self, other: "Monomial") -> "Monomial":
        out = tuple(a + b for a, b in zip(self.exps, other.exps))
        for e in out:
            if e >= EXPONENT_LIMIT:
                raise ExponentOverflowError(
                    f"exponent {e} exceeds the 16-bit limit")
        return Monomial(out)

    def divides(self, other: "Monomial") -> bool:
        for a, b in zip(self.exps, other.exps):
            if a > b:
                return False
        return True

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other; caller guarantees divisibility."""
        return Monomial(tuple(a - b for a, b in zip(self.exps, other.exps)))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def gcd(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def coprime(self, other: "Monomial") -> bool:
        for a, b in zip(self.exps, other.exps):
            if a and b:
                return False
        return True

    def is_one(self) -> bool:
        return self.degree == 0

    def __eq__(self, other):
        return isinstance(other, Monomial) and other.exps == self.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Monomial{self.exps}"


class PolyRing:
    """A polynomial ring: variable names, coefficient field, monomial order."""

    __slots__ = ("names", "field", "order", "nvars", "one_monomial")

    def __init__(self, names, field=None, order=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise UsageError("variable names must be distinct")
        if not names:
            raise UsageError("a ring needs at least one variable")
        self.names = names
        self.field = field if field is not None else GF(DEFAULT_PRIME)
        self.nvars = len(names)
        self.order = order if order is not None else MonomialOrder(GREVLEX, self.nvars)
        if self.order.nvars != self.nvars:
            raise UsageError("order arity does not match the ring")
        self.one_monomial = Monomial((0,) * self.nvars)

    def monomial(self, exps) -> Monomial:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise UsageError("exponent vector has the wrong arity")
        if any(e < 0 or e >= EXPONENT_LIMIT for e in exps):
            raise UsageError("exponents must be 16-bit non-negative integers")
        return Monomial(exps)

    def variable(self, i: int) -> "Polynomial":
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {Monomial(tuple(exps)): self.field.one})

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def constant(self, c) -> "Polynomial":
        raw = self.field.coerce(c)
        if raw == self.field.zero:
            return self.zero()
        return Polynomial(self, {self.one_monomial: raw})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def poly(self, terms) -> "Polynomial":
        """Build from {Monomial or exps: coefficient}; exponents are checked
        and coefficients coerced."""
        out = {}
        for mon, c in dict(terms).items():
            mon = self.monomial(getattr(mon, "exps", mon))
            raw = self.field.coerce(c)
            if raw != self.field.zero:
                out[mon] = raw
        return Polynomial(self, out)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.names == self.names
            and other.field == self.field
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.names, self.field, self.order))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.names)}] ({self.order.kind})"


class Polynomial:
    """Immutable sparse polynomial; ``_terms`` maps Monomial -> raw coefficient."""

    __slots__ = ("ring", "_terms", "_lead")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self._terms = terms
        self._lead = None

    def _check(self, other):
        if not isinstance(other, Polynomial):
            return self.ring.constant(other)
        if other.ring != self.ring:
            raise UsageError("polynomials live in different rings")
        return other

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def lead_monomial(self) -> Monomial:
        if not self._terms:
            raise UsageError("the zero polynomial has no lead term")
        if self._lead is None:
            pack = self.ring.order.pack
            self._lead = max(self._terms, key=lambda m: pack(m.exps))
        return self._lead

    def lead_coefficient(self):
        return self._terms[self.lead_monomial()]

    def coefficient(self, mon: Monomial) -> FieldElement:
        raw = self._terms.get(mon, self.ring.field.zero)
        return FieldElement(self.ring.field, raw)

    def sorted_terms(self):
        """Terms in strictly descending monomial order."""
        pack = self.ring.order.pack
        return sorted(self._terms.items(), key=lambda t: pack(t[0].exps), reverse=True)

    def __add__(self, other):
        other = self._check(other)
        field = self.ring.field
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = field.add(out.get(m, field.zero), c)
            if s == field.zero:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        field = self.ring.field
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = field.sub(out.get(m, field.zero), c)
            if s == field.zero:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    def __neg__(self):
        field = self.ring.field
        return Polynomial(self.ring, {m: field.neg(c) for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        other = self._check(other)
        if not self._terms or not other._terms:
            return self.ring.zero()
        field = self.ring.field
        out = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1.mul(m2)
                s = field.add(out.get(m, field.zero), field.mul(c1, c2))
                if s == field.zero:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise UsageError("negative polynomial powers are not defined")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        field = self.ring.field
        raw = field.coerce(c)
        if raw == field.zero:
            return self.ring.zero()
        return Polynomial(self.ring, {m: field.mul(v, raw) for m, v in self._terms.items()})

    def monic(self) -> "Polynomial":
        if not self._terms:
            return self
        lc = self.lead_coefficient()
        if lc == self.ring.field.one:
            return self
        return self.scale(FieldElement(self.ring.field, self.ring.field.inv(lc)))

    def degree(self):
        if not self._terms:
            return None
        return max(m.degree for m in self._terms)

    def homogeneous_degree(self):
        """The common total degree of all terms, or None if degrees are mixed
        or the polynomial is zero."""
        degs = {m.degree for m in self._terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self) -> bool:
        return len({m.degree for m in self._terms}) <= 1

    def structure_key(self):
        """Hashable canonical identity: ring-independent sorted term tuple."""
        return tuple(sorted((m.exps, c) for m, c in self._terms.items()))

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other._terms == self._terms
        )

    def __hash__(self):
        return hash((self.ring, self.structure_key()))

    def __str__(self):
        if not self._terms:
            return "0"
        field = self.ring.field
        names = self.ring.names
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for name, e in zip(names, m.exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            cs = field.format_coeff(c)
            if not factors:
                parts.append(cs)
            elif c == field.one:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([cs] + factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self}>"


def _lift_coeff(src_field, dst_field, raw):
    """Carry a raw coefficient into a target field (same field, or prime into
    its extension)."""
    if src_field == dst_field:
        return raw
    return dst_field.coerce(FieldElement(src_field, raw))


def lift_polynomial(f: Polynomial, target: PolyRing) -> Polynomial:
    """Reinterpret f in a ring with the same variables over an extension field."""
    if target.names != f.ring.names:
        raise UsageError("target ring must share variable names")
    out = {}
    for m, c in f._terms.items():
        out[m] = _lift_coeff(f.ring.field, target.field, c)
    return Polynomial(target, out)
