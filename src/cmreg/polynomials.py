"""Sparse multivariate polynomials over a finite field.

A Polynomial maps the packed keys of its ring's order
(``MonomialOrder.pack``) to nonzero raw field coefficients, ints in every
field (see ``fields``); values are immutable once built.  Int comparison of
keys is the order, so the lead term is the largest key, and the key of a
product is the sum of the keys, so the field kernel ``fields._axpy``, the
one product of a monomial and a term dict, adds a key to every key.  Sums,
differences, negation, scaling and products all run through it, and
``monic`` through ``fields._divide``; ``groebner`` and ``resolution``
reduce these dicts as they are.  Only ``orders``, this module, ``groebner``
and ``resolution`` read keys.

At the API a monomial is its exponent tuple: ``PolyRing.monomial``,
``poly``, ``coefficient``, ``lead_monomial`` and ``sorted_terms`` take or
give tuples.  Exponents are checked 16-bit values, the width of a key's
field less its guard bit; a product that reaches ``EXPONENT_LIMIT`` raises
ExponentOverflowError instead of wrapping.  ``lift_polynomial`` moves a
polynomial between rings on the same variables, repacking its keys when
the orders differ.
"""

from __future__ import annotations

import functools

from .errors import UsageError
from .fields import FieldElement, GF, DEFAULT_PRIME, _Texts, _axpy, _divide
from .orders import EXPONENT_LIMIT, GREVLEX, MonomialOrder, word_lcm


class PolyRing:
    """A polynomial ring: variable names, coefficient field, monomial order;
    ``texts`` is the table {packed key: monomial text}."""

    __slots__ = ("names", "field", "order", "nvars", "texts")

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
        self.texts = _Texts(functools.partial(
            _monomial_text, names, self.order.unpack))

    def monomial(self, exps) -> tuple:
        """The exponent tuple ``exps``, checked against the ring."""
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise UsageError("exponent vector has the wrong arity")
        if any(e < 0 or e >= EXPONENT_LIMIT for e in exps):
            raise UsageError("exponents must be 16-bit non-negative integers")
        return exps

    def variable(self, i: int) -> "Polynomial":
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {self.order.pack(exps): self.field.one})

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def constant(self, c) -> "Polynomial":
        raw = self.field.coerce(c)
        if raw == self.field.zero:
            return self.zero()
        return Polynomial(self, {0: raw})  # 1 has key 0 in every order

    def one(self) -> "Polynomial":
        return self.constant(1)

    def poly(self, terms) -> "Polynomial":
        """Build from {exponent tuple: coefficient}; exponents are checked
        and coefficients coerced."""
        pack = self.order.pack
        out = {}
        for exps, c in dict(terms).items():
            raw = self.field.coerce(c)
            if raw != self.field.zero:
                out[pack(self.monomial(exps))] = raw
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
    """Immutable sparse polynomial; ``_terms`` maps packed key -> raw
    coefficient."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self._terms = terms

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

    def _lead_key(self) -> int:
        if not self._terms:
            raise UsageError("the zero polynomial has no lead term")
        return max(self._terms)

    def lead_monomial(self) -> tuple:
        return self.ring.order.unpack(self._lead_key())

    def lead_coefficient(self):
        return self._terms[self._lead_key()]

    def coefficient(self, exps) -> FieldElement:
        key = self.ring.order.pack(self.ring.monomial(exps))
        return FieldElement(self.ring.field,
                            self._terms.get(key, self.ring.field.zero))

    def sorted_terms(self):
        """(exponent tuple, raw coefficient) pairs in strictly descending
        monomial order."""
        unpack = self.ring.order.unpack
        return [(unpack(k), c)
                for k, c in sorted(self._terms.items(), reverse=True)]

    def __add__(self, other):
        other = self._check(other)
        field = self.ring.field
        out = dict(self._terms)
        _axpy(out, field, field.neg(field.one), 0, other._terms)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        out = dict(self._terms)
        _axpy(out, self.ring.field, 1, 0, other._terms)
        return Polynomial(self.ring, out)

    def __neg__(self):
        out = {}
        _axpy(out, self.ring.field, 1, 0, self._terms)
        return Polynomial(self.ring, out)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        other = self._check(other)
        if not self._terms or not other._terms:
            return self.ring.zero()
        order, field = self.ring.order, self.ring.field
        order.check(_reach(order, 0, self._terms)
                    + _reach(order, 0, other._terms))
        # out -= (-c) * u * self for each term c * u of other
        minus = {}
        _axpy(minus, field, 1, 0, other._terms)
        out = {}
        for k, c in minus.items():
            _axpy(out, field, c, k, self._terms)
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
        out = {}
        _axpy(out, field, field.neg(raw), 0, self._terms)
        return Polynomial(self.ring, out)

    def monic(self) -> "Polynomial":
        if not self._terms:
            return self
        lc = self.lead_coefficient()
        if lc == self.ring.field.one:
            return self
        return Polynomial(self.ring, _divide(self.ring.field, self._terms, lc))

    def degree(self):
        if not self._terms:
            return None
        return max(map(self.ring.order.total_degree, self._terms))

    def homogeneous_degree(self):
        """The common total degree of all terms, or None if degrees are mixed
        or the polynomial is zero."""
        degs = set(map(self.ring.order.total_degree, self._terms))
        if len(degs) == 1:
            return degs.pop()
        return None

    def structure_key(self):
        """Hashable identity of the terms, comparable within one ring."""
        return tuple(sorted(self._terms.items()))

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other._terms == self._terms
        )

    def __hash__(self):
        return hash((self.ring, self.structure_key()))

    def __str__(self):
        """The terms in descending order, joined by " + ", each read from
        two tables filled on first use: the ring's ``texts`` {packed key:
        monomial text} and the field's ``texts`` {raw value: coefficient
        text}.  A coefficient 1 is left out before a monomial."""
        if not self._terms:
            return "0"
        terms = self._terms
        monomials, coeffs = self.ring.texts, self.ring.field.texts
        parts = []
        for k in sorted(terms, reverse=True):
            c = terms[k]
            if not k:
                parts.append(coeffs[c])
            elif c == 1:
                parts.append(monomials[k])
            else:
                parts.append(coeffs[c] + "*" + monomials[k])
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self}>"


def _monomial_text(names, unpack, key: int) -> str:
    """The text of the monomial of packed key ``key``, such as x*y^2."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(names, unpack(key)) if e)


# --- term dicts ---

def _reach(order, bits: int, terms: dict) -> int:
    """The fieldwise maximum of the exponent words of the terms' monomials:
    ``(word_u + reach) & guards`` is nonzero exactly when some term times u
    has an exponent at or above EXPONENT_LIMIT."""
    word, guards = order.word, order.guards
    reach = 0
    for k in terms:
        reach = word_lcm(reach, word(k >> bits), guards)
    return reach


def lift_polynomial(f: Polynomial, target: PolyRing) -> Polynomial:
    """f in a ring on the same variables: its keys repacked when the orders
    differ, its coefficients carried into the target field (the same
    field, or an extension of the prime field)."""
    if target.names != f.ring.names:
        raise UsageError("target ring must share variable names")
    terms = f._terms
    if target.order != f.ring.order:
        unpack, pack = f.ring.order.unpack, target.order.pack
        terms = {pack(unpack(k)): c for k, c in terms.items()}
    src, dst = f.ring.field, target.field
    if src != dst:
        terms = {k: dst.coerce(FieldElement(src, c)) for k, c in terms.items()}
    return Polynomial(target, terms)
