"""Global monomial orders: grevlex (default), lex, grlex.

Each order is defined once, by ``pack(exponents)``: one int per monomial,
larger for larger monomials, so ``max`` and ``sorted`` take it as their
key.  It orders exponents in [0, EXPONENT_LIMIT) only; ``compare``, which
takes raw tuples, checks that range.  ``degree(exponents)`` is the
grading the Buchberger engine selects pairs by, and ``total_degree(key)``
reads the standard degree off a key.  A variable precedence
permutation may be supplied; the default is declaration order (first
variable largest).  Polynomials, the reducer in ``groebner`` and the
Schreyer tower in ``resolution`` key their terms by packed keys:

- int comparison of packed keys is the order's comparison;
- ``pack(a*b) = pack(a) + pack(b)``, so multiplying a term by u adds
  ``pack(u)`` to its key.

The exponents, permuted by the precedence, sit in ``FIELD_BITS``-bit fields
of an int P, the *word*: 16 bits for an exponent below ``EXPONENT_LIMIT``
and one guard bit above them.  With M = 2^(17 n), grevlex packs
``deg*M - P`` with the last variable's field most significant; lex packs P
with the first variable's field most significant, and grlex ``deg*M + P``.
An ``EliminationOrder`` adds the eliminated block's degree above the
grevlex key.  ``word(key)`` recovers P (for grevlex ``(-key) mod M``), and
on words:

- a divides b exactly when ``((b | G) - a) & G == G``, G the guard bits:
  no field borrows from the next, so a guard bit is cleared exactly where
  a's exponent exceeds b's;
- the word of a product is the sum of the words, and an exponent at or
  above ``EXPONENT_LIMIT`` sets its field's guard bit; ``check`` turns that
  into ``ExponentOverflowError``;
- ``word_lcm`` takes the fieldwise maximum.
"""

from __future__ import annotations

from .errors import ExponentOverflowError, UsageError

GREVLEX = "grevlex"
LEX = "lex"
GRLEX = "grlex"

ORDER_KINDS = (GREVLEX, LEX, GRLEX)

# exponents are 16-bit; a packed field adds one guard bit above them
EXPONENT_LIMIT = 1 << 16
FIELD_BITS = 17
_FIELD = (1 << FIELD_BITS) - 1


def word_lcm(a: int, b: int, guards: int) -> int:
    """The fieldwise maximum of two exponent words without guard bits."""
    ge = ((a | guards) - b) & guards  # guard bits of the fields where a >= b
    keep = ge - (ge >> (FIELD_BITS - 1))  # the exponent bits of those fields
    return (a & keep) | (b & ~keep)


class MonomialOrder:
    __slots__ = ("kind", "nvars", "precedence", "_identity", "width",
                 "guards", "negated", "mask")

    def __init__(self, kind: str, nvars: int, precedence=None):
        if kind not in ORDER_KINDS:
            raise UsageError(f"unknown monomial order {kind!r}")
        if precedence is None:
            precedence = tuple(range(nvars))
        else:
            precedence = tuple(precedence)
            if sorted(precedence) != list(range(nvars)):
                raise UsageError("precedence must permute the variable indices")
        self.kind = kind
        self.nvars = nvars
        self.precedence = precedence
        self._identity = precedence == tuple(range(nvars))
        self.width = FIELD_BITS * nvars
        self.guards = sum(EXPONENT_LIMIT << (FIELD_BITS * i)
                          for i in range(nvars))
        self.negated = kind == GREVLEX  # whether word(key) negates the key
        self.mask = (1 << self.width) - 1

    def degree(self, exps) -> int:
        """The standard degree: every variable has weight 1."""
        return sum(exps)

    def total_degree(self, key: int) -> int:
        """The sum of the exponents of the monomial of packed key ``key``:
        the int above the word for grevlex (rounded up, as the word is
        subtracted) and grlex, the sum of the word's fields for lex."""
        if self.kind == LEX:
            return sum(self.exponents(key))
        return (key + self.mask if self.negated else key) >> self.width

    def pack(self, exps) -> int:
        """The packed key of an exponent vector (see the module docstring)."""
        if not self._identity:
            exps = tuple(exps[i] for i in self.precedence)
        word = 0
        if self.kind == GREVLEX:
            for e in reversed(exps):
                word = word << FIELD_BITS | e
            return (sum(exps) << self.width) - word
        for e in exps:
            word = word << FIELD_BITS | e
        if self.kind == LEX:
            return word
        return (sum(exps) << self.width) + word

    def word(self, key: int) -> int:
        """The exponent fields P of a packed key, or of a sum of them."""
        return (-key if self.negated else key) & self.mask

    def exponents(self, word: int) -> tuple:
        """The exponent vector, in variable order, of a word."""
        fields = []
        for _ in range(self.nvars):
            fields.append(word & _FIELD)
            word >>= FIELD_BITS
        if not self.negated:
            fields.reverse()  # lex layouts put the first variable on top
        if self._identity:
            return tuple(fields)
        exps = [0] * self.nvars
        for e, i in zip(fields, self.precedence):
            exps[i] = e
        return tuple(exps)

    def unpack(self, key: int) -> tuple:
        return self.exponents(self.word(key))

    def check(self, word: int) -> None:
        """Raise ExponentOverflowError when ``word``, a sum of two words,
        has a field at or above EXPONENT_LIMIT."""
        if word & self.guards:
            e = next(e for e in self.exponents(word) if e >= EXPONENT_LIMIT)
            raise ExponentOverflowError(
                f"exponent {e} exceeds the 16-bit limit")

    def compare(self, a, b) -> int:
        """-1, 0 or +1 as a <, =, > b, for exponent tuples whose exponents
        lie in [0, EXPONENT_LIMIT), the range of ``pack``."""
        ka, kb = self._checked_pack(a), self._checked_pack(b)
        return (ka > kb) - (ka < kb)

    def _checked_pack(self, exps) -> int:
        if len(exps) != self.nvars:
            raise UsageError("monomial arity does not match the order")
        if any(not 0 <= e < EXPONENT_LIMIT for e in exps):
            raise UsageError("exponents must be 16-bit non-negative integers")
        return self.pack(exps)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.kind == self.kind
            and other.nvars == self.nvars
            and other.precedence == self.precedence
        )

    def __hash__(self):
        return hash((self.kind, self.nvars, self.precedence))

    def __repr__(self):
        if self._identity:
            return f"MonomialOrder({self.kind!r}, {self.nvars})"
        return f"MonomialOrder({self.kind!r}, {self.nvars}, precedence={self.precedence})"


class EliminationOrder(MonomialOrder):
    """Block order eliminating the first ``nelim`` variables.

    Any monomial involving an eliminated variable is larger than any monomial
    free of them; ties are broken by grevlex on the whole exponent vector.
    Used internally for ideal intersections; restricted to the remaining
    variables it agrees with grevlex.  The eliminated variables have weight 0
    in ``degree``, so t*A + (1-t)*B is graded when A and B are.
    """

    __slots__ = ("nelim", "_above")

    def __init__(self, nvars: int, nelim: int = 1):
        super().__init__(GREVLEX, nvars)
        self.nelim = nelim
        # the grevlex key deg*M - P lies in [0, 2^_above) for every sum of
        # two exponent vectors, whose degree is below nvars * 2^17
        self._above = self.width + FIELD_BITS + nvars.bit_length()

    def degree(self, exps) -> int:
        return sum(exps[self.nelim:])

    def total_degree(self, key: int) -> int:
        return super().total_degree(key & ((1 << self._above) - 1))

    def pack(self, exps) -> int:
        return ((sum(exps[: self.nelim]) << self._above)
                + super().pack(exps))

    def __eq__(self, other):
        return (
            isinstance(other, EliminationOrder)
            and other.nvars == self.nvars
            and other.nelim == self.nelim
        )

    def __hash__(self):
        return hash(("elim", self.nvars, self.nelim))

    def __repr__(self):
        return f"EliminationOrder({self.nvars}, nelim={self.nelim})"
