"""Global monomial orders: grevlex (default), lex, grlex.

Every order exposes ``key(exponents) -> sortable tuple`` with larger keys for
larger monomials, so ``max`` and ``sorted`` work directly, and
``degree(exponents)``, the grading the Buchberger engine selects pairs by.
A variable precedence permutation may be supplied; the default is
declaration order (first variable largest).
"""

from __future__ import annotations

from .errors import UsageError

GREVLEX = "grevlex"
LEX = "lex"
GRLEX = "grlex"

ORDER_KINDS = (GREVLEX, LEX, GRLEX)


class MonomialOrder:
    __slots__ = ("kind", "nvars", "precedence", "_identity")

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

    def key(self, exps):
        if not self._identity:
            exps = tuple(exps[i] for i in self.precedence)
        if self.kind == GREVLEX:
            return (sum(exps), tuple(-e for e in reversed(exps)))
        if self.kind == LEX:
            return exps
        return (sum(exps), exps)

    def degree(self, exps) -> int:
        """The standard degree: every variable has weight 1."""
        return sum(exps)

    def compare(self, a, b) -> int:
        """-1, 0 or +1 as a <, =, > b.  Accepts Monomials or exponent tuples."""
        ea = getattr(a, "exps", a)
        eb = getattr(b, "exps", b)
        if len(ea) != self.nvars or len(eb) != self.nvars:
            raise UsageError("monomial arity does not match the order")
        ka, kb = self.key(ea), self.key(eb)
        if ka < kb:
            return -1
        if ka > kb:
            return 1
        return 0

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

    __slots__ = ("nelim",)

    def __init__(self, nvars: int, nelim: int = 1):
        super().__init__(GREVLEX, nvars)
        self.nelim = nelim

    def key(self, exps):
        return (
            sum(exps[: self.nelim]),
            sum(exps),
            tuple(-e for e in reversed(exps)),
        )

    def degree(self, exps) -> int:
        return sum(exps[self.nelim:])

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
