"""Hilbert functions of graded quotients via lead-term ideals.

The Hilbert series of S/I equals N(T) / (1-T)^n where N is the numerator of
the monomial ideal LT(I).  N is computed by a pivot recursion: splitting off
the most shared variable x gives N(J) = N(J + (x)) + T * N(J : x) (Bigatti,
JPAA 119, 1997).  Closed forms come before it (``_numerator``): a linear
generator is a factor 1 - T, a variable no generator uses drops out, one
variable gives 1 - T^a, two variables are read off the staircase, and
pairwise coprime generators give a product.  N is computed once per
Groebner basis and cached on it (GroebnerBasis.numerator), so every Hilbert
invariant of an ideal (Hilbert function values, Krull dimension, degree,
top nonzero degree, the saturation certificate and fiber regularity) reads
the same value, and so do the Buchberger engine's Hilbert tests on its
current leads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import le
from typing import TYPE_CHECKING

from .errors import DimensionError, UsageError
from .fields import _strip, _zmul

if TYPE_CHECKING:
    from .groebner import Ideal


@dataclass(frozen=True)
class HilbertFunction:
    """Values h(d) = dim_F (S/I)_d for 0 <= d <= through."""

    values: tuple
    through: int

    def value(self, d: int) -> int:
        if not 0 <= d <= self.through:
            raise UsageError(f"degree {d} outside computed range 0..{self.through}")
        return self.values[d]

    def __call__(self, d: int) -> int:
        return self.value(d)


# --- integer polynomial helpers (coefficient lists, index = degree) ---

def _series_coefficient(num, n, e) -> int:
    """The coefficient of T^e in num(T) / (1-T)^n, for n >= 1."""
    return sum(c * math.comb(e - j + n - 1, n - 1)
               for j, c in enumerate(num[:e + 1]))


def _split(num):
    """(Q, c) with num = Q * (1-T)^c and Q(1) != 0; (None, 0) for num = 0."""
    num = _strip(list(num))
    if not num:
        return None, 0
    c = 0
    while sum(num) == 0:
        num = _strip(list(itertools.accumulate(num)))
        c += 1
    return num, c


def _minimalize(gens):
    """Minimal generators of the monomial ideal spanned by exponent tuples."""
    gens = sorted(set(gens), key=lambda g: (sum(g), g))
    out = []
    for g in gens:
        for o in out:
            if all(map(le, o, g)):
                break
        else:
            out.append(g)
    return out


def _numerator(gens) -> list:
    """Numerator over (1-T)^n of the Hilbert series of S/J, exact in Z[T],
    for the minimal generators ``gens`` of a monomial ideal J.  Closed forms
    come first:

    - no generator gives 1, and the generator 1 gives 0;
    - a linear generator x_i divides no other minimal generator, so it is
      a factor 1 - T and x_i is dropped;
    - a variable no generator uses is dropped: N over (1-T)^n does not see
      it;
    - two variables left are read off the staircase: with generators
      x^(a_i) y^(b_i), a_1 < a_2 < ... and so b_1 > b_2 > ..., N is
      1 - sum_i T^(a_i + b_i) + sum_i T^(a_(i+1) + b_i);
    - pairwise coprime generators, such as the one generator x^a of one
      variable, give the product of the 1 - T^deg g.

    Otherwise, in three or more variables, splitting off the most shared
    variable x gives N(J) = N(J + (x)) + T * N(J : x)."""
    if not gens:
        return [1]
    linear = 0
    rest = []
    used = set()
    for g in gens:
        d = sum(g)
        if d == 0:
            return [0]
        if d == 1:
            linear += 1
        else:
            rest.append(g)
            used.update(i for i, e in enumerate(g) if e)
    if len(used) < len(gens[0]):
        keep = sorted(used)
        rest = [tuple(g[i] for i in keep) for g in rest]
    counts = [sum(1 for g in rest if g[i]) for i in range(len(used))]
    if len(used) == 2:
        rest.sort()
        out = [0] * (rest[-1][0] + rest[0][1] + 1)
        out[0] = 1
        for i, (a, b) in enumerate(rest):
            out[a + b] -= 1
            if i:
                out[a + rest[i - 1][1]] += 1
    elif all(c == 1 for c in counts):
        out = [1]
        for g in rest:
            out = _zmul(out, [1] + [0] * (sum(g) - 1) + [-1])
    else:
        pivot = counts.index(max(counts))
        unit = tuple(int(i == pivot) for i in range(len(used)))
        plus = _minimalize([g for g in rest if g[pivot] == 0] + [unit])
        quot = _minimalize([
            g[:pivot] + (g[pivot] - 1,) + g[pivot + 1:] if g[pivot] else g
            for g in rest
        ])
        out = [a + b for a, b in itertools.zip_longest(
            _numerator(plus), [0] + _numerator(quot), fillvalue=0)]
    for _ in range(linear):
        out = [a - b for a, b in zip(out + [0], [0] + out)]
    return out


def _monomial_numerator(gens) -> tuple:
    """N(T), without trailing zeros, for the monomial ideal spanned by a
    list of exponent tuples; (1,) for the empty list."""
    out = _numerator(_minimalize(gens)) if gens else [1]
    return tuple(_strip(out) or [0])


def _free_over_forms(N_J, N_plus, d: int, s: int) -> bool:
    """Whether N_plus = (1 - T^d)^s N_J != 0 for the Hilbert numerators of
    S/J and S/(J + s forms of degree d): whether the forms are a regular
    sequence on a nonzero S/J (see ``asymptotics.epsilon_containment``)."""
    expected = list(N_J)
    for _ in range(s):
        expected = _zmul(expected, [1] + [0] * (d - 1) + [-1])
    expected = _strip(expected)
    return bool(expected) and N_plus == tuple(expected)


def hilbert_numerator(I: Ideal) -> tuple:
    """Coefficients of N(T) with Hilbert series of S/I equal to N/(1-T)^n,
    computed on the first call for a basis and cached on it (a basis that
    one of the engine's Hilbert tests ended comes with it cached)."""
    gb = I.groebner_basis()
    if gb.numerator is None:
        gb.numerator = _monomial_numerator(gb.lead_monomials)
    return gb.numerator


def hilbert_function(I: Ideal, d_max: int) -> HilbertFunction:
    """h(d) = number of standard monomials of degree d, for 0 <= d <= d_max."""
    if d_max < 0:
        raise UsageError("d_max must be nonnegative")
    num, n = hilbert_numerator(I), I.ring.nvars
    return HilbertFunction(tuple(_series_coefficient(num, n, d)
                                 for d in range(d_max + 1)), d_max)


def quotient_dimension(I: Ideal) -> int:
    """Krull dimension of S/I; -1 for the unit ideal."""
    Q, c = _split(hilbert_numerator(I))
    if Q is None:
        return -1
    return I.ring.nvars - c


def quotient_degree(I: Ideal) -> int:
    """Multiplicity of S/I: Q(1) where N = Q * (1-T)^codim; 0 for the unit ideal."""
    Q, _ = _split(hilbert_numerator(I))
    if Q is None:
        return 0
    return sum(Q)


def finite_length_witness(I: Ideal) -> str | None:
    """None when S/I has finite length; otherwise the name of a variable with
    no pure power among the lead terms."""
    gb = I.groebner_basis()
    for i, name in enumerate(I.ring.names):
        for m in gb.lead_monomials:
            if all(e == 0 for j, e in enumerate(m) if j != i):
                break
        else:
            return name
    return None


def top_degree_finite(I: Ideal) -> int:
    """Largest d with h(d) != 0, for finite-length S/I; -1 for the unit ideal."""
    witness = finite_length_witness(I)
    if witness is not None:
        raise DimensionError(
            f"S/I is not finite length: variable {witness} has no pure power "
            "in the lead-term ideal"
        )
    # finite length: N = Q * (1-T)^n, so the Hilbert series is Q itself
    Q, _ = _split(hilbert_numerator(I))
    if Q is None:
        return -1
    return len(Q) - 1
