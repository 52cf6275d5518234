"""Reduced Groebner bases and ideal-level operations.

The Buchberger loop uses sugar-degree selection and Gebauer-Moeller pair
pruning.  Homogeneous input is processed degree by degree (sugar equals true
degree there); the same engine accepts the inhomogeneous systems that the
intersection trick produces internally.  Public constructors enforce the
homogeneous-only policy.

Saturation by a variable x_i divides a grevlex basis with x_i last by its
largest x_i-powers (Bayer-Stillman).  Saturation by the irrelevant maximal
ideal returns the first per-variable saturation whose quotient has the same
Hilbert polynomial as S/I, which certifies it; when no variable does, it
intersects the per-variable saturations.  Intersections add one auxiliary
variable ``t``, compute a basis of t*A + (1-t)*B under an elimination order,
and keep the t-free elements.
"""

from __future__ import annotations

import functools
import heapq
import itertools

from .errors import DegreeCeilingError, SelfCheckError, UsageError
from .orders import GREVLEX, EliminationOrder, MonomialOrder
from .polynomials import Monomial, PolyRing, Polynomial

DEFAULT_DEGREE_CEILING = 64


# --- raw reduction helpers (term dicts keyed by Monomial) ---

def _axpy(work: dict, field, coeff, u: Monomial, terms: dict):
    """work -= coeff * u * terms, in place."""
    zero = field.zero
    if u.is_one():
        for m, c in terms.items():
            v = field.sub(work.get(m, zero), field.mul(coeff, c))
            if v == zero:
                work.pop(m, None)
            else:
                work[m] = v
    else:
        for m, c in terms.items():
            mm = u.mul(m)
            v = field.sub(work.get(mm, zero), field.mul(coeff, c))
            if v == zero:
                work.pop(mm, None)
            else:
                work[mm] = v


def _reduce_terms(terms: dict, ring, basis, sugar=None, sugars=None):
    """Fully reduce a term dict against ``basis`` (list of monic Polynomials).

    Returns (remainder Polynomial, sugar).  ``basis`` entries may be None
    (deleted slots are skipped).  When sugar bookkeeping is not needed both
    sugar arguments stay None.
    """
    field = ring.field
    key = ring.order.key
    work = dict(terms)
    out = {}
    leads = [
        (g.lead_monomial(), g, i)
        for i, g in enumerate(basis)
        if g is not None
    ]
    while work:
        m = max(work, key=lambda mm: key(mm.exps))
        c = work.pop(m)
        hit = None
        for entry in leads:
            if entry[0].divides(m):
                hit = entry
                break
        if hit is None:
            out[m] = c
            continue
        lm, g, idx = hit
        u = m.quotient(lm)
        factor = field.div(c, g.lead_coefficient())
        if sugar is not None:
            sugar = max(sugar, sugars[idx] + u.degree)
        work[m] = c
        _axpy(work, field, factor, u, g._terms)
    return Polynomial(ring, out), sugar


def _spoly(f: Polynomial, g: Polynomial):
    """S-polynomial of two monic-or-not polynomials, plus the pair quotients."""
    ring = f.ring
    field = ring.field
    lmf, lcf = f.lead_term()
    lmg, lcg = g.lead_term()
    lcm = lmf.lcm(lmg)
    uf = lcm.quotient(lmf)
    ug = lcm.quotient(lmg)
    work = {}
    _axpy(work, field, field.neg(field.inv(lcf)), uf, f._terms)
    _axpy(work, field, field.inv(lcg), ug, g._terms)
    return Polynomial(ring, work), uf, ug


class _PairSet:
    """Gebauer-Moeller managed S-pair queue with sugar selection."""

    def __init__(self, ring):
        self.ring = ring
        self.pairs = {}
        self.heap = []

    def push(self, i, j, lcm, sugar):
        key = (sugar, self.ring.order.key(lcm.exps), i, j)
        self.pairs[(i, j)] = (lcm, sugar)
        heapq.heappush(self.heap, (key, i, j))

    def pop(self):
        while self.heap:
            key, i, j = heapq.heappop(self.heap)
            entry = self.pairs.get((i, j))
            if entry is not None and (entry[1], self.ring.order.key(entry[0].exps)) == key[:2]:
                del self.pairs[(i, j)]
                return i, j, entry[0], entry[1]
        return None

    def __bool__(self):
        return bool(self.pairs)


def _update(G, sugars, pairset, f, fsugar):
    """Install f as a new basis element, pruning pairs Gebauer-Moeller style."""
    t = len(G)
    lmf = f.lead_monomial()
    lcms = [g.lead_monomial().lcm(lmf) for g in G]

    # drop old pairs made redundant by f (chain criterion)
    for (i, j) in list(pairset.pairs):
        lij = pairset.pairs[(i, j)][0]
        if lmf.divides(lij) and lcms[i] != lij and lcms[j] != lij:
            del pairset.pairs[(i, j)]

    # candidate pairs (i, t): prune those whose lcm is a proper multiple
    survivors = []
    for i in range(t):
        li = lcms[i]
        redundant = False
        for j in range(t):
            if j == i:
                continue
            lj = lcms[j]
            if lj != li and lj.divides(li):
                redundant = True
                break
            if lj == li and j < i:
                # equal lcm classes handled below; keep the first index only
                pass
        if not redundant:
            survivors.append(i)

    groups = {}
    for i in survivors:
        groups.setdefault(lcms[i].exps, []).append(i)
    for exps, members in sorted(groups.items()):
        if any(G[i].lead_monomial().coprime(lmf) for i in members):
            continue
        i = min(members)
        lcm = lcms[i]
        sugar = max(
            sugars[i] + lcm.quotient(G[i].lead_monomial()).degree,
            fsugar + lcm.quotient(lmf).degree,
        )
        pairset.push(i, t, lcm, sugar)

    G.append(f)
    sugars.append(fsugar)


def _engine(polys, ring, degree_ceiling) -> list:
    """Reduced Groebner basis of arbitrary (possibly inhomogeneous) input."""
    inputs = []
    seen = set()
    for f in polys:
        if f.is_zero():
            continue
        f = f.monic()
        k = f.structure_key()
        if k not in seen:
            seen.add(k)
            inputs.append(f)
    if not inputs:
        return []

    if all(len(f) == 1 for f in inputs):
        return _minimal_monomials(inputs, ring)

    inputs.sort(key=lambda f: ring.order.key(f.lead_monomial().exps))
    G: list = []
    sugars: list = []
    pairset = _PairSet(ring)
    for f in inputs:
        fdeg = f.degree()
        red, s = _reduce_terms(f._terms, ring, G, fdeg, sugars)
        if not red.is_zero():
            _update(G, sugars, pairset, red.monic(), s)

    while pairset:
        popped = pairset.pop()
        if popped is None:
            break
        i, j, lcm, sugar = popped
        if sugar > degree_ceiling:
            raise DegreeCeilingError(
                f"S-pair of sugar degree {sugar} exceeds the degree ceiling "
                f"{degree_ceiling}"
            )
        s, _, _ = _spoly(G[i], G[j])
        if s.is_zero():
            continue
        red, rsugar = _reduce_terms(s._terms, ring, G, sugar, sugars)
        if not red.is_zero():
            _update(G, sugars, pairset, red.monic(), rsugar)

    return _reduce_basis(G, ring)


def _minimal_monomials(monos, ring) -> list:
    """Reduced basis of a monomial ideal: the minimal monic generators."""
    leads = sorted({f.lead_monomial() for f in monos}, key=lambda m: m.degree)
    kept = []
    for m in leads:
        if not any(k.divides(m) for k in kept):
            kept.append(m)
    out = [Polynomial(ring, {m: ring.field.one}) for m in kept]
    out.sort(key=lambda f: ring.order.key(f.lead_monomial().exps), reverse=True)
    return out


def _reduce_basis(G, ring) -> list:
    """Minimalize lead terms, then tail-reduce each element: the reduced basis."""
    order_key = ring.order.key
    by_lead = sorted((g for g in G if not g.is_zero()),
                     key=lambda g: order_key(g.lead_monomial().exps))
    minimal = []
    for g in by_lead:
        lm = g.lead_monomial()
        if not any(h.lead_monomial().divides(lm) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        red, _ = _reduce_terms(g._terms, ring, others)
        reduced.append(red.monic())
    reduced.sort(key=lambda g: order_key(g.lead_monomial().exps), reverse=True)
    return reduced


class Ideal:
    """A homogeneous ideal given by generators.  Construction rejects
    inhomogeneous generators; zero generators are dropped and duplicates
    (up to scaling) removed."""

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: PolyRing, gens=()):
        checked = []
        seen = set()
        for g in gens:
            if not isinstance(g, Polynomial):
                raise UsageError("ideal generators must be Polynomials")
            if g.ring != ring:
                raise UsageError("generator lives in a different ring")
            if g.is_zero():
                continue
            if g.homogeneous_degree() is None:
                raise UsageError(f"generator {g} is not homogeneous")
            key = g.monic().structure_key()
            if key in seen:
                continue
            seen.add(key)
            checked.append(g)
        self.ring = ring
        self.gens = tuple(checked)
        self._gb = {}

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def degrees(self):
        return tuple(g.homogeneous_degree() for g in self.gens)

    def single_degree(self):
        """The common generator degree, or None when degrees are mixed/empty."""
        degs = set(self.degrees())
        if len(degs) == 1:
            return degs.pop()
        return None

    def plus(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise UsageError("ideals live in different rings")
        return Ideal(self.ring, self.gens + other.gens)

    def times(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise UsageError("ideals live in different rings")
        prods = [a * b for a in self.gens for b in other.gens]
        return Ideal(self.ring, prods)

    def power(self, t: int) -> "Ideal":
        if t < 1:
            raise UsageError("ideal powers require t >= 1")
        if t == 1:
            return self
        prods = []
        for combo in itertools.combinations_with_replacement(self.gens, t):
            f = combo[0]
            for g in combo[1:]:
                f = f * g
            prods.append(f)
        return Ideal(self.ring, prods)

    def groebner_basis(self, degree_ceiling: int = DEFAULT_DEGREE_CEILING):
        if degree_ceiling not in self._gb:
            elements = _engine(list(self.gens), self.ring, degree_ceiling)
            self._gb[degree_ceiling] = GroebnerBasis(self, elements)
        return self._gb[degree_ceiling]

    def contains(self, f: Polynomial, degree_ceiling: int = DEFAULT_DEGREE_CEILING) -> bool:
        return self.groebner_basis(degree_ceiling).contains(f)

    def equals(self, other: "Ideal", degree_ceiling: int = DEFAULT_DEGREE_CEILING) -> bool:
        if other.ring != self.ring:
            return False
        return (
            self.groebner_basis(degree_ceiling).elements
            == other.groebner_basis(degree_ceiling).elements
        )

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) if self.gens else "0"
        return f"Ideal({inside})"


class GroebnerBasis:
    """The reduced basis of an ideal under its ring's order: monic elements,
    pairwise irreducible, sorted by descending lead monomial."""

    __slots__ = ("ideal", "ring", "elements", "lead_monomials")

    def __init__(self, ideal: Ideal, elements):
        self.ideal = ideal
        self.ring = ideal.ring
        self.elements = tuple(elements)
        self.lead_monomials = tuple(g.lead_monomial() for g in self.elements)

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise UsageError("polynomial lives in a different ring")
        red, _ = _reduce_terms(f._terms, self.ring, list(self.elements))
        return red

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"GroebnerBasis[{', '.join(str(g) for g in self.elements)}]"


def buchberger(ideal: Ideal, degree_ceiling: int = DEFAULT_DEGREE_CEILING) -> GroebnerBasis:
    return ideal.groebner_basis(degree_ceiling)


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    return gb.normal_form(f)


# --- intersection / saturation ---

def _aux_ring(ring: PolyRing) -> PolyRing:
    names = ("@t",) + ring.names
    return PolyRing(names, ring.field, EliminationOrder(ring.nvars + 1, 1))


def _shift_up(f: Polynomial, aux: PolyRing, t_exp: int) -> Polynomial:
    return Polynomial(aux, {Monomial((t_exp,) + m.exps): c for m, c in f._terms.items()})


def _project_down(f: Polynomial, ring: PolyRing) -> Polynomial:
    return Polynomial(ring, {Monomial(m.exps[1:]): c for m, c in f._terms.items()})


def intersect(A: Ideal, B: Ideal, degree_ceiling: int = DEFAULT_DEGREE_CEILING) -> Ideal:
    """A cap B via a basis of t*A + (1-t)*B with t eliminated."""
    if A.ring != B.ring:
        raise UsageError("ideals live in different rings")
    ring = A.ring
    if A.is_zero_ideal() or B.is_zero_ideal():
        return Ideal(ring, ())
    aux = _aux_ring(ring)
    gens = [_shift_up(a, aux, 1) for a in A.gens]
    for b in B.gens:
        gens.append(_shift_up(b, aux, 0) - _shift_up(b, aux, 1))
    basis = _engine(gens, aux, degree_ceiling)
    kept = []
    for g in basis:
        if all(m.exps[0] == 0 for m in g._terms):
            h = _project_down(g, ring)
            if h.homogeneous_degree() is None:
                raise SelfCheckError(
                    "intersection of homogeneous ideals produced an inhomogeneous element"
                )
            kept.append(h)
    return Ideal(ring, kept)


def _presented(ring: PolyRing, elements, degree_ceiling: int) -> Ideal:
    """The ideal generated by a reduced basis, with that basis cached."""
    J = Ideal(ring, elements)
    J._gb[degree_ceiling] = GroebnerBasis(J, elements)
    return J


def _divide_out(f: Polynomial, i: int, ring: PolyRing) -> Polynomial:
    """f over the largest power of x_i dividing it, as an element of ``ring``."""
    k = min(m.exps[i] for m in f._terms)
    if k == 0:
        return Polynomial(ring, f._terms)
    terms = {}
    for m, c in f._terms.items():
        exps = list(m.exps)
        exps[i] -= k
        terms[Monomial(tuple(exps))] = c
    return Polynomial(ring, terms)


def saturate_variable(I: Ideal, i: int, degree_ceiling: int = DEFAULT_DEGREE_CEILING) -> Ideal:
    """(I : x_i^infinity), presented by its reduced basis with that basis cached.

    In grevlex with x_i last, x_i divides a homogeneous f exactly when it
    divides the lead term of f, so dividing each element of a Groebner basis
    of I by its largest power of x_i gives a Groebner basis of
    I : x_i^infinity (Bayer-Stillman, Invent. Math. 87, 1987).  When that
    order is the ring's own, I's cached basis is divided and only needs
    reducing; otherwise the quotients are rebased in the ring's order.
    """
    ring = I.ring
    n = ring.nvars
    if not 0 <= i < n:
        raise UsageError("variable index out of range")
    order = MonomialOrder(GREVLEX, n, [j for j in range(n) if j != i] + [i])
    if order == ring.order:
        basis = I.groebner_basis(degree_ceiling).elements
        reduced = _reduce_basis([_divide_out(g, i, ring) for g in basis], ring)
    else:
        aux = PolyRing(ring.names, ring.field, order)
        basis = _engine([Polynomial(aux, g._terms) for g in I.gens], aux,
                        degree_ceiling)
        reduced = _engine([_divide_out(g, i, ring) for g in basis], ring,
                          degree_ceiling)
    return _presented(ring, reduced, degree_ceiling)


def _same_hilbert_polynomial(num_a, num_b, n: int) -> bool:
    """Whether two Hilbert numerators over n variables give the same Hilbert
    polynomial, i.e. whether (1-T)^n divides their difference."""
    diff = [a - b for a, b in itertools.zip_longest(num_a, num_b, fillvalue=0)]
    for _ in range(n):
        if sum(diff) != 0:
            return False
        diff = list(itertools.accumulate(diff))
    return True


def saturate(I: Ideal, variable: int | None = None,
             degree_ceiling: int = DEFAULT_DEGREE_CEILING) -> Ideal:
    """Saturation by one variable, or by the maximal ideal m when none is
    given; either way presented by its reduced basis with that basis cached.

    J = I : x_i^infinity contains I^sat = I : m^infinity, and equals it
    exactly when S/J and S/I have the same Hilbert polynomial, i.e. when
    (1-T)^n divides the difference of their Hilbert numerators: J/I^sat sits
    inside S/I^sat, which has no nonzero submodule of finite length, so it is
    zero or has a nonzero Hilbert polynomial.  The variables are tried last
    first, since in a grevlex ring the last one reuses I's cached basis.
    Only when no variable certifies are the per-variable saturations
    intersected.
    """
    if variable is not None:
        return saturate_variable(I, variable, degree_ceiling)
    from .hilbert import hilbert_numerator  # hilbert imports this module

    n = I.ring.nvars
    target = hilbert_numerator(I, degree_ceiling)
    parts = []
    for i in reversed(range(n)):
        J = saturate_variable(I, i, degree_ceiling)
        if _same_hilbert_polynomial(target, hilbert_numerator(J, degree_ceiling), n):
            return J
        parts.append(J)
    result = functools.reduce(lambda a, b: intersect(a, b, degree_ceiling), parts)
    return _presented(I.ring, result.groebner_basis(degree_ceiling).elements,
                      degree_ceiling)
