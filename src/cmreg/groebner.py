"""Reduced Groebner bases and ideal-level operations.

The Buchberger engine is graded: every input is homogeneous in the grading
of its ring's order (``MonomialOrder.degree``), so every S-polynomial is
homogeneous of the degree of its lcm, and pairs are selected by that degree,
ties broken by the lcm's order key, with Gebauer-Moeller pair pruning.  The
one internal input outside the standard grading, t*A + (1-t)*B of an
intersection, is graded because the elimination order gives t weight 0.
Public constructors enforce the homogeneous-only policy.  Under the standard
degree a lower bound B_e <= HF(S/I)_e on the Hilbert function drives two
tests, both read off one value: the Hilbert numerator of the current leads
(``hilbert._monomial_numerator``), whose series coefficient in degree e
counts the standard monomials of degree e.  The inputs of the least degree
are installed as one reduced echelon form (``fields._rref``), and each
other input is reduced by those before it.  Before any pair is built, the
engine compares the numerator of its reduced inputs' leads with the
bound's: when they agree the leads are in(I), and the inputs, reduced, are
the basis.  Otherwise, at each pair's degree e, once the current lead ideal
has only B_e standard monomials in degree e it agrees with in(I) there, so
every pair of degree e reduces to zero and is dropped.  The default bound
is 0, where the second test stops the loop at the first degree e whose
every monomial lies in the lead ideal, since every pair left has degree
>= e; for an m-primary ideal no pair above the top degree of S/I plus one
is formed.  A basis that either test ends leaves with the numerator it read
cached.  A private constructor carries a sharper bound to the engine (the
fiber search's, in ``geometry``).  The private constructors take generators
the library built as they are, without the public constructor's checks.

All reduction to normal form runs through one loop, ``_reduce``, over term
dicts keyed by one int per term: the packed key of the term's monomial
(``MonomialOrder.pack``), shifted left by ``bits`` with the rank of its
position in the low bits.  Int comparison is the term order, and
multiplying by a monomial u adds ``pack(u) << bits``.  An ideal element
sits at position 0 with ``bits = 0``, so its keys are the packed keys
themselves; the Schreyer syzygy tower in ``resolution`` spreads its
elements over the positions of a free module.  The reducer takes terms
largest first from a heap and divides each by the first lead at its rank
whose exponent word divides it; quotient collection (syzygies) is an
optional argument.  A basis only grows, so it remembers that lead per term
key (``_Basis.seen``): a key met again, in the same reduction or a later
one against the same basis, is looked up once and tested only against the
leads appended since.  A Polynomial's own terms are such a dict, so the
engine and the tower take and give them as they are; the field kernel
``fields._axpy`` is the one place a monomial multiplies a term dict, so
S-polynomials, syzygy S-pairs, reduction steps and Polynomial arithmetic
all go through it.  Basis elements are monic, so the reducer itself does
no coefficient arithmetic.

An Ideal carries the degree ceiling of its basis computation, and an ideal
built from others takes the ceiling of its first operand, so a
computation's ceiling is set once, on the ideal it starts from.

Saturation by a variable x_i divides a grevlex basis with x_i last by its
largest x_i-powers (Bayer-Stillman), and returns the basis unchanged when
x_i divides none of its leads.  Saturation by the irrelevant maximal
ideal is the unit ideal when S/I has finite length; otherwise it returns
the first per-variable saturation whose quotient has the same Hilbert
polynomial as S/I, which certifies it, and when no variable certifies, it
intersects the per-variable saturations.  Intersections add
one auxiliary variable ``t``, compute a basis of t*A + (1-t)*B under an
elimination order, and keep the t-free elements, which are the reduced
basis of A cap B when the ring's order is grevlex in declaration order.
"""

from __future__ import annotations

import functools
import heapq
import itertools

from .errors import DegreeCeilingError, SelfCheckError, UsageError
from .fields import _axpy, _divide, _rref, _strip
from .hilbert import (
    _monomial_numerator,
    _series_coefficient,
    _split,
    hilbert_numerator,
)
from .orders import GREVLEX, EliminationOrder, MonomialOrder, word_lcm
from .polynomials import PolyRing, Polynomial, _reach, lift_polynomial

DEFAULT_DEGREE_CEILING = 64


# --- the reducer: term dicts keyed by packed ints ---

class _Basis:
    """Monic term dicts reduced against together, under one packed order.

    A term key is ``K << bits | rank``: K is the packed key of the term's
    monomial (for a Schreyer level, of its image) and ``rank`` that of its
    position, 0 for an ideal.  ``leads[i] = (key, word, reach)`` holds the
    lead key of ``terms[i]``, whose coefficient is 1, the exponent word of
    its monomial and the element's ``_reach``.  ``table[rank]`` lists
    ``(word, i)`` for the leads at that rank, in index order; the reducer
    divides a term by the first of them that divides it.

    ``seen`` memoizes that search per term key: ``i >= 0`` is the index of
    the first dividing lead, ``~n`` says that none of the first n leads in
    the key's table row divides it.  Leads are only appended, so a recorded
    divisor stays the first one and a ``~n`` entry needs only the leads
    after the n-th; no entry is ever invalidated.
    """

    __slots__ = ("order", "bits", "terms", "leads", "table", "seen")

    def __init__(self, order, bits: int = 0):
        self.order = order
        self.bits = bits
        self.terms = []
        self.leads = []
        self.table = {}
        self.seen = {}

    def append(self, terms: dict) -> None:
        bits = self.bits
        key = max(terms)
        if terms[key] != 1:
            raise SelfCheckError("a basis element is not monic")
        word = self.order.word(key >> bits)
        self.table.setdefault(key & ((1 << bits) - 1), []).append(
            (word, len(self.terms)))
        self.leads.append((key, word, _reach(self.order, bits, terms)))
        self.terms.append(terms)

    def __len__(self):
        return len(self.terms)


def _ideal_basis(order, polys) -> _Basis:
    """The nonzero Polynomials ``polys``, whose ring has the order
    ``order``, made monic, as a basis of term dicts."""
    basis = _Basis(order)
    for g in polys:
        basis.append(g.monic()._terms)
    return basis


def _reduce(start: dict, basis: _Basis, field, quotients=None):
    """Fully reduce the term dict ``start`` against ``basis``.

    Terms are taken largest first from a max-heap of keys (Monagan-Pearce,
    Sparse polynomial division using a heap, JSC 46, 2011): a key is pushed
    when its term becomes new to the work dict, and a popped key no longer
    there is skipped.  Each term is divided by the first lead at its own
    rank whose word divides its word, looked up in ``basis.seen`` and
    searched for only among the leads appended since the key was last
    seen; leads are monic, so the quotient's coefficient is the term's,
    and all coefficient arithmetic is in ``_axpy``.  Every product lies
    below the term it cancels, so terms come out in strictly descending
    order and the remainder's first key is its lead.  A ``quotients`` dict
    gains q at (i, pack(u)) for each q * u * basis.terms[i] subtracted, so
    that start = remainder + sum q * u * basis.terms[i]; no (i, pack(u))
    comes twice.
    """
    order, bits = basis.order, basis.bits
    guards, mask = order.guards, order.mask
    negated = order.negated
    low = (1 << bits) - 1
    table, leads, terms = basis.table, basis.leads, basis.terms
    seen = basis.seen
    pop = heapq.heappop
    work = dict(start)
    heap = [-k for k in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        k = -pop(heap)
        c = work.get(k)
        if c is None:
            continue  # cancelled since it was pushed
        idx = seen.get(k, -1)
        if idx < 0:
            row = table.get(k & low, ())
            img = k >> bits
            word = (-img if negated else img) & mask
            for lw, idx in row[~idx:]:
                if ((word | guards) - lw) & guards == guards:
                    break
            else:
                seen[k] = ~len(row)
                del work[k]
                out[k] = c
                continue
            # u times the element overflows where word_u + reach does, and
            # only a key that passed is remembered
            over = word - lw + leads[idx][2]
            if over & guards:
                order.check(over)
            seen[k] = idx
        shift = k - leads[idx][0]  # pack(u) << bits: the ranks cancel
        if quotients is not None:
            quotients[(idx, shift >> bits)] = c
        _axpy(work, field, c, shift, terms[idx], heap)
    return out


def _spoly(order, field, f: dict, lf, g: dict, lg) -> dict:
    """S-polynomial of two monic term dicts of an ideal basis with leads
    lf, lg = (key, word, reach)."""
    lcm = word_lcm(lf[1], lg[1], order.guards)
    wf, wg = lcm - lf[1] + lf[2], lcm - lg[1] + lg[2]
    if (wf | wg) & order.guards:
        order.check(wf)
        order.check(wg)
    key = order.pack(order.exponents(lcm))
    work = {}
    _axpy(work, field, field.neg(field.one), key - lf[0], f)
    _axpy(work, field, 1, key - lg[0], g)
    return work


def _update(order, G: _Basis, pairs, heap, t):
    """Make the pairs of element t of the ideal basis G with the elements
    before it, pruning pairs Gebauer-Moeller style; G is not changed.
    ``pairs`` maps each live pair (i, j) to the word of its lcm; ``heap``
    holds (degree, packed lcm key, i, j) of every pair pushed, deleted ones
    included."""
    guards = order.guards
    wf = G.leads[t][1]
    words = [lead[1] for lead in G.leads[:t]]
    lcms = [word_lcm(w, wf, guards) for w in words]

    # drop old pairs made redundant by element t (chain criterion)
    for (i, j), lij in list(pairs.items()):
        if (((lij | guards) - wf) & guards == guards
                and lcms[i] != lij and lcms[j] != lij):
            del pairs[(i, j)]

    # candidate pairs (i, t): prune those whose lcm is a proper multiple of
    # another.  A proper divisor is a smaller word, so the minimal lcms are
    # the words, taken in ascending order, that no minimal word before divides
    minimal = set()
    for w in sorted(set(lcms)):
        wg = w | guards
        for m in minimal:
            if (wg - m) & guards == guards:
                break
        else:
            minimal.add(w)

    groups = {}
    for i, li in enumerate(lcms):
        if li in minimal:
            groups.setdefault(li, []).append(i)
    for lcm, members in groups.items():
        # coprime leads: their lcm is their product
        if any(lcm == words[i] + wf for i in members):
            continue
        i = min(members)
        pairs[(i, t)] = lcm
        exps = order.exponents(lcm)
        heapq.heappush(heap, (order.degree(exps), order.pack(exps), i, t))


def _engine(polys, ring, degree_ceiling, bound=()) -> "GroebnerBasis":
    """Reduced Groebner basis of input that is homogeneous in the grading of
    ``ring.order``; S-pairs are taken by degree, and one above
    ``degree_ceiling`` raises.

    ``bound`` is a Hilbert numerator N_B over (1-T)^n whose series
    coefficients B_e are at most HF(S/I)_e; the default N_B = 0 bounds
    nothing.  The inputs, taken in ascending order of lead key, are
    appended to the basis G first, and no pair is made yet.  The first
    inputs, those of the least degree, are one matrix over its monomials
    (the linear-algebra view of reduction that F4 takes; Faugere, JPAA 139,
    1999): its reduced echelon form, by one ``fields._rref`` with columns in
    descending key order, is appended in descending order of lead key.  A
    lone input of that degree, and every input of a higher degree, is
    reduced by those before it.  Their leads L lie in in(I),
    so HF(S/L) >= HF(S/I) >= B termwise (Traverso, Hilbert functions and
    the Buchberger algorithm, JSC 22, 1996).  Under the standard degree (a
    plain ``MonomialOrder``) every test reads the Hilbert numerator N_L of
    the current leads, computed at most once for each size of G, and
    HF(S/L)_e is its series coefficient:

    - when a bound is given and N_L = N_B, HF(S/L) = HF(S/I), so L is in(I)
      and the inputs are a Groebner basis: they are reduced and returned
      with N_L as their cached numerator, and no pair is built;
    - otherwise the pairs of each element are made in turn (``_update``),
      and at a popped pair of degree e HF(S/L)_e is compared with B_e.
      Equality means L_e = in(I)_e, so every pair of degree e reduces to
      zero and is dropped without being formed; when B_e = 0, L holds every
      monomial of degree e and so of every degree above, and the loop
      stops, since pairs come off the heap in nondecreasing degree: G is
      then a Groebner basis, returned with N_L cached.  HF(S/L)_e below B_e
      proves the bound wrong: SelfCheckError.

    With B_e = 0, HF(S/L)_e cannot be 0 before every variable has a pure
    power among the leads (S/I then has finite length), so the test waits
    for that; a negative B_e is never met and never tested.  The test runs
    again only when e or G has changed; the ceiling counts only the pairs
    taken, so dropped pairs and pairs after the stop never trip it."""
    inputs = [f for f in polys if f]
    if all(len(f) == 1 for f in inputs):
        return _reduce_basis(_ideal_basis(ring.order, inputs), ring)

    order = ring.order
    field = ring.field
    # HF(S/L) is a series coefficient only under the standard degree
    standard = type(order) is MonomialOrder
    G = _Basis(order)
    pairs: dict = {}
    heap: list = []
    n = ring.nvars
    lead_exps = []  # exponent tuples of the leads of G
    powers = set()  # the variables with a pure power among them
    tested = None  # (degree, len(G)) of the last test
    met = False  # whether that test met the bound

    def reduced(terms):
        """The monic remainder of terms against G, or None for zero."""
        red = _reduce(terms, G, field)
        return _divide(field, red, red[next(iter(red))]) if red else None

    def append(f):
        """Append f to G and record its lead."""
        exps = order.unpack(max(f))
        G.append(f)
        lead_exps.append(exps)
        support = [i for i, a in enumerate(exps) if a]
        if len(support) == 1:
            powers.add(support[0])

    @functools.lru_cache(maxsize=1)
    def lead_numerator(size):
        """N_L for G of ``size`` elements, the current G."""
        return _monomial_numerator(lead_exps)

    inputs = sorted((f._terms for f in inputs), key=max)
    degree = (order.total_degree if standard
              else lambda key: order.degree(order.unpack(key)))
    low = degree(max(inputs[0]))
    size = 1
    while size < len(inputs) and degree(max(inputs[size])) == low:
        size += 1
    if size > 1:
        # nothing in G can reduce the first inputs of one degree: their
        # reduced echelon form, columns by descending key, is appended in
        # descending order of lead key
        rows = [{-k: c for k, c in terms.items()} for terms in inputs[:size]]
        for row in rows[:len(_rref(field, rows))]:
            append({-k: c for k, c in row.items()})
        inputs = inputs[size:]
    for terms in inputs:
        f = reduced(terms)
        if f is not None:
            append(f)
    if standard and bound:
        numerator = lead_numerator(len(G))
        if numerator == tuple(_strip(list(bound))):
            return _reduce_basis(G, ring, lead_exps, numerator)
    for t in range(len(G)):
        _update(order, G, pairs, heap, t)

    while heap:
        degree, _, i, j = heapq.heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue  # deleted by the chain criterion
        if standard and tested != (degree, len(G)):
            tested = (degree, len(G))
            met = False
            b = _series_coefficient(bound, n, degree)
            if b > 0 or (b == 0 and len(powers) == n):
                numerator = lead_numerator(len(G))
                count = _series_coefficient(numerator, n, degree)
                if count < b:
                    raise SelfCheckError(
                        f"{count} standard monomials of degree {degree} "
                        f"fall below the Hilbert function bound {b}")
                if count == 0:  # every pair left reduces to zero
                    return _reduce_basis(G, ring, lead_exps, numerator)
                met = count == b
        if met:
            continue  # L agrees with in(I) in this degree
        if degree > degree_ceiling:
            raise DegreeCeilingError(
                f"S-pair of degree {degree} exceeds the degree ceiling "
                f"{degree_ceiling}"
            )
        s = _spoly(order, field, G.terms[i], G.leads[i], G.terms[j],
                   G.leads[j])
        f = reduced(s) if s else None
        if f is not None:
            append(f)
            _update(order, G, pairs, heap, len(G) - 1)

    return _reduce_basis(G, ring, lead_exps)


def _reduce_basis(G: _Basis, ring, lead_exps=None,
                  numerator=None) -> "GroebnerBasis":
    """The reduced basis of the ideal of which the ideal basis G is a
    Groebner basis, with ``numerator`` cached: the elements whose lead no
    other lead divides, each with its tail reduced.  The remainder of a full
    reduction against a Groebner basis is the unique normal form, so each
    tail is reduced against all of G, with the leads and the memo of
    dividing leads G already holds, and comes out as against the minimal
    elements alone.  ``lead_exps[i]``, when given, is the exponent tuple of
    the lead of G's element i; otherwise the kept leads are unpacked."""
    order = ring.order
    guards = order.guards
    minimal = []
    for i in sorted(range(len(G)), key=lambda i: G.leads[i][0]):
        w = G.leads[i][1]
        if not any(((w | guards) - G.leads[j][1]) & guards == guards
                   for j in minimal):
            minimal.append(i)
    reduced = []
    leads = []
    for i in reversed(minimal):
        key = G.leads[i][0]
        # the tail and every term its reduction produces lie below the
        # lead, so the element's own lead divides none of them
        tail = dict(G.terms[i])
        del tail[key]
        red = _reduce(tail, G, ring.field)
        reduced.append(Polynomial(ring, {key: 1, **red}))
        leads.append(order.unpack(key) if lead_exps is None
                     else lead_exps[i])
    # built around the constructor, which would unpack each lead again
    gb = GroebnerBasis.__new__(GroebnerBasis)
    gb.ring, gb.elements, gb.lead_monomials = ring, tuple(reduced), tuple(leads)
    gb.numerator = numerator
    return gb


class Ideal:
    """A homogeneous ideal given by generators.  Construction rejects
    inhomogeneous generators; zero generators are dropped and duplicates
    (up to scaling) removed.  Sums, products, powers, intersections and
    saturations take the ``degree_ceiling`` of their first operand."""

    __slots__ = ("ring", "gens", "degree_ceiling", "_gb", "_bound", "_power",
                 "_sum")

    def __init__(self, ring: PolyRing, gens=(),
                 degree_ceiling: int = DEFAULT_DEGREE_CEILING):
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
        self.degree_ceiling = degree_ceiling
        self._gb = None
        self._bound = ()
        self._power = None
        self._sum = None

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
        """I + other, generated by I's generators and then other's.  The
        last sum asked for is kept, so asking again with the same generators
        of other returns the same ideal, its basis computed once."""
        if other.ring != self.ring:
            raise UsageError("ideals live in different rings")
        if self._sum is None or self._sum[0] != other.gens:
            self._sum = (other.gens, Ideal(self.ring, self.gens + other.gens,
                                           self.degree_ceiling))
        return self._sum[1]

    def times(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise UsageError("ideals live in different rings")
        prods = [a * b for a in self.gens for b in other.gens]
        return Ideal(self.ring, prods, self.degree_ceiling)

    def power(self, t: int) -> "Ideal":
        """I^t, generated by the products of t generators in the order of
        itertools.combinations_with_replacement, each product the left fold
        of its factors.  The products of the last power asked for are kept,
        and a higher power extends them one generator at a time, so asking
        for I^2, ..., I^t in turn costs one product per generator of each
        power."""
        if t < 1:
            raise UsageError("ideal powers require t >= 1")
        if t == 1:
            return self
        gens = self.gens
        if self._power is None or self._power[0] > t:
            self._power = (1, list(enumerate(gens)))
        s, level = self._power
        # level holds (index of the last factor, product) for the index
        # tuples of length s in lexicographic order; extending each by an
        # index at least its last keeps that order
        while s < t:
            level = [(j, f * gens[j]) for i, f in level
                     for j in range(i, len(gens))]
            s += 1
        self._power = (s, level)
        return Ideal(self.ring, [f for _, f in level], self.degree_ceiling)

    def groebner_basis(self):
        """The reduced Groebner basis, computed on the first call and cached.
        An S-pair above ``degree_ceiling`` raises DegreeCeilingError."""
        if self._gb is None:
            self._gb = _engine(list(self.gens), self.ring,
                               self.degree_ceiling, self._bound)
        return self._gb

    def contains(self, f: Polynomial) -> bool:
        return self.groebner_basis().contains(f)

    def equals(self, other: "Ideal") -> bool:
        if other.ring != self.ring:
            return False
        return (self.groebner_basis().elements
                == other.groebner_basis().elements)

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) if self.gens else "0"
        return f"Ideal({inside})"


class GroebnerBasis:
    """The reduced basis of an ideal under its ring's order: monic elements,
    pairwise irreducible, sorted by descending lead monomial.

    ``numerator`` is the Hilbert numerator of the lead-term ideal, given by
    the engine when one of its Hilbert tests ended the computation, or
    filled by ``hilbert.hilbert_numerator`` on first use."""

    __slots__ = ("ring", "elements", "lead_monomials", "numerator")

    def __init__(self, ring: PolyRing, elements, numerator=None):
        self.ring = ring
        self.elements = tuple(elements)
        self.lead_monomials = tuple(g.lead_monomial() for g in self.elements)
        self.numerator = numerator

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise UsageError("polynomial lives in a different ring")
        red = _reduce(f._terms, _ideal_basis(self.ring.order, self.elements),
                      self.ring.field)
        return Polynomial(self.ring, red)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"GroebnerBasis[{', '.join(str(g) for g in self.elements)}]"


# --- intersection / saturation ---

def _aux_ring(ring: PolyRing) -> PolyRing:
    names = ("@t",) + ring.names
    return PolyRing(names, ring.field, EliminationOrder(ring.nvars + 1, 1))


def _shift_up(f: Polynomial, aux: PolyRing, t_exp: int) -> Polynomial:
    """t^t_exp * f in the ring of ``_aux_ring``."""
    unpack, pack = f.ring.order.unpack, aux.order.pack
    return Polynomial(aux, {pack((t_exp,) + unpack(k)): c
                            for k, c in f._terms.items()})


def _project_down(f: Polynomial, ring: PolyRing) -> Polynomial:
    """A t-free f of the ring of ``_aux_ring`` in ``ring``."""
    unpack, pack = f.ring.order.unpack, ring.order.pack
    return Polynomial(ring, {pack(unpack(k)[1:]): c
                             for k, c in f._terms.items()})


def intersect(A: Ideal, B: Ideal) -> Ideal:
    """A cap B via a basis of t*A + (1-t)*B with t eliminated, under A's
    degree ceiling.  The kept t-free elements are a reduced basis of A cap B
    in the restriction of the elimination order, grevlex in declaration
    order; when that is the ring's order they are presented with that basis
    cached."""
    if A.ring != B.ring:
        raise UsageError("ideals live in different rings")
    ring, ceiling = A.ring, A.degree_ceiling
    if A.is_zero_ideal() or B.is_zero_ideal():
        return Ideal(ring, (), ceiling)
    aux = _aux_ring(ring)
    gens = [_shift_up(a, aux, 1) for a in A.gens]
    for b in B.gens:
        gens.append(_shift_up(b, aux, 0) - _shift_up(b, aux, 1))
    basis = _engine(gens, aux, ceiling)
    kept = []
    for g in basis:
        # a term with t lies above every t-free term, so g is t-free when
        # its lead is
        if g.lead_monomial()[0] == 0:
            h = _project_down(g, ring)
            if h.homogeneous_degree() is None:
                raise SelfCheckError(
                    "intersection of homogeneous ideals produced an inhomogeneous element"
                )
            kept.append(h)
    if ring.order == MonomialOrder(GREVLEX, ring.nvars):
        return _presented(A, GroebnerBasis(ring, kept))
    return Ideal(ring, kept, ceiling)


def _unchecked(ring: PolyRing, gens, degree_ceiling: int) -> Ideal:
    """The ideal generated by ``gens``, nonzero homogeneous polynomials of
    ``ring``, taken as they are: without the constructor's checks of each
    generator and its removal of proportional duplicates."""
    I = Ideal(ring, (), degree_ceiling)
    I.gens = tuple(gens)
    return I


def _bounded(ring: PolyRing, gens, bound, degree_ceiling: int) -> Ideal:
    """The ideal generated by ``gens``, as for ``_unchecked``, whose basis
    computation may skip its pairs, or the pairs of a degree, where the
    Hilbert numerator ``bound`` is met (see ``_engine``): B_e <= HF(S/I)_e
    must hold for every e."""
    I = _unchecked(ring, gens, degree_ceiling)
    I._bound = tuple(bound)
    return I


def _presented(I: Ideal, gb: GroebnerBasis) -> Ideal:
    """The ideal generated by ``gb``, the reduced basis of an ideal derived
    from I, in I's ring and with I's ceiling, with ``gb`` cached."""
    J = _unchecked(I.ring, gb.elements, I.degree_ceiling)
    J._gb = gb
    return J


def _divide_out(f: Polynomial, i: int, ring: PolyRing) -> Polynomial:
    """f over the largest power of x_i dividing it, as an element of
    ``ring``, a ring on f's variables."""
    unpack, pack = f.ring.order.unpack, ring.order.pack
    terms = [(unpack(k), c) for k, c in f._terms.items()]
    k = min(exps[i] for exps, _ in terms)
    return Polynomial(ring, {pack(exps[:i] + (exps[i] - k,) + exps[i + 1:]): c
                             for exps, c in terms})


def saturate_variable(I: Ideal, i: int) -> Ideal:
    """(I : x_i^infinity), presented by its reduced basis with that basis cached.

    In grevlex with x_i last, x_i divides a homogeneous f exactly when it
    divides the lead term of f, so dividing each element of a Groebner basis
    of I by its largest power of x_i gives a Groebner basis of
    I : x_i^infinity (Bayer-Stillman, Invent. Math. 87, 1987).  When that
    order is the ring's own, I's cached basis is divided and only needs
    reducing; otherwise the quotients are rebased in the ring's order.  In
    the ring's own order, when x_i divides no lead of I's basis, x_i is a
    nonzerodivisor on S/I and I is its own saturation: the result is
    presented by I's basis and shares I's GroebnerBasis, cached numerator
    included.
    """
    ring = I.ring
    n = ring.nvars
    if not 0 <= i < n:
        raise UsageError("variable index out of range")
    order = MonomialOrder(GREVLEX, n, [j for j in range(n) if j != i] + [i])
    if order == ring.order:
        gb = I.groebner_basis()
        if not any(m[i] for m in gb.lead_monomials):
            return _presented(I, gb)
        gb = _reduce_basis(_ideal_basis(
            ring.order, [_divide_out(g, i, ring) for g in gb.elements]), ring)
    else:
        aux = PolyRing(ring.names, ring.field, order)
        basis = _engine([lift_polynomial(g, aux) for g in I.gens], aux,
                        I.degree_ceiling)
        gb = _engine([_divide_out(g, i, ring) for g in basis], ring,
                     I.degree_ceiling)
    return _presented(I, gb)


def saturate(I: Ideal) -> Ideal:
    """Saturation by the maximal ideal m, presented by its reduced basis with
    that basis cached.

    J = I : x_i^infinity contains I^sat = I : m^infinity, and equals it
    exactly when S/J and S/I have the same Hilbert polynomial, i.e. when
    (1-T)^n divides the difference of their Hilbert numerators: J/I^sat sits
    inside S/I^sat, which has no nonzero submodule of finite length, so it is
    zero or has a nonzero Hilbert polynomial.  When S/I has finite length
    (its numerator shows Krull dimension 0, or I = S), I^sat = S, presented
    by the basis (1) at once.  Otherwise the last variable is tried first,
    since in a grevlex ring it reuses I's cached basis.  When no variable
    certifies, the per-variable saturations are intersected, and the result
    keeps the intersection's basis.
    """
    n = I.ring.nvars
    target = hilbert_numerator(I)
    Q, c = _split(target)
    if Q is None or c >= n:
        return _presented(I, GroebnerBasis(I.ring, [I.ring.one()], (0,)))
    parts = []
    for i in reversed(range(n)):
        J = saturate_variable(I, i)
        Q, c = _split([a - b for a, b in itertools.zip_longest(
            target, hilbert_numerator(J), fillvalue=0)])
        if Q is None or c >= n:  # the same Hilbert polynomial
            return J
        parts.append(J)
    result = functools.reduce(intersect, parts)
    return _presented(I, result.groebner_basis())
