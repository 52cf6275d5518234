"""Schreyer resolutions of S/J, their Betti tables and minimal resolutions.

Only the Schreyer tower (``_schreyer_tower``) computes syzygies.  It builds
resolutions non-minimally: the reduced Groebner basis of the ideal
is the first differential, and each further level is the syzygy module of the
previous basis under the induced Schreyer order.  Schreyer's theorem makes
every level a Groebner basis for free, so no module Buchberger loop runs on
the tower: each kept S-pair of a level reduces to zero under ``groebner``'s
one reducer, and its quotients give the syzygy.  A level's terms are ints,
``(pack(m) + pack(image of e_pos)) << bits | (top - pos)``
(``SchreyerOrder``), so int comparison is the Schreyer order and
multiplying by u adds ``pack(u) << bits``.  Basis elements at each level
are sorted with lead monomials lexicographically decreasing inside each
position group; that keeps the variables supporting level-k lead quotients
shrinking, which bounds the tower length by nvars + 1.

The tower stays packed: each differential is a list of term dicts.
Betti numbers, and with them regularity, come from ranks: tensored with the
field, the non-minimal complex splits by internal degree, so each beta_{i,j}
is a twist count minus the ranks of two blocks of constant entries, the
terms whose monomial key is 0 (Erocal-Motsak-Schreyer-Steenpass, "Refined
algorithms to compute syzygies", JSC 74, 2016).  ``minimal_free_resolution``
minimizes on the same term dicts (``_minimize``): cancelling a unit at
(r, c) of D_k subtracts multiples of column c from the other columns of D_k
with ``_axpy``, while D_{k+1} just loses row c and D_{k-1} just loses
column r.  Only the surviving entries become Polynomials, once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SelfCheckError, UsageError
from .fields import _axpy, _rref, _strip
from .groebner import Ideal, _Basis, _ideal_basis, _reduce
from .hilbert import hilbert_numerator
from .orders import word_lcm
from .polynomials import Polynomial


@dataclass(frozen=True)
class FreeModule:
    """A graded free module given by its twists: F = sum_i S(-twists[i])."""

    twists: tuple

    @property
    def rank(self) -> int:
        return len(self.twists)


class SchreyerOrder:
    """Term order on a free module, flattened through the syzygy tower, on
    packed int keys.

    The term m * e_pos has key ``(pack(m) + weights[pos]) << bits |
    (top - pos)``, top the largest position.  ``weights[pos]`` is the packed
    key of the image monomial of e_pos, so the key compares the image
    m * image(e_pos) in the ring order first; on a tie the smaller
    position is the larger term.  Multiplying a term by u adds ``pack(u) << bits``.

    Schreyer's order breaks those ties by the path of lead positions down
    the tower first, then by the position.  The path never decides: the
    positions of level 1 all have the path (0,), and ``_syzygy_step`` sorts each level's
    basis by the position of its lead, so by induction the paths are
    nondecreasing in the position and order the positions as they do.
    """

    __slots__ = ("weights", "top", "bits")

    def __init__(self, weights):
        self.weights = tuple(weights)
        self.top = len(self.weights) - 1
        self.bits = self.top.bit_length()

    @classmethod
    def trivial(cls, rank: int):
        return cls((0,) * rank)

    def term(self, pos: int, key: int) -> int:
        """The key of m * e_pos, for m of packed key ``key``."""
        return (key + self.weights[pos]) << self.bits | (self.top - pos)

    def split(self, term: int):
        """(pos, packed key of m) of the term m * e_pos."""
        pos = self.top - (term & ((1 << self.bits) - 1))
        return pos, (term >> self.bits) - self.weights[pos]

    def induced(self, leads):
        """Order on the next level, given the lead term keys of this level's
        basis."""
        return SchreyerOrder([k >> self.bits for k in leads])


# --- Schreyer syzygies ---

def _syzygy_step(ring, basis: _Basis, order: SchreyerOrder, twists):
    """One tower level: syzygies of a module GB, pruned, sorted, with the
    induced order and twists for the next level.

    For each lead i the candidate pairs (i, j), j > i at i's position, are
    taken in the order of (word of u, j), u = lcm / m_i; a pair is kept
    unless the u of a kept pair divides its u.  Int order on exponent words
    extends divisibility, so what is kept is, for each divisibility-minimal
    u, its pair with the smallest j: the choice a (degree, u, j) order
    makes.  The exponents of u are unpacked for the kept pairs only.

    Returns (sigmas, next_order, next_twists): sigmas is the basis of the
    next level, whose term dicts are keyed by next_order's terms over the
    basis-index positions.
    """
    field = ring.field
    mono = ring.order
    guards = mono.guards
    leads = basis.leads
    groups = {}
    for i, (k, _, _) in enumerate(leads):
        groups.setdefault(order.split(k)[0], []).append(i)
    # the leads at one position share its weight, so their image words
    # give the same lcm quotients as their monomials
    kept = []
    for members in groups.values():
        for at, i in enumerate(members):
            wi = leads[i][1]
            chosen = []
            for wu, j in sorted((word_lcm(wi, leads[j][1], guards) - wi, j)
                                for j in members[at + 1:]):
                wug = wu | guards
                if not any((wug - wk) & guards == guards for wk in chosen):
                    chosen.append(wu)
                    kept.append((i, j, wu))

    next_order = order.induced([lead[0] for lead in leads])
    bits, nbits = order.bits, next_order.bits
    minus = field.neg(field.one)
    sigmas = []
    for i, j, wu in kept:
        # the leads are monic: the S-pair is u * e_i - v * e_j
        ki, wi, ri = leads[i]
        kj, wj, rj = leads[j]
        wv = wi + wu - wj  # the word of v = lcm / m_j
        if (wu + ri | wv + rj) & guards:
            mono.check(wu + ri)
            mono.check(wv + rj)
        u = mono.exponents(wu)
        ku = mono.pack(u)
        kv = (ki >> bits) + ku - (kj >> bits)
        work = {}
        _axpy(work, field, minus, ku << bits, basis.terms[i])
        _axpy(work, field, 1, kv << bits, basis.terms[j])
        quot = {}
        if _reduce(work, basis, field, quotients=quot):
            raise SelfCheckError("S-pair of a syzygy-level basis did not reduce to zero")
        lead = next_order.term(i, ku)
        sig = {lead: 1, next_order.term(j, kv): minus}
        _axpy(sig, field, 1, 0, {next_order.term(idx, km): q
                                 for (idx, km), q in quot.items()})
        sigmas.append(((i, tuple(-e for e in u), j), sig, lead, sum(u)))

    sigmas.sort(key=lambda t: t[0])
    next_basis = _Basis(mono, nbits)
    next_twists = []
    for (i, _, _), sig, lead, degree in sigmas:
        if max(sig) != lead:
            raise SelfCheckError("syzygy lead differs from its Schreyer prediction")
        next_basis.append(sig)
        next_twists.append(twists[i] + degree)
    return next_basis, next_order, next_twists


# --- resolutions ---

class Resolution:
    """A complex of free modules F_0 <- F_1 <- ... with graded differentials.

    Differentials are sparse maps {(row, col): Polynomial}; differentials[k]
    is the map F_{k+1} -> F_k.
    """

    __slots__ = ("ring", "frees", "differentials")

    def __init__(self, ring, frees, differentials):
        self.ring = ring
        self.frees = tuple(frees)
        self.differentials = tuple(dict(D) for D in differentials)

    @property
    def length(self) -> int:
        return len(self.frees) - 1


class BettiTable:
    """Graded Betti numbers beta_{i,j} with the usual grid rendering."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = {k: v for k, v in entries.items() if v}

    def regularity(self) -> int:
        if not self.entries:
            raise UsageError("Betti table of the zero module has no regularity")
        return max(j - i for i, j in self.entries)

    def projective_dimension(self) -> int:
        if not self.entries:
            raise UsageError("Betti table of the zero module has no projective dimension")
        return max(i for i, _ in self.entries)

    def as_json_map(self) -> dict:
        return {f"{i},{j}": self.entries[(i, j)]
                for i, j in sorted(self.entries)}

    def render(self) -> str:
        if not self.entries:
            return "(zero module)"
        imax = max(i for i, _ in self.entries)
        rmin = min(j - i for i, j in self.entries)
        rmax = max(j - i for i, j in self.entries)
        cols = list(range(imax + 1))
        grid = []
        header = [""] + [str(i) for i in cols]
        grid.append(header)
        totals = ["total:"] + [
            str(sum(v for (i, j), v in self.entries.items() if i == c) or ".")
            for c in cols
        ]
        grid.append(totals)
        for r in range(rmin, rmax + 1):
            row = [f"{r}:"]
            for c in cols:
                v = self.entries.get((c, c + r), 0)
                row.append(str(v) if v else ".")
            grid.append(row)
        widths = [max(len(row[k]) for row in grid) for k in range(len(header))]
        lines = [
            " ".join(cell.rjust(widths[k]) for k, cell in enumerate(row))
            for row in grid
        ]
        return "\n".join(lines)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __repr__(self):
        return f"BettiTable({self.as_json_map()})"


def _schreyer_tower(J: Ideal):
    """Non-minimal resolution of S/J, kept packed: (frees, tower).

    tower[k] = (columns, order) is the differential F_{k+1} -> F_k: one term
    dict per generator of F_{k+1}, keyed by ``order``'s terms over the
    positions of F_k.  Level 1 is the ideal's reduced basis under the
    trivial order of rank 1.

    Every graded free resolution of S/J has Euler characteristic
    sum_i (-1)^i sum_{j in twists(F_i)} T^j equal to the Hilbert numerator
    of S/J (Eisenbud, The Geometry of Syzygies, ch. 1), cached on the
    basis; a lost or extra syzygy or a wrong twist raises SelfCheckError.
    """
    ring = J.ring
    gb = J.groebner_basis()
    cols = [gb.elements[i] for i in sorted(
        range(len(gb)), key=gb.lead_monomials.__getitem__, reverse=True)]
    basis = _ideal_basis(ring.order, cols)
    order = SchreyerOrder.trivial(1)
    twists = [g.homogeneous_degree() for g in cols]
    frees = [FreeModule((0,))]
    tower = []
    while basis.terms:
        if len(tower) > ring.nvars + 1:
            raise SelfCheckError("syzygy tower exceeded its length bound")
        frees.append(FreeModule(tuple(twists)))
        tower.append((basis.terms, order))
        basis, order, twists = _syzygy_step(ring, basis, order, twists)
    euler = [0] * (max(max(free.twists) for free in frees) + 1)
    for i, free in enumerate(frees):
        for j in free.twists:
            euler[j] += (-1) ** i
    euler = tuple(_strip(euler) or [0])
    if euler != hilbert_numerator(J):
        raise SelfCheckError(f"Euler characteristic {euler} of the "
                             "resolution differs from the Hilbert numerator")
    return frees, tower


def _minimize(ring, frees, tower):
    """Cancel unit entries of the packed tower level by level; returns the
    minimal complex's (frees, differentials), the differentials as
    {(row, col): Polynomial} maps.

    At level k the pivot is the smallest (row r, column c) whose entry has
    a term of monomial key 0, the term ``order.term(r, 0)``; a graded entry
    with a constant term is that constant, the unit.  Every other column j
    loses (a_rj / unit) times column c, one ``_axpy`` per term t of a_rj,
    whose low bits are top - r, with shift t - ``order.term(r, 0)``; that
    clears row r.  Then column c goes, level k+1 loses its terms at
    position c and level k-1 loses column r.  Positions keep their tower
    numbering until the surviving ones are renumbered at the end.
    """
    field = ring.field
    levels = [({c: dict(terms) for c, terms in enumerate(columns)}, order)
              for columns, order in tower]
    gone = [set() for _ in frees]
    for k, (columns, order) in enumerate(levels):
        mask = (1 << order.bits) - 1
        units = {order.term(r, 0): r for r in range(order.top + 1)}
        while True:
            found = [(units[t], c, v) for c, terms in columns.items()
                     for t, v in terms.items() if t in units]
            if not found:
                break
            r, c, unit = min(found)
            pivot = columns.pop(c)
            low, one = order.top - r, order.term(r, 0)
            for terms in columns.values():
                for t, v in [(t, v) for t, v in terms.items()
                             if t & mask == low]:
                    _axpy(terms, field, field.div(v, unit), t - one, pivot)
            gone[k].add(r)
            gone[k + 1].add(c)
            if k + 1 < len(levels):
                above, above_order = levels[k + 1]
                row, bits = above_order.top - c, above_order.bits
                for terms in above.values():
                    for t in [t for t in terms
                              if t & ((1 << bits) - 1) == row]:
                        del terms[t]
            if k:
                del levels[k - 1][0][r]

    ids = [[i for i in range(f.rank) if i not in g]
           for f, g in zip(frees, gone)]
    # truncate once ranks vanish
    cut = next((lvl for lvl, lst in enumerate(ids) if not lst), len(ids))
    if any(ids[cut + 1:]):
        raise SelfCheckError("minimized complex has a gap")
    out_frees = [FreeModule(tuple(frees[lvl].twists[i] for i in lst))
                 for lvl, lst in enumerate(ids[:cut])]
    out_diffs = []
    for lvl in range(1, cut):
        columns, order = levels[lvl - 1]
        rowpos = {i: a for a, i in enumerate(ids[lvl - 1])}
        D = {}
        for a, c in enumerate(ids[lvl]):
            entries = {}
            for t, v in columns[c].items():
                r, key = order.split(t)
                entries.setdefault(rowpos[r], {})[key] = v
            for r, entry in entries.items():
                D[(r, a)] = Polynomial(ring, entry)
        out_diffs.append(D)
    return out_frees, out_diffs


def _betti_from_frees(frees) -> BettiTable:
    entries = {}
    for i, free in enumerate(frees):
        for j in free.twists:
            entries[(i, j)] = entries.get((i, j), 0) + 1
    return BettiTable(entries)


def _betti_by_ranks(ring, frees, tower) -> BettiTable:
    """Betti table of S/J from a non-minimal resolution, without minimizing.

    Over the field the complex splits by internal degree j, so
    beta_{i,j} = #{twist j in F_i} - rank C_{i-1,j} - rank C_{i,j}, where
    C_{k,j} holds the constant entries of differential k, the terms of
    ``tower[k]`` whose monomial key is 0.  A graded map has constant
    entries only between generators of equal twist; one elsewhere raises
    SelfCheckError.
    """
    field = ring.field
    ranks = {}
    for k, (columns, order) in enumerate(tower):
        rows_tw, cols_tw = frees[k].twists, frees[k + 1].twists
        blocks = {}
        for c, terms in enumerate(columns):
            j = cols_tw[c]
            for t, v in terms.items():
                r, key = order.split(t)
                if key == 0:
                    if rows_tw[r] != j:
                        raise SelfCheckError(
                            f"constant entry joins twists {rows_tw[r]} and {j}")
                    blocks.setdefault(j, {}).setdefault(c, {})[r] = v
        for j, cols in blocks.items():
            ranks[(k, j)] = len(_rref(field, list(cols.values())))
    entries = dict(_betti_from_frees(frees).entries)
    for (i, j) in entries:
        entries[(i, j)] -= ranks.get((i - 1, j), 0) + ranks.get((i, j), 0)
        if entries[(i, j)] < 0:
            raise SelfCheckError(f"negative Betti number beta_{{{i},{j}}}")
    return BettiTable(entries)


def _check_of(of: str):
    """UsageError unless ``of`` names a target: the quotient S/J or J."""
    if of not in ("quotient", "ideal"):
        raise UsageError(f"unknown resolution target {of!r}")


def betti_table(J: Ideal, of: str = "quotient") -> BettiTable:
    """Graded Betti numbers of S/J or of J, read off the Schreyer resolution
    by ranks of its constant blocks; no differential is minimized."""
    _check_of(of)
    frees, tower = _schreyer_tower(J)
    betti = _betti_by_ranks(J.ring, frees, tower)
    if of == "quotient":
        return betti
    # J is resolved by the quotient's complex with F_0 = S stripped
    return BettiTable({(i - 1, j): v for (i, j), v in betti.entries.items()
                       if i >= 1})


def minimal_free_resolution(J: Ideal, of: str = "quotient"):
    """Minimal graded free resolution of S/J or of J, with its Betti table.

    Only callers that need the minimal differentials come here; Betti
    numbers alone are cheaper from ``betti_table``.
    """
    _check_of(of)
    frees, tower = _schreyer_tower(J)
    frees, diffs = _minimize(J.ring, frees, tower)
    if of == "quotient":
        res = Resolution(J.ring, frees, diffs)
        return res, _betti_from_frees(frees)
    # the resolution of the ideal is the quotient's with F_0 = S stripped
    res = Resolution(J.ring, frees[1:] or [FreeModule(())], diffs[1:])
    return res, _betti_from_frees(frees[1:])


def regularity(J: Ideal, of: str = "ideal") -> int:
    """Castelnuovo-Mumford regularity of J or of S/J.

    reg J = reg S/J + 1 always.  Conventions: the zero ideal (all of
    projective space) has regularity 1 as an ideal and 0 as a quotient; the
    unit ideal has regularity 0 as an ideal (it is S) and -1 as a quotient
    (top-degree convention for the zero module).
    """
    _check_of(of)
    betti = betti_table(J, "quotient")
    reg_quotient = betti.regularity() if betti.entries else -1
    return reg_quotient + 1 if of == "ideal" else reg_quotient
