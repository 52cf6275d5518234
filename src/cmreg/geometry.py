"""Finite linear projections and their fibers.

A projection is given by linearly independent linear forms V = (l_0, ...,
l_s); it is finite on X exactly when I_X + (V) has finite length.  The fiber
over a closed point p of P^s is cut out by I_X plus the 2x2 minors binding
the l_i to the coordinates of p; since p is normalized (first nonzero
coordinate 1, at index i0), the minors reduce to the s independent linear
forms l_j - p_j * l_{i0}.  Each fiber is saturated as a subscheme of P^n,
in a grevlex ring over the residue field set up once per degree k, and
degree and regularity are read off its Hilbert numerator.  The engine
reduces I_X by the linear forms first, so the saturated basis is the reduced
forms plus the fiber's basis free of their lead (pivot) variables; a fiber
is presented by the forms as built followed by that second part.

When a fiber has one linear form l (a projection to P^1, s = 1),
HS(S/(I_X + l)) = (1-T) HS(S/I_X) + T HS(0 :_{S/I_X} l) is bounded below by
(1-T) HS(S/I_X), the numerator (1-T) N of I_X over (1-T)^n.  That bound is
computed once per search and bounds every fiber's basis computation: when
the leads of the installed generators meet it, they are the basis and no
S-pair is built, and otherwise the S-pairs of a degree where it is met are
dropped (see ``groebner._engine``).  With two or more forms there is no
such bound.

Each fiber ideal I is certified saturated by the center's Hilbert
numerator, read once per search.  With h = l_{i0}, I + (h) is the center
I_X + (V), and HS(S/(I + h)) = (1-T) HS(S/I) + T HS(0 :_{S/I} h), so h is
a nonzerodivisor on S/I exactly when the center's numerator is (1-T) times
I's (``hilbert._free_over_forms``).  h vanishes nowhere on the fiber, as
the center misses X, so it lies in no relevant associated prime of I,
while m, which contains h, is associated to any I that is not saturated:
for a nonempty fiber the test holds exactly when I is saturated.  Hilbert
series depend neither on the order nor on extending the field, so the
center's numerator over GF(p) serves every GF(p^k).  A fiber that fails,
empty or not saturated, takes ``groebner.saturate``.

Closed points over GF(p) are Galois orbits of points with coordinates in
GF(p^k); enumeration walks k = 1..K, keeps the points whose Frobenius orbit
has size exactly k, and takes the lexicographically least normalized orbit
member as the representative, deciding this once per block of points
that share a prefix (_point_blocks).

The two-variable invariant r is the maximum over codimension-1 subspaces V'
of V of deg gcd(V').  Hyperplanes of V are enumerated as dual points with
the same orbit machinery; binary-form gcds strip the x- and y-contents, run
a univariate Euclid on the dehomogenization at y, and rehomogenize.  The
scan reads each hyperplane's gcd degree off coefficient rows of the forms,
lifted once per extension degree, and builds Polynomials only for a new
best hyperplane, whose degree binary_gcd must confirm.

The hyperplane W_c at dual point c has a common root P exactly when
(f_1(P):...:f_m(P)) = c, so deg gcd(W_c) is the length of the fiber over c
of phi = (f_1:...:f_m): P^1 -> P^(m-1), and r is phi's largest fiber
length over the enumerated points.  A dual point off the image curve has
gcd degree 0: the scan runs the gcd kernel only where a degree-d form F
with F(f_1, f_2, f_3) = 0 vanishes at (c_1, c_2, c_3) (the image-curve
filter).  F is built once, before the scan, folded with each c_1 once
(_line_coefficients), and its zeros are found once per block of dual
points sharing (c_1, c_2) (_curve_scan).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import mul

from . import messages
from .asymptotics import (
    DEFAULT_WINDOW,
    STATUS_STABLE,
    _check_table,
    _forms_degree,
    power_table,
)
from .errors import (
    BudgetError,
    DimensionError,
    GeometryError,
    SelfCheckError,
    UsageError,
)
from .fields import (
    GF,
    MAX_EXTENSION_DEGREE,
    MAX_ORDER,
    FieldElement,
    PrimeField,
    _axpy,
    _pmul,
    _rref,
    _sparse,
    _unieuclid,
    _zmul,
)
from .groebner import (
    DEFAULT_DEGREE_CEILING,
    Ideal,
    _bounded,
    _presented,
    _unchecked,
    saturate,
)
from .hilbert import (
    _free_over_forms,
    _split,
    finite_length_witness,
    hilbert_numerator,
)
from .orders import GREVLEX, MonomialOrder
from .polynomials import PolyRing, Polynomial, lift_polynomial

DEFAULT_EXTENSION_BOUND = 2
DEFAULT_FIBER_BUDGET = 20000


@functools.lru_cache(maxsize=16)
def _variable_keys(order) -> dict:
    """{packed key of x_i: i} for the variables of ``order``."""
    n = order.nvars
    return {order.pack(tuple(int(j == i) for j in range(n))): i
            for i in range(n)}


def _linear_coefficients(f: Polynomial) -> dict:
    """{variable index: raw coefficient} of a linear form."""
    index = _variable_keys(f.ring.order)
    return {index[key]: c for key, c in f._terms.items()}


def _check_independent(field, forms):
    """UsageError unless the forms are linearly independent, by the rank of
    their term dicts as rows."""
    if len(_rref(field, [dict(f._terms) for f in forms])) != len(forms):
        raise UsageError("forms are linearly dependent")


class ProjectionSpec:
    """X in P^n together with s+1 independent linear forms defining a
    projection to P^s."""

    __slots__ = ("ideal", "forms", "ring", "s")

    def __init__(self, ideal: Ideal, forms):
        ring = ideal.ring
        forms = tuple(forms)
        if _forms_degree(ring, forms) != 1:
            raise UsageError("projection forms must be linear")
        _check_independent(ring.field, forms)
        self.ideal = ideal
        self.forms = forms
        self.ring = ring
        self.s = len(forms) - 1


@dataclass(frozen=True)
class Finiteness:
    finite: bool
    witness: str | None


def check_finite(spec: ProjectionSpec) -> Finiteness:
    """Certificate that the projection is finite: I_X + (V) has finite
    length.  When it does not, the witness names a variable with no pure
    power among the lead terms (the center of projection meets X).  The
    center is spec.ideal.plus(V), so after ``epsilon_containment`` on the
    same ideal and forms its basis is already computed."""
    J = spec.ideal.plus(Ideal(spec.ring, spec.forms))
    witness = finite_length_witness(J)
    return Finiteness(witness is None, witness)


@dataclass(frozen=True)
class ClosedPoint:
    """Orbit representative of a closed point of P^s over GF(p).

    Coordinates live in GF(p^k), are normalized (first nonzero = 1), and are
    the lexicographically least member of the Frobenius orbit, comparing
    coordinates in elements() order (by their power-basis tuples)."""

    k: int
    coords: tuple

    def __str__(self):
        texts = self.coords[0].field.texts
        return "(" + ":".join(texts[c.raw] for c in self.coords) + ")"


def _check_extension_bound(K: int):
    """UsageError unless 1 <= K <= MAX_EXTENSION_DEGREE."""
    if K < 1:
        raise UsageError("extension bound K must be at least 1")
    if K > MAX_EXTENSION_DEGREE:
        raise UsageError(
            f"extension bound K = {K} exceeds the supported maximum "
            f"{MAX_EXTENSION_DEGREE}"
        )


def _check_search(K: int, budget: int, what: str, ring=None):
    """UsageError unless the ``what`` budget is at least 1, K is a supported
    extension bound and, when a ring is given, its field is prime (points
    are enumerated over the prime field): the argument checks of a point
    search, made before any work."""
    if budget < 1:
        raise UsageError(f"{what} budget must be at least 1")
    _check_extension_bound(K)
    if ring is not None and not isinstance(ring.field, PrimeField):
        raise UsageError(
            f"{what} search enumerates closed points over the prime field; "
            f"the ring is defined over {ring.field}"
        )


def _point_blocks(p: int, K: int, s: int):
    """(GF(p^k), its elements in elements() order, prefix, width) for each
    block of closed points of P^s over GF(p) with k <= K, in the order of
    enumerate_closed_points: the block holds the orbit representatives
    prefix + tail, tail over itertools.product(elements, repeat=width).

    A block starts as the normalized points sharing their first two
    coordinates, or as the point (1) of P^0.  With phi the Frobenius map
    and 1 <= i < k: if every phi^i(prefix) lies above the prefix, every
    point of the block is the least member of an orbit of size k; if one
    lies below it, no point is; otherwise the block is split by its next
    coordinate, and a point that some phi^i fixes is dropped.  Prefixes are
    walked as tuples of positions in elements, which compare as the
    coordinates' power-basis tuples do."""
    _check_extension_bound(K)
    for k in range(1, K + 1):
        field = GF(p, k)
        elems = list(field.elements())
        rank = {a: i for i, a in enumerate(elems)}
        one = rank[field.one]
        if s:
            starts = [((one, c), s - 1) for c in range(len(elems))]
            starts += [((0,) * i0 + (one,), s - i0)
                       for i0 in range(1, s + 1)]
        else:
            starts = [((one,), 0)]
        frob = [rank[field.frobenius(a)] for a in elems]
        stack = starts[::-1]
        while stack:
            prefix, width = stack.pop()
            fixed = False
            cur = prefix
            for _ in range(k - 1):
                cur = tuple(frob[c] for c in cur)
                if cur < prefix:
                    break
                fixed = fixed or cur == prefix
            else:
                if not fixed:
                    yield field, elems, tuple(elems[c] for c in prefix), width
                elif width:
                    stack.extend((prefix + (c,), width - 1)
                                 for c in reversed(range(len(elems))))


def _closed_point_coords(p: int, K: int, s: int):
    """(GF(p^k), raw normalized coordinates) of each closed point of P^s
    over GF(p) with k <= K, in the order of enumerate_closed_points: the
    blocks of _point_blocks, flattened."""
    for field, elems, prefix, width in _point_blocks(p, K, s):
        for tail in itertools.product(elems, repeat=width):
            yield field, prefix + tail


def enumerate_closed_points(p: int, K: int, s: int):
    """Galois-orbit representatives of the closed points of P^s over GF(p)
    with residue extension degree at most K, in a deterministic order."""
    for field, coords in _closed_point_coords(p, K, s):
        yield ClosedPoint(field.k, tuple(FieldElement(field, c)
                                         for c in coords))


@dataclass(frozen=True)
class FiberReport:
    point: ClosedPoint
    ideal: Ideal
    degree: int
    regularity: int


@dataclass(frozen=True)
class FiberSearchReport:
    max_regularity: int
    argmax: tuple
    fibers: tuple
    K: int
    epsilon: int | None
    equals_epsilon_plus_1: bool | None
    empty_fibers: int
    partial: bool
    warnings: tuple


def _extension_ring(ring: PolyRing, k: int) -> PolyRing:
    if k == 1:
        return ring
    if not isinstance(ring.field, PrimeField):
        raise UsageError(
            "points over a proper extension of an extension base field are "
            "not supported"
        )
    return PolyRing(ring.names, GF(ring.field.p, k), ring.order)


def _fiber_setup(spec: ProjectionSpec, k: int):
    """(the spec's ring over GF(p^k), that ring under grevlex, where fibers
    are resolved whatever the spec's order, the projection forms and
    generators of I_X lifted into it, and I_X's degree ceiling): the part of
    a fiber's set-up fixed by the extension degree k of its point."""
    home = _extension_ring(spec.ring, k)
    grevlex = MonomialOrder(GREVLEX, home.nvars)
    big = (home if home.order == grevlex
           else PolyRing(home.names, home.field, grevlex))
    return (home, big, [lift_polynomial(f, big) for f in spec.forms],
            [lift_polynomial(g, big) for g in spec.ideal.gens],
            spec.ideal.degree_ceiling)


def _fiber_bound(spec: ProjectionSpec):
    """A Hilbert numerator over (1-T)^n whose series is at most the Hilbert
    function of every fiber ideal I_X + (l); () (no bound) unless each fiber
    has a single linear form l, i.e. the projection goes to P^1.

    HS(S/(I_X + l)) = (1-T) HS(S/I_X) + T HS(0 :_{S/I_X} l), so with N the
    numerator of I_X the bound is (1-T) N."""
    if spec.s != 1:
        return ()
    return _zmul((1, -1), hilbert_numerator(spec.ideal))


def _center_numerator(spec: ProjectionSpec):
    """The Hilbert numerator of the center I_X + (V), whose basis
    ``check_finite`` computes."""
    return hilbert_numerator(spec.ideal.plus(Ideal(spec.ring, spec.forms)))


class _Fiber:
    """One fiber, resolved as a subscheme of P^n: the saturation of I_X plus
    the fiber's linear forms, in the grevlex ring of ``_fiber_setup`` and
    under I_X's degree ceiling.  ``bound`` and ``center`` are those of
    ``_fiber_bound`` and ``_center_numerator``; a fiber ideal the center
    certifies saturated is presented by its own basis."""

    __slots__ = ("saturated", "linear_forms", "pivots", "home")

    def __init__(self, setup, point: ClosedPoint, bound, center):
        home, big, forms, gens, ceiling = setup
        field = big.field
        coords = point.coords

        i0 = next(i for i, c in enumerate(coords) if not c.is_zero())
        linear = [f - forms[i0].scale(c)
                  for j, (c, f) in enumerate(zip(coords, forms)) if j != i0]

        # the pivot variables are the leads of the reduced linear forms
        pivots = _rref(field, [_linear_coefficients(f) for f in linear])
        if len(pivots) != len(linear):
            raise SelfCheckError("fiber linear forms are dependent")
        I = _bounded(big, gens + linear, bound, ceiling)
        if _free_over_forms(hilbert_numerator(I), center, 1, 1):
            gb = I.groebner_basis()
            self.saturated = _presented(I, gb.elements, gb)
        else:
            self.saturated = saturate(I)
        self.linear_forms = tuple(linear)
        self.pivots = pivots
        self.home = home

    def is_empty(self) -> bool:
        gb = self.saturated.groebner_basis()
        return bool(gb.elements) and gb.elements[0].degree() == 0

    def ambient_ideal(self) -> Ideal:
        """The linear forms as built, then the saturated basis elements led
        by no pivot variable (the others are the reduced linear forms), in
        the spec's ring."""
        gb = self.saturated.groebner_basis()
        gens = list(self.linear_forms)
        for g, lead in zip(gb.elements, gb.lead_monomials):
            if not any(lead[i] for i in self.pivots):
                gens.append(g)
        if self.saturated.ring != self.home:
            gens = [lift_polynomial(g, self.home) for g in gens]
        return _unchecked(self.home, gens, self.saturated.degree_ceiling)


def fiber_ideal(spec: ProjectionSpec, point: ClosedPoint) -> Ideal:
    """Saturated ideal of the fiber over a closed point, as a subscheme of
    P^n; it contains 1 for points outside the image.

    The result lives in the spec's ring with coefficients lifted to GF(p^k)
    for the point's extension degree k, generated by the fiber's linear
    forms and the elements of the saturated basis free of their pivot
    variables, under I_X's degree ceiling."""
    return _Fiber(_fiber_setup(spec, point.k), point, _fiber_bound(spec),
                  _center_numerator(spec)).ambient_ideal()


def fiber_regularity(Z: Ideal):
    """(degree, regularity) of a saturated ideal of finitely many points,
    read off its Hilbert numerator N = Q * (1-T)^(n-1).

    S/Z is Cohen-Macaulay of dimension 1, so its Hilbert series is
    Q(T)/(1-T) with Q >= 0 (Q is the Hilbert series of S/(Z, l) for a linear
    nonzerodivisor l, over a large enough field).  The Hilbert function
    h(e) = Q_0 + ... + Q_e first reaches deg Z = Q(1) at e = deg Q, so
    reg Z = deg Q + 1 (Eisenbud, The Geometry of Syzygies, ch. 4).  A
    negative coefficient of Q means Z is not saturated: SelfCheckError."""
    Q, c = _split(hilbert_numerator(Z))
    dim = -1 if Q is None else Z.ring.nvars - c
    if dim != 1:
        raise DimensionError(
            f"fiber regularity needs a finite scheme; the affine cone has "
            f"Krull dimension {dim}, not 1"
        )
    if min(Q) < 0:
        raise SelfCheckError(f"fiber Hilbert numerator {Q} has a negative "
                             "coefficient: the ideal is not saturated")
    return sum(Q), len(Q)


def max_fiber_regularity(spec: ProjectionSpec,
                         K: int = DEFAULT_EXTENSION_BOUND,
                         epsilon: int | None = None,
                         budget: int = DEFAULT_FIBER_BUDGET) -> FiberSearchReport:
    """Maximum fiber regularity over the closed points of P^s with residue
    extension degree at most K, with every maximizing point.

    When epsilon is supplied the report states whether max = epsilon + 1;
    a shortfall is flagged as possible K-insufficiency (a maximizing point
    may live in a deeper extension), an excess is a fatal self-check
    failure.  Exhausting the point budget raises BudgetError carrying the
    partial report, whose max is then only a lower bound, or no report when
    the budget ran out before the first nonempty fiber."""
    _check_search(K, budget, "fiber", spec.ring)
    cert = check_finite(spec)
    if not cert.finite:
        raise GeometryError(
            f"projection is not finite: variable {cert.witness} has no pure "
            "power among the lead terms of I_X + (V)"
        )
    bound = _fiber_bound(spec)
    center = _center_numerator(spec)
    fibers = []
    empty = 0
    count = 0
    partial = False
    k = 0
    for point in enumerate_closed_points(spec.ring.field.p, K, spec.s):
        if count >= budget:
            partial = True
            break
        count += 1
        if point.k != k:
            k = point.k
            setup = _fiber_setup(spec, k)
        fib = _Fiber(setup, point, bound, center)
        if fib.is_empty():
            empty += 1
            continue
        deg, reg = fiber_regularity(fib.saturated)
        fibers.append(FiberReport(point, fib.ambient_ideal(), deg, reg))

    if not fibers:
        if partial:
            raise BudgetError(f"fiber budget {budget} exhausted after "
                              f"{count} points, all with empty fibers")
        raise GeometryError("no fibers found within the enumeration bound")
    max_reg = max(f.regularity for f in fibers)
    argmax = tuple(f.point for f in fibers if f.regularity == max_reg)

    warnings: list = []
    equals = None
    if epsilon is not None:
        target = epsilon + 1
        if max_reg > target:
            raise SelfCheckError(
                f"max fiber regularity {max_reg} exceeds epsilon + 1 = {target}"
            )
        equals = max_reg == target
        if max_reg < target and not partial:
            warnings.append(messages.k_insufficient(max_reg, target, K))
    if partial:
        warnings.append(messages.partial_lower_bound())
        report = FiberSearchReport(max_reg, argmax, tuple(fibers), K, epsilon,
                                   equals, empty, True, tuple(warnings))
        raise BudgetError(
            f"fiber budget {budget} exhausted after {count} points",
            partial=report,
        )
    return FiberSearchReport(max_reg, argmax, tuple(fibers), K, epsilon,
                             equals, empty, False, tuple(warnings))


# --- binary forms: gcd and the two-variable invariant ---

def _split_contents(h: Polynomial):
    """(x-content, y-content, dense coefficient list by x-degree) of a
    nonzero binary form; the list is the dehomogenization at y of the
    content-free part, constant term and lead both nonzero."""
    terms = h.sorted_terms()
    cx = min(exps[0] for exps, _ in terms)
    cy = min(exps[1] for exps, _ in terms)
    coeffs = [0] * (h.degree() - cx - cy + 1)
    for exps, c in terms:
        coeffs[exps[0] - cx] = c
    return cx, cy, coeffs


def _binary_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd of two binary forms, zero inputs allowed."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    ring = f.ring
    fx, fy, fu = _split_contents(f)
    gx, gy, gu = _split_contents(g)
    u = _unieuclid(ring.field, fu, gu)
    udeg = len(u) - 1
    cx = min(fx, gx)
    cy = min(fy, gy)
    pack = ring.order.pack
    return Polynomial(ring, {pack((i + cx, udeg - i + cy)): c
                             for i, c in enumerate(u) if c})


def binary_gcd(forms) -> Polynomial:
    """Monic gcd of a list of binary forms."""
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        raise UsageError("gcd of an empty or all-zero list")
    out = forms[0]
    for f in forms[1:]:
        out = _binary_gcd(out, f)
        if out.degree() == 0:
            break
    return out.monic()


@dataclass(frozen=True)
class TwoVarsReport:
    d: int
    dim_V: int
    r: int
    witness: tuple
    witness_gcd: Polynomial
    K: int
    warnings: tuple


def _coefficient_row(f: Polynomial, d: int):
    """Dense row of raw values of a binary form of degree d: row[i] is the
    coefficient of x^i y^(d-i)."""
    row = [f.ring.field.zero] * (d + 1)
    for exps, c in f.sorted_terms():
        row[exps[0]] = c
    return row


def _hyperplane_gcd_degree(field, rows, coords):
    """deg gcd of the hyperplane basis rows[j] - coords[j] * rows[i0],
    j != i0, of coefficient rows of independent degree-d binary forms, at
    normalized coordinates whose first 1 is at i0.

    The forms are independent, so no basis row is zero.  A basis row with
    its trailing zeros stripped is the dehomogenization u_j at y, and
    deg gcd = deg gcd(u_j) + min_j (d - deg u_j): the univariate gcd holds
    the x-content, the minimum is the y-content.  Folding stops once both
    are 0."""
    i0 = coords.index(field.one)
    pivot = _sparse(rows[i0])
    d = len(rows[i0]) - 1
    g = None
    ycontent = d
    for j, c in enumerate(coords):
        if j == i0:
            continue
        u = _sparse(rows[j])
        if c:
            _axpy(u, field, c, 0, pivot)
        u = [u.get(i, 0) for i in range(max(u) + 1)]
        ycontent = min(ycontent, d + 1 - len(u))
        g = u if g is None else _unieuclid(field, g, u)
        if len(g) == 1 and ycontent == 0:
            break
    return len(g) - 1 + ycontent


def _image_curve_form(field, rows, d):
    """{(a, b, c): raw coefficient} of a nonzero degree-d form F with
    F(f_1, f_2, f_3) = 0, for the coefficient rows of three independent
    degree-d binary forms over a prime field.

    F is a kernel vector of the evaluation map S_d(P^2) -> S_{d^2}(P^1),
    c_1^a c_2^b c_3^c -> f_1^a f_2^b f_3^c.  The kernel is nonzero: the
    image of (f_1:f_2:f_3) is a plane curve of degree at most d, and its
    equation times any form of the complementary degree lies in it."""
    p = field.p
    powers = []
    for row in rows:
        pw = [[1]]
        for _ in range(d):
            pw.append(_pmul(pw[-1], row, p))
        powers.append(pw)
    monos = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    images = [_pmul(_pmul(powers[0][a], powers[1][b], p), powers[2][c], p)
              for a, b, c in monos]
    # one column per monomial (_pmul drops top zeros); the first free
    # column gives a kernel vector
    matrix = [{j: img[i] for j, img in enumerate(images)
               if i < len(img) and img[i]} for i in range(d * d + 1)]
    pivots = _rref(field, matrix)
    free = next((j for j in range(len(monos)) if j not in pivots), None)
    if free is None:
        raise SelfCheckError("no degree-d form vanishes on the image curve")
    form = {monos[free]: 1}
    for r, col in enumerate(pivots):
        if free in matrix[r]:
            form[monos[col]] = p - matrix[r][free]
    return form


def _curve_scan(form, d, p: int, K: int, s: int):
    """(position, field, coords) of the dual points of P^s, s >= 2, where
    the twovars scan runs the gcd kernel, in enumeration order: the first
    point, then each point whose c_3 is a zero of h(c_3) = F(c_1, c_2, c_3)
    for the image-curve form F.  Positions count closed points from 0.
    Each block of _point_blocks ends with (position of its last point,
    field, None), so a budget is checked at every block.

    F is folded with c_1 once per c_1, and the zeros of h are found once
    per (c_1, c_2).  A block whose prefix
    fixes c_3 is on the curve or off it as a whole; in any other block
    each zero z of h is a run of len(elements)^(width - 1) points."""
    count = 0
    k = 0
    for field, elems, prefix, width in _point_blocks(p, K, s):
        if field.k != k:
            k = field.k
            zero_scan = field.zero_scan(d)
            index = {a: i for i, a in enumerate(elems)}
            lifted = {e: field.coerce(v) for e, v in form.items()}
            pair = c1 = None
        if count == 0:
            yield 0, field, prefix + (elems[0],) * width
        if prefix[:2] != pair:
            pair = prefix[:2]
            if pair[0] != c1:
                c1 = pair[0]
                restricted = _line_coefficients(field, lifted, d, c1)
            zeros = zero_scan(restricted(pair[1]))
            zero_set = set(zeros)
        if len(prefix) > 2:
            runs = [(0, prefix, width)] if prefix[2] in zero_set else []
        else:
            size = len(elems) ** (width - 1)
            runs = [(index[z] * size, prefix + (z,), width - 1)
                    for z in zeros]
        for offset, head, w in runs:
            for i, tail in enumerate(itertools.product(elems, repeat=w),
                                     count + offset):
                if i:
                    yield i, field, head + tail
        count += len(elems) ** width
        yield count - 1, field, None


def _restricted_coefficients(field, form, d, pair):
    """Coefficients, low degree first, of h(c_3) = F(c_1, c_2, c_3) at
    (c_1, c_2) = pair, for F = {(a, b, c): nonzero raw value of field} of
    degree d."""
    return _line_coefficients(field, form, d, pair[0])(pair[1])


def _line_coefficients(field, form, d, c1):
    """A function from c_2 to the coefficients, low degree first, of
    h(c_3) = F(c_1, c_2, c_3), for F as in ``_restricted_coefficients``.
    c_1 is folded into F once, F(c_1, y, z) = sum_c g_c(y) z^c, so each call
    evaluates only the g_c at c_2; one inline loop per kind of field, as in
    ``fields._axpy``."""
    zech = field.zech
    if zech is None:
        p = field.p
        g = [[0] * (d + 1 - c) for c in range(d + 1)]
        for (a, b, c), v in form.items():
            g[c][b] += v * pow(c1, a, p)
        g = [[v % p for v in row] for row in g]

        def at(c2):
            powers = [1]
            for _ in range(d):
                powers.append(powers[-1] * c2 % p)
            return [sum(map(mul, row, powers)) % p for row in g]

        return at
    W, Z, _ = zech
    g = {}
    for (a, b, c), v in form.items():
        u = field.pow_(c1, a)
        if u:
            t = W[v + u]
            old = g.get((b, c))
            if old:
                z = Z[t - old]
                t = W[old + z] if z else 0
            g[b, c] = t
    terms = [(b, c, v) for (b, c), v in g.items() if v]

    def at(c2):
        powers = [field.pow_(c2, i) for i in range(d + 1)]
        coeffs = [0] * (d + 1)
        for b, c, v in terms:
            if powers[b]:
                t = W[v + powers[b]]
                old = coeffs[c]
                if old:
                    z = Z[t - old]
                    t = W[old + z] if z else 0
                coeffs[c] = t
        return coeffs

    return at


def twovars_r(forms, K: int = DEFAULT_EXTENSION_BOUND,
              budget: int = DEFAULT_FIBER_BUDGET) -> TwoVarsReport:
    """max over codimension-1 subspaces V' of V of deg gcd(V'), with a
    witness basis achieving it.

    Subspaces defined over GF(p^k), k <= K, are enumerated as points of the
    dual projective space.  With dim V = 2 every hyperplane is a single form
    and r = d without enumeration.

    The scan lifts the forms once per extension degree and keeps them as
    coefficient rows; at each dual point the gcd degree of the hyperplane
    comes from those rows alone (_hyperplane_gcd_degree).  Only a point
    that beats the best degree so far gets its basis built as Polynomials,
    and binary_gcd, an independent route through the contents of the
    forms, must then give the same degree, or SelfCheckError is raised.

    Image-curve filter: before the scan, a degree-d form F vanishing on the
    image of (f_1:f_2:f_3) is built (_image_curve_form), and the scan skips
    the kernel at every point with F(c_1, c_2, c_3) != 0.  Such a point's
    gcd degree is 0, so it can matter only before the first witness, and
    the first point is always scanned.  _curve_scan finds the points on the
    curve with one zero pass of F per block of points sharing (c_1, c_2),
    and counts each block in one step.  Enumeration order, the point a
    budget stops at, the ceiling exit and the reports are those of the full
    scan.  A zero pass evaluates at every element, so prime fields are
    capped at MAX_ORDER elements, as extension fields are."""
    forms = tuple(forms)
    m = len(forms)
    if m < 2:
        raise UsageError("V must have dimension at least 2")
    ring = forms[0].ring
    if ring.nvars != 2:
        raise UsageError("the two-variable invariant needs a 2-variable ring")
    # with m = 2 nothing is enumerated, so any base field will do
    _check_search(K, budget, "subspace", ring if m > 2 else None)
    if m > 2 and ring.field.order > MAX_ORDER:
        raise UsageError(f"subspace search over {ring.field}: prime fields "
                         f"are limited to {MAX_ORDER} elements")
    d = _forms_degree(ring, forms)
    _check_independent(ring.field, forms)

    g = binary_gcd(forms)
    if g.degree() != 0:
        raise UsageError(f"gcd of V is not 1: common factor {g}")

    if m == 2:
        return TwoVarsReport(d, 2, d, (forms[0],), forms[0].monic(), K, ())

    # a hyperplane of V holds m - 1 independent forms; degree-g multiples of
    # a common factor span only d - g + 1 dimensions, so g <= d - m + 2 and
    # hitting that ceiling certifies the max over the closed field too
    ceiling = max(0, d - m + 2)
    best = -1
    witness = None
    witness_gcd = None
    k = 0
    curve = _image_curve_form(
        ring.field, [_coefficient_row(f, d) for f in forms[:3]], d)
    for pos, point_field, coords in _curve_scan(curve, d, ring.field.p, K,
                                                 m - 1):
        if pos >= budget:
            report = TwoVarsReport(d, m, best, witness, witness_gcd, K,
                                   (messages.partial_lower_bound(),))
            raise BudgetError(
                f"subspace budget {budget} exhausted after {budget} points",
                partial=report,
            )
        if coords is None:
            continue
        if point_field.k != k:
            k = point_field.k
            big = _extension_ring(ring, k)
            field = big.field
            lifted = [lift_polynomial(f, big) for f in forms]
            rows = [_coefficient_row(f, d) for f in lifted]
        deg = _hyperplane_gcd_degree(field, rows, coords)
        if deg > best:
            i0 = coords.index(field.one)
            basis = [lifted[j] - lifted[i0].scale(FieldElement(field, c))
                     for j, c in enumerate(coords) if j != i0]
            gg = binary_gcd(basis)
            if gg.degree() != deg:
                raise SelfCheckError(
                    f"hyperplane gcd degree {deg} from coefficient rows, "
                    f"{gg.degree()} from binary_gcd"
                )
            best = deg
            witness = tuple(basis)
            witness_gcd = gg
            if best >= ceiling:
                break

    if best > ceiling:
        raise SelfCheckError("gcd degree exceeded the subspace ceiling")
    return TwoVarsReport(d, m, best, witness, witness_gcd, K, ())


@dataclass(frozen=True)
class TwoVarsRowCheck:
    t: int
    reg_power: int
    predicted: int
    equal: bool


@dataclass(frozen=True)
class TwoVarsVerdict:
    d: int
    r: int
    rows: tuple
    equality_on_stable_rows: bool | None
    status: str
    K: int
    warnings: tuple
    report: TwoVarsReport


def twovars_verify(forms, t_max: int, K: int = DEFAULT_EXTENSION_BOUND,
                   window: int = DEFAULT_WINDOW,
                   budget: int = DEFAULT_FIBER_BUDGET,
                   degree_ceiling: int = DEFAULT_DEGREE_CEILING) -> TwoVarsVerdict:
    """Check dt + r - 1 <= reg I^t on the stabilized rows of the power
    table, reporting where equality holds.

    r from the K-bounded enumeration is a lower bound for the value over
    the closed field, so the inequality is asserted fatally; equality is
    expected exactly when a maximizing subspace is defined within degree
    K.  ``degree_ceiling`` is that of the ideal the forms generate."""
    _check_table(t_max, window)
    rep = twovars_r(forms, K, budget)
    ring = forms[0].ring
    I = Ideal(ring, tuple(forms), degree_ceiling)
    table = power_table(I, t_max, route="hilbert", window=window)
    warnings = list(rep.warnings) + list(table.warnings)
    rows = []
    equality = None
    if table.status == STATUS_STABLE:
        for row in table.rows:
            if row.t < table.stable_from_t:
                continue
            predicted = rep.d * row.t + rep.r - 1
            if predicted > row.reg_power:
                raise SelfCheckError(
                    f"dt + r - 1 = {predicted} exceeds reg I^t = "
                    f"{row.reg_power} at t = {row.t}"
                )
            rows.append(TwoVarsRowCheck(row.t, row.reg_power, predicted,
                                        predicted == row.reg_power))
        equality = all(r.equal for r in rows)
    return TwoVarsVerdict(rep.d, rep.r, tuple(rows), equality, table.status,
                          K, tuple(warnings), rep)
