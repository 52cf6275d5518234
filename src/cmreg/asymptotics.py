"""Regularity of ideal powers: tables, asymptotic fits, bounds, sampling.

reg I^t grows as d*t + e_t with e_t eventually constant; this module computes
the table of reg I^t either through minimal resolutions or, for finite-length
quotients, through the top nonzero degree of the Hilbert function.  The
stabilized tail value of e_t is only a heuristic estimate of the asymptotic
constant (no effective bound for "t large enough" exists), so reports carry
the stabilization window and explicit warnings.

epsilon_containment computes, per t, the least eps with m^(dt+eps) contained
in (V)^t + I_X; bound_report compares the stabilized eps against reg R - 1
and deg - codim; conjecture_sampler draws random linear systems and tabulates
eps against floor(n/c).  Row t = 1 is read from a basis of the center
I_X + (V).  When the center's Hilbert series is (1 - T^d)^s times that of
S/I_X, with s the number of forms, S/I_X is a free module over a
polynomial ring in s variables acting through the forms, so V is a
regular sequence on it and the top degree grows by exactly d per power: the rows t >= 2 are then
read off row 1 and eps_t = eps_1 for every t (see epsilon_containment for
the proof).  Otherwise each row takes a basis of (V)^t + I_X.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import messages
from .errors import DimensionError, GeometryError, SelfCheckError, UsageError
from .fields import FieldElement
from .groebner import Ideal
from .hilbert import (
    _free_over_forms,
    finite_length_witness,
    hilbert_numerator,
    quotient_degree,
    quotient_dimension,
    top_degree_finite,
)
from .polynomials import Polynomial
from .resolution import regularity

DEFAULT_WINDOW = 3

STATUS_STABLE = "heuristically_stable"
STATUS_NOT_STABILIZED = "not_stabilized"


@dataclass(frozen=True)
class PowerRegRow:
    t: int
    reg_power: int
    reg_quotient: int
    e_t: int
    f_t: int


@dataclass(frozen=True)
class PowerRegReport:
    d: int
    route: str
    rows: tuple
    epsilon_estimate: int | None
    stable_from_t: int | None
    status: str
    window: int
    warnings: tuple


@dataclass(frozen=True)
class EpsilonRow:
    t: int
    top_degree: int
    epsilon_t: int


@dataclass(frozen=True)
class EpsilonReport:
    d: int
    rows: tuple
    epsilon: int | None
    stable_from_t: int | None
    status: str
    window: int
    warnings: tuple


@dataclass(frozen=True)
class BoundReport:
    d: int
    epsilon_computed: int | None
    status: str
    reg_R: int
    deg_X: int
    codim_X: int
    bound_easy: int
    bound_degcodim: int
    easy_tight: bool | None
    degcodim_tight: bool | None
    warnings: tuple


@dataclass(frozen=True)
class SamplerTrial:
    trial: int
    epsilon: int
    stabilized: bool
    within_bound: bool


@dataclass(frozen=True)
class SamplerReport:
    c: int
    n: int
    bound: int
    trials: int
    skipped: int
    rows: tuple
    seed: int
    all_within: bool
    warnings: tuple


def _check_table(t_max: int, window: int):
    """UsageError unless t_max and the stabilization window are at least 1:
    the argument checks of every table, made before any work."""
    if t_max < 1:
        raise UsageError("t_max must be at least 1")
    if window < 1:
        raise UsageError("window must be at least 1")


def _forms_degree(ring, forms) -> int:
    """The degree d >= 1 shared by a nonempty list of nonzero homogeneous
    forms of ``ring``; UsageError otherwise."""
    degs = set()
    for f in forms:
        if not isinstance(f, Polynomial) or f.ring != ring:
            raise UsageError("forms live in a different ring")
        if f.is_zero():
            raise UsageError("zero form in V")
        hd = f.homogeneous_degree()
        if hd is None:
            raise UsageError(f"form {f} is not homogeneous")
        degs.add(hd)
    if len(degs) != 1:
        raise UsageError("forms of V must be nonempty and share a single "
                         "degree")
    d = degs.pop()
    if d < 1:
        raise UsageError("forms of V must have positive degree")
    return d


def _stabilize(ts, values, window, warnings):
    """(epsilon, stable_from_t, status) for a trace expected to stabilize."""
    if len(values) >= window and len(set(values[-window:])) == 1:
        eps = values[-1]
        stable_from = ts[-1]
        for t, v in zip(reversed(ts), reversed(values)):
            if v != eps:
                break
            stable_from = t
        warnings.append(messages.stabilization_heuristic(window))
        return eps, stable_from, STATUS_STABLE
    warnings.append(messages.not_stabilized(ts[-1]))
    return None, None, STATUS_NOT_STABILIZED


def power_table(I: Ideal, t_max: int, route: str = "resolution",
                window: int = DEFAULT_WINDOW) -> PowerRegReport:
    """Rows (t, reg I^t, reg S/I^t, e_t, f_t) for t = 1..t_max.

    Routes: "resolution" (always available), "hilbert" (finite length only:
    reg I^t = 1 + top nonzero degree), "both" (cross-checks the two).
    Monotonicity of e_t and f_t is asserted fatally when S/I has finite
    length and suppressed, with a warning, otherwise.
    """
    _check_table(t_max, window)
    if route not in ("resolution", "hilbert", "both"):
        raise UsageError(f"unknown route {route!r}")
    if I.is_zero_ideal():
        raise UsageError("power table of the zero ideal is degenerate")
    d = I.single_degree()
    if d is None:
        raise UsageError("generators have mixed degrees: d is undefined")
    if d == 0:
        raise UsageError("generators are constants: the ideal is the unit ideal")

    witness = finite_length_witness(I)
    m_primary = witness is None
    if route in ("hilbert", "both") and not m_primary:
        raise DimensionError(
            f"route {route!r} needs finite length, but variable {witness} "
            "has no pure power in the lead-term ideal"
        )

    rows = []
    for t in range(1, t_max + 1):
        It = I.power(t)
        if route == "hilbert":
            reg_q = top_degree_finite(It)
            reg_p = reg_q + 1
        else:
            reg_q = regularity(It, "quotient")
            reg_p = reg_q + 1
            if route == "both":
                top = top_degree_finite(It)
                if reg_p != top + 1:
                    raise SelfCheckError(
                        f"route disagreement at t = {t}: resolution gives "
                        f"reg I^t = {reg_p}, Hilbert gives {top + 1}"
                    )
        rows.append(PowerRegRow(t, reg_p, reg_q,
                                reg_p - d * t, reg_q - d * t + 1))

    warnings: list = []
    if m_primary:
        for row in rows:
            if row.e_t < 0 or row.f_t < 0:
                raise SelfCheckError(
                    f"negative normalized regularity at t = {row.t}: "
                    f"e_t = {row.e_t}, f_t = {row.f_t}"
                )
            if row.e_t != row.f_t:
                raise SelfCheckError(
                    f"e_t != f_t at t = {row.t} ({row.e_t} vs {row.f_t})"
                )
        for prev, cur in zip(rows, rows[1:]):
            if cur.e_t > prev.e_t or cur.f_t > prev.f_t:
                raise SelfCheckError(
                    f"e_t or f_t increased from t = {prev.t} to {cur.t}"
                )
    else:
        warnings.append(messages.MONOTONICITY_SUPPRESSED)

    eps, stable_from, status = _stabilize(
        [r.t for r in rows], [r.e_t for r in rows], window, warnings)
    return PowerRegReport(d, route, tuple(rows), eps, stable_from, status,
                          window, tuple(warnings))


def epsilon_containment(I_X: Ideal, forms, t_max: int,
                        window: int = DEFAULT_WINDOW) -> EpsilonReport:
    """Per t, the least eps_t with m^(dt+eps_t) inside (V)^t + I_X.

    The forms must share one degree d and the center must be disjoint from
    the scheme of I_X, i.e. I_X + (V) must have finite length.  eps_t is
    top_t - dt + 1, where top_t is the top nonzero degree of the
    finite-length S/((V)^t + I_X).  Row 1 comes from the center's basis.

    The rows t >= 2 need no basis when the center passes a Hilbert-series
    certificate.  Let M = S/I_X, let f_1..f_s be the generators of (V),
    all of degree d, and let A = F[y_1..y_s] act on M by y_i -> f_i, with
    each y_i of degree d.  The certificate is

        HS(M/VM) = (1 - T^d)^s HS(M)  and  M != 0.

    When it holds, M is a free A-module.  Proof: M/VM = M/(y)M has finite
    length, so by the graded Nakayama lemma M is a finitely generated
    graded A-module, minimally generated by b_0 elements, one for each
    F-basis vector of M/VM.  A minimal graded free resolution F. of M over
    A is finite (Hilbert's syzygy theorem); with B_i(T) the generating
    degrees of F_i, (1 - T^d)^s HS(M) = sum_i (-1)^i B_i(T) and
    HS(M/VM) = B_0(T).  At T = 1 the certificate gives
    b_0 = sum_i (-1)^i rank F_i = rank_A M.  So the surjection
    A^{b_0} -> M becomes an isomorphism over the fraction field of A, its
    kernel is a torsion-free module of rank 0, and the kernel is 0.  Then
    M is the direct sum of the A(-a_j), the a_j being the degrees of a
    homogeneous F-basis of M/VM, and (V)^t M = (y)^t M, so

        S/((V)^t + I_X) = M/(y)^t M = sum_j (A/(y)^t)(-a_j),

    whose top degree is max_j a_j + d(t - 1).  Hence top_t = top_1 +
    d(t - 1) and eps_t = eps_1 for every t, and the rows t >= 2 are read
    off row 1.  Freeness over A makes f_1..f_s a regular sequence on M.
    Conversely, a regular sequence makes every
    0 -> M_{i-1}(-d) -> M_{i-1} -> M_i -> 0, with M_i = M/(f_1..f_i)M,
    exact, which multiplies the series by (1 - T^d) per form: the
    certificate holds exactly when V is a regular sequence on M.  That is
    the case when S/I_X is Cohen-Macaulay and s = dim S/I_X, as for the
    twisted cubic and two linear forms whose center misses it.  When the certificate fails,
    for instance when S/I_X is not Cohen-Macaulay or s > dim S/I_X, each
    row t >= 2 takes a basis of (V)^t + I_X.
    """
    _check_table(t_max, window)
    ring = I_X.ring
    d = _forms_degree(ring, forms)

    V = Ideal(ring, tuple(forms), I_X.degree_ceiling)
    center = I_X.plus(V)  # kept by I_X, so check_finite reuses its basis
    witness = finite_length_witness(center)
    if witness is not None:
        raise GeometryError(
            f"the center meets X: variable {witness} has no pure power in "
            "the lead-term ideal of I_X + (V)"
        )

    free = _free_over_forms(hilbert_numerator(I_X),
                            hilbert_numerator(center), d, len(V.gens))
    rows = []
    for t in range(1, t_max + 1):
        if t == 1:
            top = top_degree_finite(center)
        elif free:
            top = rows[0].top_degree + d * (t - 1)
        else:
            top = top_degree_finite(V.power(t).plus(I_X))
        rows.append(EpsilonRow(t, top, top - d * t + 1))

    for prev, cur in zip(rows, rows[1:]):
        if cur.epsilon_t > prev.epsilon_t:
            raise SelfCheckError(
                f"epsilon_t increased from t = {prev.t} to {cur.t} "
                f"({prev.epsilon_t} -> {cur.epsilon_t})"
            )

    warnings: list = []
    eps, stable_from, status = _stabilize(
        [r.t for r in rows], [r.epsilon_t for r in rows], window, warnings)
    return EpsilonReport(d, tuple(rows), eps, stable_from, status, window,
                         tuple(warnings))


def bound_report(I_X: Ideal, forms, t_max: int,
                 window: int = DEFAULT_WINDOW) -> BoundReport:
    """Compare the computed eps with reg R - 1 and with deg X - codim X.

    The forms must be linear.  reg R means the regularity of the defining
    ideal I_X (ideal convention; the zero ideal has regularity 1).  The
    reg R - 1 bound is asserted when eps stabilized; deg - codim is reported
    as informational only.
    """
    for f in forms:
        if isinstance(f, Polynomial) and f.homogeneous_degree() not in (None, 1):
            raise UsageError("bound reports require linear forms")
    eps_rep = epsilon_containment(I_X, forms, t_max, window)

    reg_R = regularity(I_X, "ideal")
    deg_X = quotient_degree(I_X)
    codim_X = I_X.ring.nvars - quotient_dimension(I_X)
    bound_easy = reg_R - 1
    bound_dc = deg_X - codim_X

    warnings = list(eps_rep.warnings)
    warnings.append(messages.DEGCODIM_INFORMATIONAL)
    eps = eps_rep.epsilon
    easy_tight = None
    dc_tight = None
    if eps is not None:
        if eps > bound_easy:
            raise SelfCheckError(
                f"stabilized epsilon = {eps} exceeds reg R - 1 = {bound_easy}"
            )
        easy_tight = eps == bound_easy
        dc_tight = eps == bound_dc
    return BoundReport(eps_rep.d, eps, eps_rep.status, reg_R, deg_X, codim_X,
                       bound_easy, bound_dc, easy_tight, dc_tight,
                       tuple(warnings))


def ci_formula_check(d: int, t: int, n_plus_1: int) -> int:
    """t*d + (n-1)*(d-1) - 1 with n = n_plus_1: the regular-sequence top
    degree of S/I^t, and an upper bound for reg S/I^t in general."""
    if d < 1 or t < 1 or n_plus_1 < 1:
        raise UsageError("d, t and the variable count must be positive")
    return t * d + (n_plus_1 - 1) * (d - 1) - 1


def conjecture_sampler(I_X: Ideal, c: int, trials: int, seed: int,
                       t_max: int = 4,
                       window: int = DEFAULT_WINDOW) -> SamplerReport:
    """Empirical check of eps <= floor(n/c) on random linear systems.

    Per trial, draws n + 1 + c random linear forms (n + 1 = Krull dimension
    of S/I_X), skips draws whose center meets X, and tabulates the computed
    eps against floor(n/c).  The summary is evidence, never a proof.
    """
    if c < 1:
        raise UsageError("c must be at least 1")
    if trials < 0:
        raise UsageError("trials must be nonnegative")
    _check_table(t_max, window)
    ring = I_X.ring
    field = ring.field
    n = quotient_dimension(I_X) - 1
    if n < 0:
        raise UsageError("S/I_X has dimension 0; no projection to sample")
    bound = n // c
    count = n + 1 + c

    warnings = [messages.EMPIRICAL_NOT_PROOF]
    if field.p < 101:
        warnings.append(messages.small_field(field.p))

    variables = ring.variables()
    rows = []
    skipped = 0
    for i in range(trials):
        rng = random.Random(seed * 1_000_003 + i)
        forms = []
        while len(forms) < count:
            coeffs = [field.random(rng) for _ in variables]
            f = ring.zero()
            for coeff, x in zip(coeffs, variables):
                f = f + x.scale(FieldElement(field, coeff))
            if not f.is_zero():
                forms.append(f)
        try:
            rep = epsilon_containment(I_X, forms, t_max, window)
        except GeometryError:  # the center meets X
            skipped += 1
            continue
        stabilized = rep.status == STATUS_STABLE
        eps = rep.epsilon if stabilized else rep.rows[-1].epsilon_t
        rows.append(SamplerTrial(i, eps, stabilized, eps <= bound))

    all_within = all(r.within_bound for r in rows)
    return SamplerReport(c, n, bound, trials, skipped, tuple(rows), seed,
                         all_within, tuple(warnings))
