"""Seeded inputs, CLI arguments and report checks for each workload.

A workload turns a seed into a pool of jobs.  A job is one session file
plus the CLI arguments that run one command on it.  Each workload cycles
through a fixed list of shapes (field, degree, number of generators) so
that every seed yields the same mix of shapes; the seed draws only the
coefficients.  Rejection sampling keeps only inputs on which the command
is expected to succeed: m-primary ideals, finite projections, and
binary-form systems of full rank with gcd 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


# Jobs per pool: a multiple of every workload's shape count.  A pass over
# the pool takes 20 to 32 s at the seed commit, so a 36 s run finishes one,
# and twelve or more draws per shape keep the seed's luck out of the medians.
POOL_SIZE = 36


@dataclass(frozen=True)
class Job:
    name: str
    text: str
    args: tuple


def _monomials(nvars, d):
    """Exponent vectors of degree d in nvars variables, in a fixed order."""
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def _term(c, names, exps):
    factors = [str(c)] if c != 1 else []
    for name, e in zip(names, exps):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def _form(rng, p, names, d):
    """Dense random form of degree d over GF(p) as session text, never zero."""
    while True:
        terms = []
        for exps in _monomials(len(names), d):
            c = rng.randrange(p)
            if c:
                terms.append(_term(c, names, exps))
        if terms:
            return " + ".join(terms)


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# --- powers-primary: m-primary ideals in GF(32003)[x,y,z] ---

POWERS_P = 32003
POWERS_VARS = ("x", "y", "z")
# (degree, generators, tmax), about 0.25 s, 0.45 s and 1.0 s per job at
# the seed commit.
POWERS_SHAPES = ((2, 4, 3), (3, 3, 2), (2, 4, 4))


def powers_jobs(rng, cm):
    jobs = []
    for i in range(POOL_SIZE):
        d, g, tmax = POWERS_SHAPES[i % len(POWERS_SHAPES)]
        while True:
            gens = ", ".join(_form(rng, POWERS_P, POWERS_VARS, d)
                             for _ in range(g))
            text = (f"ring p={POWERS_P} vars={','.join(POWERS_VARS)} "
                    f"order=grevlex\nideal I = {gens}\n")
            session = cm.sessions.parse_session(text)
            I = cm.groebner.Ideal(session.ring, session.ideals["I"])
            if cm.hilbert.finite_length_witness(I) is None:
                break
        jobs.append(Job(f"powers-{i:03d}", text,
                        ("powers", "-i", "I", "--route", "both",
                         "--tmax", str(tmax), "--json")))
    return jobs


def check_powers(result):
    es = [row["e_t"] for row in result["rows"]]
    fs = [row["f_t"] for row in result["rows"]]
    if es != fs:
        return f"e_t {es} != f_t {fs}"
    if any(e < 0 for e in es):
        return f"negative e_t in {es}"
    if any(a < b for a, b in zip(es, es[1:])):
        return f"e_t not nonincreasing: {es}"
    return None


# --- fibers-proj: general projections of the twisted cubic to P^1 ---

FIBER_VARS = ("x0", "x1", "x2", "x3")
TWISTED_CUBIC = "x1^2 - x0*x2, x1*x2 - x0*x3, x2^2 - x1*x3"
# (p, K): 56, 29 and 12 closed points of P^1 of degree <= K, about 1.3 s,
# 0.8 s and 0.2 s per job at the seed commit.
FIBER_SHAPES = ((5, 3), (7, 2), (11, 1))


def fibers_jobs(rng, cm):
    jobs = []
    for i in range(POOL_SIZE):
        p, K = FIBER_SHAPES[i % len(FIBER_SHAPES)]
        while True:
            forms = ", ".join(_form(rng, p, FIBER_VARS, 1) for _ in range(2))
            text = (f"ring p={p} vars={','.join(FIBER_VARS)} order=grevlex\n"
                    f"ideal X = {TWISTED_CUBIC}\nforms V = {forms}\n"
                    f"projection P = X : V\n")
            session = cm.sessions.parse_session(text)
            X = cm.groebner.Ideal(session.ring, session.ideals["X"])
            try:
                spec = cm.geometry.ProjectionSpec(X, session.forms["V"])
            except cm.errors.UsageError:
                continue  # dependent forms
            if cm.geometry.check_finite(spec).finite:
                break
        jobs.append(Job(f"fibers-{i:03d}", text,
                        ("fibers", "-s", "P", "--ext-bound", str(K),
                         "--json")))
    return jobs


def check_fibers(result):
    summary = result["summary"]
    if summary["equals_epsilon_plus_1"] is not True:
        return "max fiber regularity is not epsilon + 1"
    bad = [f["point"] for f in result["fibers"] if f["degree"] != 3]
    if bad:
        return f"fibers of degree other than 3 at {bad[:3]}"
    return None


# --- twovars-binary: three binary forms over GF(101) with gcd 1 ---

BINARY_P = 101
BINARY_VARS = ("x", "y")
# Degree 3 is left out: its systems stop anywhere from 0.06 s to 0.8 s,
# when a hyperplane of V reaches the gcd ceiling, so its cost depends on the
# seed more than on the code.
BINARY_DEGREES = (4, 5)


def twovars_jobs(rng, cm):
    ring = cm.polynomials.PolyRing(BINARY_VARS, cm.fields.GF(BINARY_P))
    jobs = []
    for i in range(POOL_SIZE):
        d = BINARY_DEGREES[i % len(BINARY_DEGREES)]
        while True:
            forms = [_form(rng, BINARY_P, BINARY_VARS, d) for _ in range(3)]
            polys = [cm.sessions.parse_polynomial(f, ring) for f in forms]
            rows = [[f.coefficient(ring.monomial((d - j, j))).raw
                     for j in range(d + 1)] for f in polys]
            if _rank_mod_p(rows, BINARY_P) != 3:
                continue
            if cm.geometry.binary_gcd(polys).degree() == 0:
                break
        text = (f"ring p={BINARY_P} vars={','.join(BINARY_VARS)} "
                f"order=grevlex\nforms F = {', '.join(forms)}\n")
        jobs.append(Job(f"twovars-{i:03d}", text,
                        ("twovars", "-f", "F", "--ext-bound", "1",
                         "--tmax", "4", "--json")))
    return jobs


def check_twovars(result):
    r, d = result["r"], result["d"]
    if not 1 <= r <= d:
        return f"r = {r} outside 1..{d}"
    if not result["rows"]:
        return "no stabilized rows"
    bad = [row["t"] for row in result["rows"]
           if row["predicted"] > row["reg_power"]]
    if bad:
        return f"dt + r - 1 exceeds reg I^t at t = {bad}"
    return None


@dataclass(frozen=True)
class Workload:
    make_jobs: object
    check: object


WORKLOADS = {
    "powers-primary": Workload(powers_jobs, check_powers),
    "fibers-proj": Workload(fibers_jobs, check_fibers),
    "twovars-binary": Workload(twovars_jobs, check_twovars),
}
