"""Report assembly: one JSON/text pair per command.

The JSON layout is {command, version, seed?, warnings, result}, serialized
with sorted keys and a fixed indent so identical inputs give byte-identical
output.  Field names are frozen in SCHEMA.md.  Warnings emitted by the
compute modules appear verbatim in both renderings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import __version__
from .fields import PrimeField


@dataclass(frozen=True)
class Report:
    command: str
    result: dict
    text_lines: tuple
    warnings: tuple = ()
    seed: int | None = None

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "version": __version__,
            "warnings": list(self.warnings),
            "result": self.result,
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = list(self.text_lines)
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"


def _ring_desc(ring) -> str:
    field = ring.field
    base = f"GF({field.p})" if isinstance(field, PrimeField) else str(field)
    return f"{base}[{','.join(ring.names)}] order={ring.order.kind}"


def _ring_json(ring) -> dict:
    field = ring.field
    return {
        "p": field.p,
        "ext": 1 if isinstance(field, PrimeField) else field.k,
        "vars": list(ring.names),
        "order": ring.order.kind,
    }


def _table(headers, rows):
    """Right-aligned fixed-width text table."""
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    return ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]


def gb_report(name: str, ring, gbasis) -> Report:
    elements = [str(g) for g in gbasis.elements]
    leads = [str(ring.poly({m: 1})) for m in gbasis.lead_monomials]
    result = {
        "ideal": name,
        "ring": _ring_json(ring),
        "size": len(elements),
        "basis": elements,
        "lead_monomials": leads,
    }
    plural = "element" if len(elements) == 1 else "elements"
    lines = [
        f"ring: {_ring_desc(ring)}",
        f"reduced Groebner basis of {name}: {len(elements)} {plural}",
    ]
    for i, g in enumerate(elements, start=1):
        lines.append(f"  [{i}] {g}")
    return Report("gb", result, tuple(lines))


def reg_report(name: str, ring, reg_ideal: int, reg_quotient: int) -> Report:
    result = {
        "ideal": name,
        "ring": _ring_json(ring),
        "ideal_regularity": reg_ideal,
        "quotient_regularity": reg_quotient,
    }
    lines = [
        f"ring: {_ring_desc(ring)}",
        f"regularity of {name}: {reg_ideal}",
        f"regularity of the quotient by {name}: {reg_quotient}",
    ]
    return Report("reg", result, tuple(lines))


def res_report(name: str, ring, of: str, betti) -> Report:
    """The minimal resolution's shape, read off its Betti table: F_i is the
    sum of S(-j) over beta_{i,j}, and the length is the top nonzero i."""
    if betti.entries:
        length = betti.projective_dimension()
    else:
        # empty table: the quotient's resolution has no module, the ideal's
        # a single zero module
        length = -1 if of == "quotient" else 0
    twists = [[] for _ in range(length + 1)]
    for (i, j), v in sorted(betti.entries.items()):
        twists[i].extend([j] * v)
    result = {
        "ideal": name,
        "ring": _ring_json(ring),
        "of": of,
        "betti": betti.as_json_map(),
        "regularity": betti.regularity() if betti.entries else None,
        "projective_dimension": (betti.projective_dimension()
                                 if betti.entries else None),
        "length": length,
        "twists": twists,
    }
    target = f"S/{name}" if of == "quotient" else name
    lines = [
        f"ring: {_ring_desc(ring)}",
        f"minimal free resolution of {target}: length {length}",
        "",
    ]
    lines.extend(betti.render().splitlines())
    if betti.entries:
        lines.append("")
        lines.append(f"regularity: {betti.regularity()}")
        lines.append(f"projective dimension: {betti.projective_dimension()}")
    return Report("res", result, tuple(lines))


def powers_report(name: str, ring, rep) -> Report:
    rows = [
        {"t": r.t, "reg_power": r.reg_power, "reg_quotient": r.reg_quotient,
         "e_t": r.e_t, "f_t": r.f_t}
        for r in rep.rows
    ]
    result = {
        "ideal": name,
        "ring": _ring_json(ring),
        "d": rep.d,
        "route": rep.route,
        "window": rep.window,
        "rows": rows,
        "epsilon_estimate": rep.epsilon_estimate,
        "stable_from_t": rep.stable_from_t,
        "status": rep.status,
    }
    lines = [
        f"ring: {_ring_desc(ring)}",
        f"powers of {name} (d = {rep.d}, route = {rep.route})",
        "",
    ]
    lines.extend(_table(
        ("t", "reg I^t", "reg S/I^t", "e_t", "f_t"),
        [(r.t, r.reg_power, r.reg_quotient, r.e_t, r.f_t) for r in rep.rows],
    ))
    lines.append("")
    lines.append(f"status: {rep.status}")
    if rep.epsilon_estimate is not None:
        lines.append(f"epsilon estimate: {rep.epsilon_estimate} "
                     f"(stable from t = {rep.stable_from_t})")
    return Report("powers", result, tuple(lines), rep.warnings)


def epsilon_report(name: str, ring, rep) -> Report:
    rows = [
        {"t": r.t, "top_degree": r.top_degree, "epsilon_t": r.epsilon_t}
        for r in rep.rows
    ]
    result = {
        "projection": name,
        "ring": _ring_json(ring),
        "d": rep.d,
        "window": rep.window,
        "rows": rows,
        "epsilon": rep.epsilon,
        "stable_from_t": rep.stable_from_t,
        "status": rep.status,
    }
    lines = [
        f"ring: {_ring_desc(ring)}",
        f"containment degrees for {name} (d = {rep.d})",
        "",
    ]
    lines.extend(_table(
        ("t", "top degree", "epsilon_t"),
        [(r.t, r.top_degree, r.epsilon_t) for r in rep.rows],
    ))
    lines.append("")
    lines.append(f"status: {rep.status}")
    if rep.epsilon is not None:
        lines.append(f"epsilon: {rep.epsilon} "
                     f"(stable from t = {rep.stable_from_t})")
    return Report("epsilon", result, tuple(lines), rep.warnings)


def bounds_report(name: str, ring, rep) -> Report:
    result = {
        "projection": name,
        "ring": _ring_json(ring),
        "d": rep.d,
        "epsilon": rep.epsilon_computed,
        "status": rep.status,
        "reg_R": rep.reg_R,
        "deg_X": rep.deg_X,
        "codim_X": rep.codim_X,
        "bound_easy": rep.bound_easy,
        "bound_degcodim": rep.bound_degcodim,
        "easy_tight": rep.easy_tight,
        "degcodim_tight": rep.degcodim_tight,
    }
    lines = [
        f"ring: {_ring_desc(ring)}",
        f"bound report for {name} (d = {rep.d})",
        f"  epsilon:            {rep.epsilon_computed} ({rep.status})",
        f"  reg R - 1:          {rep.bound_easy} (reg R = {rep.reg_R})"
        + ("  [tight]" if rep.easy_tight else ""),
        f"  deg X - codim X:    {rep.bound_degcodim} (deg {rep.deg_X}, "
        f"codim {rep.codim_X})" + ("  [tight]" if rep.degcodim_tight else ""),
    ]
    return Report("bounds", result, tuple(lines), rep.warnings)


def fibers_report(name: str, ring, rep, extra_warnings=()) -> Report:
    fiber_rows = [
        {
            "point": str(f.point),
            "k": f.point.k,
            "degree": f.degree,
            "regularity": f.regularity,
            "ideal": [str(g) for g in f.ideal.gens],
        }
        for f in rep.fibers
    ]
    summary = {
        "max_regularity": rep.max_regularity,
        "argmax": [str(q) for q in rep.argmax],
        "epsilon": rep.epsilon,
        "equals_epsilon_plus_1": rep.equals_epsilon_plus_1,
        "K": rep.K,
        "fiber_count": len(rep.fibers),
        "empty_fibers": rep.empty_fibers,
    }
    result = {
        "projection": name,
        "ring": _ring_json(ring),
        "summary": summary,
        "fibers": fiber_rows,
    }
    lines = [
        f"ring: {_ring_desc(ring)}",
        f"fibers of {name} over closed points (extension bound K = {rep.K})",
        "",
    ]
    lines.extend(_table(
        ("point", "k", "degree", "regularity"),
        [(str(f.point), f.point.k, f.degree, f.regularity)
         for f in rep.fibers],
    ))
    lines.append("")
    lines.append(f"max fiber regularity: {rep.max_regularity}, achieved at "
                 f"{len(rep.argmax)} point(s)")
    if rep.empty_fibers:
        lines.append(f"points outside the image: {rep.empty_fibers}")
    if rep.epsilon is not None:
        verdict = "true" if rep.equals_epsilon_plus_1 else "false"
        lines.append(f"epsilon: {rep.epsilon}")
        lines.append(f"equals epsilon + 1: {verdict}")
    warnings = tuple(extra_warnings) + tuple(rep.warnings)
    return Report("fibers", result, tuple(lines), warnings)


def twovars_report(name: str, ring, verdict) -> Report:
    rows = [
        {"t": c.t, "reg_power": c.reg_power, "predicted": c.predicted,
         "equal": c.equal}
        for c in verdict.rows
    ]
    result = {
        "forms": name,
        "ring": _ring_json(ring),
        "d": verdict.d,
        "r": verdict.r,
        "K": verdict.K,
        "status": verdict.status,
        "rows": rows,
        "equality_on_stable_rows": verdict.equality_on_stable_rows,
        "dim_V": verdict.report.dim_V,
        "witness_gcd": str(verdict.report.witness_gcd),
        "witness": [str(f) for f in verdict.report.witness],
    }
    lines = [
        f"ring: {_ring_desc(ring)}",
        f"two-variable invariant for {name}: d = {verdict.d}, "
        f"r = {verdict.r} (K = {verdict.K})",
        f"witness gcd: {verdict.report.witness_gcd}",
    ]
    if verdict.rows:
        lines.append("")
        lines.extend(_table(
            ("t", "reg I^t", "dt+r-1", "equal"),
            [(c.t, c.reg_power, c.predicted, "yes" if c.equal else "no")
             for c in verdict.rows],
        ))
        lines.append("")
        lines.append(f"equality on stabilized rows: "
                     f"{'yes' if verdict.equality_on_stable_rows else 'no'}")
    lines.append(f"status: {verdict.status}")
    return Report("twovars", result, tuple(lines), verdict.warnings)


def sample_report(name: str, ring, rep) -> Report:
    rows = [
        {"trial": r.trial, "epsilon": r.epsilon,
         "stabilized": r.stabilized, "within_bound": r.within_bound}
        for r in rep.rows
    ]
    result = {
        "ideal": name,
        "ring": _ring_json(ring),
        "c": rep.c,
        "n": rep.n,
        "bound": rep.bound,
        "trials": rep.trials,
        "skipped": rep.skipped,
        "rows": rows,
        "all_within": rep.all_within,
    }
    lines = [
        f"ring: {_ring_desc(ring)}",
        f"sampler on {name}: c = {rep.c}, n = {rep.n}, "
        f"bound floor(n/c) = {rep.bound}, seed = {rep.seed}",
        "",
    ]
    lines.extend(_table(
        ("trial", "epsilon", "stabilized", "within bound"),
        [(r.trial, r.epsilon, "yes" if r.stabilized else "no",
          "yes" if r.within_bound else "no")
         for r in rep.rows],
    ))
    lines.append("")
    lines.append(f"trials within bound: all = "
                 f"{'yes' if rep.all_within else 'no'} "
                 f"(skipped {rep.skipped} non-finite draws)")
    return Report("sample", result, tuple(lines), rep.warnings, seed=rep.seed)
