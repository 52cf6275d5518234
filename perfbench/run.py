"""Closed-loop benchmark of the cmreg command line.

    python3 perfbench/run.py --workload powers-primary --seed 1 \
        --seconds 36 --trace 0

One client, one process, no threads: each job is a seeded session file run
through ``cmreg.cli.main`` to completion before the next starts.  The job
pool is cycled until ``--seconds`` have passed and at least one full pass is
done; each pool entry weighs the same in the metrics (``pass_weights``).
Every report is checked (exit code, the workload's invariants, and
byte equality with the same job's first-pass report).

``--trace 0`` prints the end-to-end metrics, timed in reference seconds
(see ``reference_probe``); ``--trace 1`` makes a separate
run that wraps cmreg's layers (see ``tracing.py``) and prints per-layer
metrics.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people.  See README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

SETUP_REPEATS = 7
# A shared host's speed swings by a third within seconds and drifts over
# minutes (see README.md), so every timed interval is bracketed by a
# reference probe and reported in reference seconds: seconds on a host where
# the probe takes REF_PROBE_S.
PROBE_ROUNDS = 80
REF_PROBE_S = 0.04
# Fixed so that the metric means the same on every commit.  At the seed
# commit a run completes about 36 to 60 jobs, so 9 or more lie beyond it.
TAIL_PERCENTILE = 75
LAYERS = ("cli", "sessions", "asymptotics", "resolution", "groebner",
          "hilbert", "geometry", "reports")


def load_cmreg():
    """Import cmreg from this checkout's src/, dropping any earlier import so
    that each set-up repeat pays the import again."""
    for name in [n for n in sys.modules if n.split(".")[0] == "cmreg"]:
        del sys.modules[name]
    importlib.import_module("cmreg.cli")
    origin = Path(sys.modules["cmreg"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"cmreg was imported from {origin}, not {SRC}")
    return types.SimpleNamespace(**{
        name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
        if name.startswith("cmreg.")
    })


def setup(workload, seed):
    """Import cmreg, draw the seeded job pool and write its session files."""
    cm = load_cmreg()
    jobs = workload.make_jobs(random.Random(seed), cm)
    WORK.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in jobs:
        path = WORK / f"{job.name}.reg"
        path.write_text(job.text, encoding="utf-8")
        paths.append(path)
    return cm, jobs, paths


def run_job(cm, job, path):
    """(seconds, exit code or None, stdout, stderr) of one CLI job."""
    argv = [job.args[0], str(path), *job.args[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cm.cli.main(argv)
        except (Exception, SystemExit):  # a crashed job fails; the loop goes on
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def verify(workload, code, out):
    """None when the job succeeded, else why it failed."""
    if code != 0:
        return f"exit code {code}"
    try:
        return workload.check(json.loads(out)["result"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"report does not match the schema: {exc!r}"


class _Monomial:
    """Exponent vector with a cached hash, as a polynomial kernel keeps one."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps):
        self.exps = exps
        self._hash = hash(exps)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.exps == other.exps

    def mul(self, other):
        return _Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))


def reference_probe():
    """Seconds for a fixed pure-Python task: squaring a dense quartic in
    three variables over GF(32003) with dict-of-monomial arithmetic, the
    kind of work cmreg's kernels do.  It never calls cmreg, so its time
    moves only with the host's speed."""
    p = 32003
    f = {_Monomial((i, j, 4 - i - j)): (7 * i + 3 * j + 1) % p
         for i in range(5) for j in range(5 - i)}
    gc.collect()  # so that the last job's garbage is not timed here
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        out = {}
        for m1, c1 in f.items():
            for m2, c2 in f.items():
                m = m1.mul(m2)
                c = (out.get(m, 0) + c1 * c2) % p
                if c:
                    out[m] = c
                else:
                    out.pop(m, None)
        sorted(out, key=lambda m: m.exps, reverse=True)
    return time.perf_counter() - start


def scaled(times, probes):
    """Reference seconds: each time scaled by REF_PROBE_S over the mean of
    the probes taken just before and just after it."""
    return [t * REF_PROBE_S * 2 / (before + after)
            for t, before, after in zip(times, probes, probes[1:])]


def machine_info():
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


class Loop:
    """Runs the pool in order, cycling, and keeps the outcome of every job."""

    def __init__(self, cm, workload, jobs, paths):
        self.cm, self.workload = cm, workload
        self.jobs, self.paths = jobs, paths
        self.first_pass = [None] * len(jobs)
        self.times = []
        self.attempted = 0
        self.failed = 0

    def job(self, i):
        k = i % len(self.jobs)
        elapsed, code, out, err = run_job(self.cm, self.jobs[k],
                                          self.paths[k])
        problem = verify(self.workload, code, out)
        if self.first_pass[k] is None:
            self.first_pass[k] = out
        elif problem is None and out != self.first_pass[k]:
            problem = "report bytes differ from the first pass"
        self.attempted += 1
        self.times.append(elapsed)
        if problem is not None:
            self.failed += 1
            print(f"FAILED {self.jobs[k].name}: {problem}\n{err}",
                  file=sys.stderr)
        return elapsed

    def digest(self):
        h = hashlib.sha256()
        for out in self.first_pass:
            h.update(out.encode("utf-8"))
        return h.hexdigest()


def pass_weights(n, pool):
    """Weights of n jobs cycled over a pool: 1 over the number of runs of
    the job's pool entry, so that every entry weighs the same however much
    of a second pass the run reached."""
    full, extra = divmod(n, pool)
    return [1 / (full + (i % pool < extra)) for i in range(n)]


def percentile(values, weights, p):
    """Weighted nearest-rank percentile: the smallest value whose cumulative
    weight reaches p% of the total; and the number of samples beyond it."""
    pairs = sorted(zip(values, weights))
    goal = p / 100 * sum(weights)
    acc = 0.0
    for rank, (value, weight) in enumerate(pairs, 1):
        acc += weight
        if acc >= goal * (1 - 1e-12):
            return value, len(pairs) - rank
    return pairs[-1][0], 0


def run_plain(loop, seconds):
    """Wall seconds of the run and the probes around each job."""
    probes = [reference_probe()]
    start = time.perf_counter()
    i = 0
    while i < len(loop.jobs) or time.perf_counter() - start < seconds:
        loop.job(i)
        probes.append(reference_probe())
        i += 1
    return time.perf_counter() - start, probes


def run_traced(loop, tracer, seconds):
    """Each job runs twice, untraced and traced, in alternating order; the
    ratio of the pair gives the tracing overhead."""
    ratios = []
    start = time.perf_counter()
    i = 0
    while i < len(loop.jobs) or time.perf_counter() - start < seconds:
        pair = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                tracer.begin_job(i)
            try:
                pair[traced] = loop.job(i)
            finally:
                if traced:
                    tracer.end_job()
                    tracer.uninstall()
        ratios.append(pair[True] / pair[False])
        i += 1
    return i, statistics.median(ratios) - 1


def layer_metrics(tracer, jobs, overhead, nonempty_ratio):
    """Per-job means of self times and counts, layer shares of job time."""
    total = tracer.total["cli.main"]

    def layer_self(layer):
        return sum(v for k, v in tracer.self_time.items()
                   if k.split(".")[0] == layer)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer) / jobs, "s/job")
    for name in ("groebner.groebner_basis", "groebner.intersect",
                 "geometry.twovars_r", "geometry.binary_gcd",
                 "asymptotics.power_table", "asymptotics.epsilon_containment",
                 "sessions.parse_session", "reports.render"):
        m[f"{name}.self_s"] = (tracer.self_time[name] / jobs, "s/job")
    for name in ("resolution.minimal_free_resolution",
                 "resolution.regularity", "groebner.groebner_basis",
                 "groebner.intersect", "groebner.saturate", "groebner.colon",
                 "geometry.binary_gcd", "hilbert.hilbert_numerator"):
        m[f"{name}.calls"] = (tracer.calls[name] / jobs, "count/job")
    for key in ("polynomials.mul.calls", "polynomials.sub.calls",
                "polynomials.lift_polynomial.calls", "fields.inv.calls",
                "geometry.enumerate_closed_points.points"):
        m[key] = (tracer.counts[key] / jobs, "count/job")
    m["geometry.fibers_nonempty_ratio"] = (nonempty_ratio, "ratio")
    for layer in LAYERS:
        m[f"{layer}.share"] = (layer_self(layer) / total, "ratio")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def nonempty_fiber_ratio(reports):
    """Nonempty fibers over points enumerated, over all fiber reports."""
    found = enumerated = 0
    for out in reports:
        with contextlib.suppress(ValueError, KeyError, TypeError):
            summary = json.loads(out)["result"]["summary"]
            found += summary["fiber_count"]
            enumerated += summary["fiber_count"] + summary["empty_fibers"]
    return found / enumerated if enumerated else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))

    probe_before = reference_probe()
    setup_times, setup_probes = [], [probe_before]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            cm, jobs, paths = setup(workload, args.seed)
        except ImportError as exc:
            print(f"error: cannot import cmreg from {SRC}: {exc}",
                  file=sys.stderr)
            return 2
        setup_times.append(time.perf_counter() - start)
        setup_probes.append(reference_probe())

    loop = Loop(cm, workload, jobs, paths)
    if args.trace:
        tracer = tracing.Tracer(vars(cm))
        traced_jobs, overhead = run_traced(loop, tracer, args.seconds)
        metrics = layer_metrics(tracer, traced_jobs, overhead,
                                nonempty_fiber_ratio(loop.first_pass))
    else:
        wall, probes = run_plain(loop, args.seconds)
        times = scaled(loop.times, probes)
        weights = pass_weights(len(times), len(jobs))
        tail, beyond = percentile(times, weights, TAIL_PERCENTILE)
        ok_share = (loop.attempted - loop.failed) / loop.attempted
        metrics = {
            "setup_s": (statistics.median(scaled(setup_times, setup_probes)),
                        "s"),
            "job_s.p50": (percentile(times, weights, 50)[0], "s"),
            "job_s.tail": (tail, "s"),
            "jobs_per_s": (ok_share * sum(weights)
                           / sum(w * t for w, t in zip(weights, times)),
                           "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        print(f"job_s.tail is p{TAIL_PERCENTILE} of {len(times)} jobs, "
              f"{beyond} beyond it")
        raw = loop.times
        print(f"unscaled wall seconds: job p50 "
              f"{percentile(raw, weights, 50)[0]:.4f}, p{TAIL_PERCENTILE} "
              f"{percentile(raw, weights, TAIL_PERCENTILE)[0]:.4f}, "
              f"setup {statistics.median(setup_times):.4f}, "
              f"{loop.attempted - loop.failed} jobs in {wall:.2f} s; probe "
              f"median {statistics.median(probes):.5f} s")
    probe_after = reference_probe()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{loop.attempted} attempted, {loop.failed} failed, failed_frac "
          f"{loop.failed / loop.attempted:.4f}, pool of {len(jobs)} jobs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:12.6g} {unit}")
    print(f"report_sha256 {loop.digest()} over the {len(jobs)} pool jobs")
    info = machine_info()
    info["noise_probe_s"] = [round(probe_before, 4), round(probe_after, 4)]
    info["setup_s_repeats"] = [round(t, 4) for t in setup_times]
    print("machine " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
