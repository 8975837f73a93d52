#!/usr/bin/env python3
"""Seeded benchmark of the zetazeros CLI on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --seed 1     # every workload, one process each

Each workload runs in one process and one thread as a closed loop with one
client: jobs go to ``zetazeros.cli.run(argv, out=...)`` in-process, one after
the other.  Jobs come in passes drawn from (seed, pass) by ``workloads.py``.
A warm-up pass with its own draw runs first; then a fixed number of passes,
``--seconds`` times the workload's rate in PASSES_PER_SECOND, so a run with a
given seed does the same work on every commit.  Afterwards, outside the timed
region, ``reference.py`` checks every output against mpmath.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the passes run twice, untraced and
then inside the spans of ``spans.py``, and the JSON holds the per-layer
metrics.  The lines above it give the same figures as a table, plus the
unscaled times, the failure ratio, the worst error ratio and the failed jobs.
README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import importlib.util
import io
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WARMUP, WORKLOADS, Job, draw_pass  # noqa: E402

# Passes per second of --seconds, sized so that a run's jobs take about
# --seconds on the reference machine (see README.md) at the seed commit.
PASSES_PER_SECOND = {"census": 0.67, "real-axis": 0.8, "far-field": 2.0}
SETUP_SPAWNS = 7
CHECK_WORKERS = 2
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import zetazeros.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)
# Import of standard modules (three of them C extensions) that setup_s is
# scaled by, and its median time on the reference machine.  The host the
# benchmark was built on moved the raw import time by 20% between runs a few
# minutes apart; the ratio to this import moved half as much.
_BASE_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import argparse, csv, decimal, json, sqlite3\n"
    "print(repr(time.perf_counter() - start))\n"
)
SETUP_BASE_REF_S = 0.013
# Median time of speed_probe() on the reference machine.  Job times are
# scaled by PROBE_REF_S / (probe time measured next to the job): the host the
# benchmark was built on changes speed by up to 2x within seconds, and the
# probe, which runs the same kind of code, slows down with it.
PROBE_REF_S = 1.5e-3


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy reductions."""
    import numpy as np

    start = time.perf_counter()
    x = np.arange(1.0, 26.0)
    acc = 0j
    for k in range(120):
        s = complex(0.5 + k * 1e-3, 10.0)
        acc += complex(np.exp(-s * np.log(x)).sum())
        for j in range(20):
            acc += cmath.exp(0.1j * j) * (k + j)
    return time.perf_counter() - start


@dataclass
class Record:
    job: Job
    latency: float  # seconds, as measured
    rc: Optional[int]
    stdout: str
    warnings: int
    error: str = ""
    scale: float = 1.0  # PROBE_REF_S / probe time around the job

    @property
    def scaled(self) -> float:
        return self.latency * self.scale


def measure_setup() -> Tuple[float, float]:
    """(scaled, unscaled) median time for a fresh interpreter to import zetazeros.cli.

    Each import alternates with a fresh interpreter importing a fixed set of
    standard modules; the import time is scaled by SETUP_BASE_REF_S over the
    median of those.  One pair first fills the bytecode caches.
    """
    times, base = [], []
    for i in range(SETUP_SPAWNS + 1):
        for code, out in ((_IMPORT_PROBE, times), (_BASE_PROBE, base)):
            done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                                  text=True, timeout=120, check=True, env=os.environ)
            if i:
                out.append(float(done.stdout.strip()))
    raw = statistics.median(times)
    return raw * SETUP_BASE_REF_S / statistics.median(base), raw


class Runner:
    """Runs jobs through cli.run the way a fresh CLI process would see them."""

    def __init__(self):
        from zetazeros import cli
        from spans import hook_accuracy_warnings, package_modules

        self.cli = cli
        # A CLI user starts with empty caches on every call, so the package's
        # functools caches are emptied before each job (outside its latency).
        self.caches = list({id(f): f for m in package_modules() for f in vars(m).values()
                            if callable(getattr(f, "cache_clear", None))}.values())
        self._warnings = 0
        self.counts_warnings = hook_accuracy_warnings(self._on_warning)
        warnings.showwarning = lambda *args, **kwargs: None

    def _on_warning(self) -> None:
        self._warnings += 1

    def run(self, job: Job, call=None) -> Record:
        """One job through ``call`` (cli.run unless given), timed."""
        for cache in self.caches:
            cache.cache_clear()
        self._warnings = 0
        out, err = io.StringIO(), io.StringIO()
        call = call or self.cli.run
        with contextlib.redirect_stderr(err):  # argparse writes usage errors to sys.stderr
            start = time.perf_counter()
            try:
                rc, error = call(list(job.argv), out=out, err=err), ""
            except Exception as exc:  # a raw exception escaping the CLI is a failed job
                rc, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        if rc not in (0, None):
            # usage and domain errors explain themselves on stderr; verify lists its FAIL rows
            lines = err.getvalue().strip().splitlines() or [l for l in out.getvalue().splitlines() if "FAIL" in l]
            error = f"exit code {rc}: {lines[-1] if lines else ''}"
        return Record(job, latency, rc, out.getvalue(), self._warnings, error)

    def run_passes(self, workload: str, seed: int, passes: int, tracer=None) -> List[Record]:
        """The jobs of passes 0 .. passes-1, with a speed probe before and after every job.

        A job's scale uses the median of the four probes nearest to it, which
        follows the host's swings over seconds without the noise of one probe.
        """
        call = tracer.root(self.cli.run) if tracer else self.cli.run
        records: List[Record] = []
        probes = [speed_probe()]
        for p in range(passes):
            for job in draw_pass(workload, seed, p):
                records.append(self.run(job, call))
                probes.append(speed_probe())
        for i, rec in enumerate(records):
            rec.scale = PROBE_REF_S / statistics.median(probes[max(i - 1, 0):i + 3])
        return records


def tail(latencies: List[float]) -> Tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least ten jobs beyond it.

    A run of ten jobs or fewer has no such percentile; it reports its slowest job.
    """
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def body_rate(latencies: List[float]) -> float:
    """Jobs per second of job time, over all jobs but the ten beyond the tail percentile.

    Those ten are what job_tail_s reports on; left in, one rare costly
    far-field line would move a run's rate by a tenth.
    """
    body = sorted(latencies)[:-10] if len(latencies) > 10 else latencies
    return len(body) / sum(body)


def check_all(records: List[Record]) -> Tuple[List[Tuple[Record, str]], List[Tuple[Record, str]], float, bool]:
    """(errors, wrong results, worst error ratio, every output checked) against mpmath.

    An error is an exception escaping cli.run or a nonzero exit code; a wrong
    result is output that disagrees with the reference.  The checks run in
    CHECK_WORKERS child processes, after all timing is done.
    """
    done = [rec for rec in records if rec.rc == 0]
    errors = [(rec, rec.error) for rec in records if rec.rc != 0]
    tasks = [(rec.job, rec.stdout, rec.warnings > 0) for rec in done]
    verdicts = check_in_workers(tasks)
    wrong = [(rec, v.reason) for rec, v in zip(done, verdicts) if not v.ok]
    return errors, wrong, max((v.err_ratio for v in verdicts), default=0.0), all(v.checked for v in verdicts)


def check_in_workers(tasks: List[Tuple]) -> list:
    """``reference.check_task`` over ``tasks``, dealt out to CHECK_WORKERS child processes.

    Each child is ``reference.py --worker SRC``: it reads a pickled list of tasks
    on stdin and writes a pickled list of verdicts on stdout.  Every child is
    killed if still running and waited for before this returns or raises, so
    the benchmark leaves no process behind.
    """
    from reference import Verdict

    shares = [tasks[w::CHECK_WORKERS] for w in range(CHECK_WORKERS)]
    procs = []
    try:
        for share in shares:
            proc = subprocess.Popen([sys.executable, str(HERE / "reference.py"), "--worker", str(SRC)],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            procs.append(proc)
            proc.stdin.write(pickle.dumps(share))
            proc.stdin.close()
        results = []
        for proc in procs:
            data = proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(f"reference worker exited with code {proc.returncode}")
            results.append([Verdict(*fields) for fields in pickle.loads(data)])
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    verdicts = [None] * len(tasks)
    for w, share in enumerate(results):
        verdicts[w::CHECK_WORKERS] = share
    return verdicts


def declared(kind: str) -> Optional[List[str]]:
    """Names of the ``kind`` metrics in BENCHMARK.json, or None if there is none."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        return None
    return [m["name"] for m in spec[kind]]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def report(workload: str, kind: str, metrics: Dict[str, Dict[str, object]], notes: Dict[str, str],
           records: List[Record], errors, wrong, worst: float, correct: bool) -> Dict[str, object]:
    """Print the table; return the result object, whose metrics are the ``kind``
    ones BENCHMARK.json declares (all of them when it is absent)."""
    print(f"== {workload}: {len(records)} jobs checked against mpmath")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:<14.6g} {m['unit']:6s} {notes.get(name, '')}")
    failed = len(errors) + len(wrong)
    print(f"  {'fail_ratio':34s} {failed / len(records):<14.6g} {'ratio':6s} "
          f"({len(errors)} errors, {len(wrong)} wrong results)")
    print(f"  {'max_err_ratio':34s} {worst:<14.6g} {'ratio':6s} (error / promised tolerance)")
    for rec, reason in errors + wrong:
        print(f"  FAILED {reason} :: {' '.join(rec.job.argv)}")
    names = declared(kind)
    shown = {k: v for k, v in metrics.items() if names is None or k in names}
    return {"correct": correct, "attempted": len(records), "failed": failed, "metrics": shown}


def run_workload(args) -> int:
    os.environ.update(SINGLE_THREAD)
    os.environ.pop("ZETAZEROS_TOL", None)  # the program sees only the generated argv
    setup_s, setup_raw = measure_setup() if not args.trace else (None, None)
    sys.path.insert(0, str(SRC))
    runner = Runner()
    for job in draw_pass(args.workload, args.seed, WARMUP):
        runner.run(job)
    rate = PASSES_PER_SECOND[args.workload]

    if not args.trace:
        records = runner.run_passes(args.workload, args.seed, max(1, round(args.seconds * rate)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tail_s, pct = tail([r.scaled for r in records])
        tail_job = next(r.job for r in records if r.scaled == tail_s)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "jobs_per_s": metric(body_rate([r.scaled for r in records]), "1/s"),
            "job_p50_s": metric(statistics.median(r.scaled for r in records), "s"),
            "job_tail_s": metric(tail_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        notes = {
            "setup_s": f"(median of {SETUP_SPAWNS} spawns; unscaled {setup_raw:.6g})",
            "jobs_per_s": f"(all but the 10 slowest of {len(records)} jobs; unscaled {body_rate([r.latency for r in records]):.6g})",
            "job_p50_s": f"(unscaled {statistics.median(r.latency for r in records):.6g})",
            "job_tail_s": f"(p{pct:.2f} of {len(records)} jobs; unscaled {tail([r.latency for r in records])[0]:.6g};"
                          f" at {' '.join(tail_job.argv)})",
        }
        errors, wrong, worst, correct = check_all(records)
    else:
        from spans import Tracer

        count = max(1, round(args.seconds / 2.0 * rate))
        untraced = runner.run_passes(args.workload, args.seed, count)
        tracer = Tracer()
        tracer.install()
        try:
            records = runner.run_passes(args.workload, args.seed, count, tracer)
        finally:
            tracer.uninstall()
        layer = tracer.metrics(sum(r.warnings for r in records) if runner.counts_warnings else None)
        layer["trace.overhead_ratio"] = sum(r.scaled for r in records) / sum(r.scaled for r in untraced)
        metrics = {name: metric(value, _unit(name)) for name, value in layer.items() if value is not None}
        traced_s = sum(r.latency for r in records)
        covered = sum(tracer.self_s.values())
        notes = {"trace.overhead_ratio": f"(span self times cover {covered / traced_s:.4f} of {traced_s:.3f} s)"}
        missing = tracer.missing + ([] if runner.counts_warnings else ["special._warn_accuracy"])
        if missing:
            print("missing entry points: " + " ".join(missing))
        errors, wrong, worst, correct = check_all(records)
        # Tracing must not change what the program computes.
        differs = [t for u, t in zip(untraced, records) if (u.rc, u.stdout) != (t.rc, t.stdout)]
        for rec in differs:
            print(f"  TRACED OUTPUT DIFFERS :: {' '.join(rec.job.argv)}")
        correct = correct and not differs
    kind = "per_layer" if args.trace else "end_to_end"
    result = report(args.workload, kind, metrics, notes, records, errors, wrong, worst, correct)
    print(json.dumps(result, sort_keys=True))
    return 0


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.startswith("us_per"):
        return "us"
    if last.endswith("_s"):
        return "s"
    if last in ("overhead_ratio", "passes_per_call"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Each workload in a process of its own; the last line maps workload to result."""
    results, status = {}, 0
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"== {workload}: exit code {done.returncode}")
            status = done.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zetazeros" / "cli.py").is_file():
        print(f"error: no zetazeros sources under {SRC}", file=sys.stderr)
        return 2
    if importlib.util.find_spec("mpmath") is None or importlib.util.find_spec("numpy") is None:
        print("error: the benchmark needs numpy and mpmath", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
