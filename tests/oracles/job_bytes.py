#!/usr/bin/env python3
"""Byte check of the benchmark's jobs: what each job prints, and every accuracy
warning its kernels raise, recorded so that two versions of the package can be
compared job by job.  Not imported by any test.  Run from the repository root:

    python3 tests/oracles/job_bytes.py dump before.json --src OTHER_CHECKOUT/src
    python3 tests/oracles/job_bytes.py dump after.json
    python3 tests/oracles/job_bytes.py diff before.json after.json

``dump`` draws seeds 1-3, passes 0-7 of every workload from
perfbench/workloads.py (771 jobs) and runs them through ``zetazeros.cli.run``
in-process, one after the other.  Before each job it empties the package's
functools caches, as perfbench/run.py does, so that each job starts as a
fresh CLI process would.  Per job it records the argv, the exit code,
stdout, stderr and the arguments (rem, tol, s) of every
``special._warn_accuracy`` call, in order.
``--reverse`` runs the same jobs last to first; the file lists them in the
usual order either way, so a diff against a forward dump shows whether a
job's bytes depend on the jobs run before it.

``diff`` prints the changed jobs, counted by workload and subcommand, and
exits 1 if any job changed.  A warning's header line in stderr is compared
without its path and line number, which any edit of the file moves.  A
changed job whose exit code, stderr and warnings are the same, and whose
stdout differs only in the numbers it prints (the same rows and the same
non-numeric fields), is marked "numbers only" with the largest relative move
|new - old| / max(|old|, |new|) of a printed number; the summary counts
both kinds.

``diff --reference`` also checks every changed job of the after-dump
against mpmath with perfbench/reference.py's ``check(job, stdout, warned)``,
as perfbench/run.py does (a job that exits nonzero fails).  It prints the
count checked, the count failed and the worst error ratio per workload and
subcommand, and exits 1 if any check fails, as it does if any job changed.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import io
import json
import re
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, draw_pass  # noqa: E402


def dump(args) -> int:
    sys.path.insert(0, str(Path(args.src).resolve()))
    from zetazeros import cli, special

    modules = [m for name, m in sorted(sys.modules.items()) if m is not None and name.split(".")[0] == "zetazeros"]
    caches = list({id(f): f for m in modules for f in vars(m).values() if callable(getattr(f, "cache_clear", None))}.values())
    calls = []
    original = special._warn_accuracy

    @functools.wraps(original)
    def recording(rem, tol, s):
        calls.append([repr(rem), repr(tol), repr(s)])
        return original(rem, tol, s)

    for module in modules:  # every package-level name bound to the function
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, recording)

    jobs = [(workload, seed, p, k, job) for workload in args.workloads for seed in args.seeds
            for p in range(args.passes) for k, job in enumerate(draw_pass(workload, seed, p))]
    records = [None] * len(jobs)
    order = range(len(jobs) - 1, -1, -1) if args.reverse else range(len(jobs))
    for i in order:
        workload, seed, p, k, job = jobs[i]
        for cache in caches:
            cache.cache_clear()
        del calls[:]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):  # warnings and argparse write to sys.stderr
            try:
                rc = cli.run(list(job.argv), out=out, err=err)
            except Exception as exc:  # a raw exception escaping the CLI is recorded, not raised
                rc = f"{type(exc).__name__}: {exc}"
        records[i] = {"workload": workload, "seed": seed, "pass": p, "index": k, "kind": job.kind,
                      "argv": list(job.argv), "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                      "warn_accuracy": list(calls)}
    with open(args.out, "w") as fh:
        json.dump({"src": str(Path(args.src).resolve()), "jobs": records}, fh, indent=0)
    warned = sum(bool(r["warn_accuracy"]) for r in records)
    print(f"{len(records)} jobs, {warned} with accuracy warnings -> {args.out}")
    return 0


def _fields(record):
    out = {k: v for k, v in record.items() if k not in ("workload", "seed", "pass", "index", "kind")}
    # a warning printed to stderr starts with the path and line of the code that raised it
    out["stderr"] = re.sub(r"^\S*?([\w.]+\.py):\d+: ", r"\1: ", out["stderr"], flags=re.M)
    return out


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _number_move(a, b) -> Optional[float]:
    """The largest relative move of a number printed by a job whose fields ``a`` and ``b`` differ in
    the numbers of their stdout alone, 0 if no number moved, else None."""
    if any(a[f] != b[f] for f in a if f != "stdout"):
        return None
    if _NUMBER.split(a["stdout"]) != _NUMBER.split(b["stdout"]):
        return None
    move = 0.0
    for x, y in zip(map(float, _NUMBER.findall(a["stdout"])), map(float, _NUMBER.findall(b["stdout"]))):
        if x != y:
            move = max(move, abs(y - x) / max(abs(x), abs(y)))
    return move


def diff(args) -> int:
    with open(args.before) as fh:
        before = json.load(fh)
    with open(args.after) as fh:
        after = json.load(fh)
    changed = collections.Counter()
    moved = []  # the after-records of the changed jobs
    moves = []  # the largest relative move of each job whose printed numbers alone moved
    key = lambda r: (r["workload"], r["seed"], r["pass"], r["index"])  # noqa: E731
    old = {key(r): r for r in before["jobs"]}
    new = {key(r): r for r in after["jobs"]}
    for k in sorted(set(old) | set(new)):
        a, b = old.get(k), new.get(k)
        if a is not None and b is not None:
            fa, fb = _fields(a), _fields(b)
            if fa == fb:
                continue
            fields = [f for f in fa if fa[f] != fb[f]]
            move = _number_move(fa, fb)
        else:
            fields, move = ["missing before" if a is None else "missing after"], None
        if move is not None:
            moves.append(move)
            fields.append(f"numbers only, largest relative move {move:.3g}")
        record = b or a
        changed[record["workload"], record["kind"]] += 1
        if b is not None:
            moved.append(b)
        print(f"{k[0]} seed {k[1]} pass {k[2]} job {k[3]} ({', '.join(fields)}): {' '.join(record['argv'])}")
    for (workload, kind), n in sorted(changed.items()):
        print(f"  {workload:10s} {kind:8s} {n} changed")
    total = sum(changed.values())
    print(f"{total} of {len(set(old) | set(new))} jobs changed: {len(moves)} in printed numbers only"
          + (f" (largest relative move {max(moves):.3g})" if moves else "") + f", {total - len(moves)} otherwise")
    failed = _check_reference(moved, after["src"]) if args.reference else 0
    return 1 if changed or failed else 0


def _check_reference(records, src: str) -> int:
    """Check ``records`` against perfbench/reference.py; print the counts per workload and
    subcommand and every failure; return the number that failed."""
    sys.path.insert(0, src)  # the L-function checks take their character tables from the package
    from reference import check_task
    from workloads import Job

    checked, failed, worst = collections.Counter(), collections.Counter(), collections.defaultdict(float)
    for r in records:
        group = r["workload"], r["kind"]
        checked[group] += 1
        if r["rc"] != 0:
            failed[group] += 1
            print(f"  FAILED exit code {r['rc']} :: {' '.join(r['argv'])}")
            continue
        verdict = check_task((Job(r["kind"], tuple(r["argv"])), r["stdout"], bool(r["warn_accuracy"])))
        worst[group] = max(worst[group], verdict.err_ratio)
        if not verdict.ok:
            failed[group] += 1
            print(f"  FAILED {verdict.reason} :: {' '.join(r['argv'])}")
    for group in sorted(checked):
        print(f"  {group[0]:10s} {group[1]:8s} {checked[group]} checked against the reference, "
              f"{failed[group]} failed, worst error ratio {worst[group]:.3g}")
    print(f"{sum(checked.values())} changed jobs checked against the reference: {sum(failed.values())} failed")
    return sum(failed.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_dump = sub.add_parser("dump", help="run the jobs and write what they printed to OUT")
    p_dump.add_argument("out")
    p_dump.add_argument("--src", default=str(ROOT / "src"), help="the package's source directory (default: src/)")
    p_dump.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p_dump.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    p_dump.add_argument("--passes", type=int, default=8)
    p_dump.add_argument("--reverse", action="store_true", help="run the jobs last to first")
    p_dump.set_defaults(func=dump)
    p_diff = sub.add_parser("diff", help="print the jobs whose records differ; exit 1 if any")
    p_diff.add_argument("before")
    p_diff.add_argument("after")
    p_diff.add_argument("--reference", action="store_true",
                        help="check every changed job of AFTER against perfbench/reference.py; exit 1 if one fails")
    p_diff.set_defaults(func=diff)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
