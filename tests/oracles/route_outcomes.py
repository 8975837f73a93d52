#!/usr/bin/env python3
"""Where the off-axis points of special._zeta_sum end, per Re s band: on the
Euler-Maclaurin pass or on the reflection.  Not imported by any test.  Run
from the repository root:

    python3 tests/oracles/route_outcomes.py --seeds 1 2 3 4 --passes 24
    python3 tests/oracles/route_outcomes.py --src OTHER_CHECKOUT/src

It runs passes of a benchmark workload (far-field by default) from
perfbench/workloads.py through ``zetazeros.cli.run`` in-process, one job
after the other, emptying the package's functools caches before each job as
perfbench/run.py does.  It wraps ``special._zeta_sum`` (every package-level
name bound to it), ``special._hurwitz_reflect`` and ``special._em_once``.
In each ``_zeta_sum`` call with q = 1, a point with Re s < 0 and Im s != 0
counts as a reflection kept where the value returned is the value a
``_hurwitz_reflect`` call inside that call formed at it (with q = 1 the
scale q^{-s} is exactly 1), and as a pass kept otherwise; it counts as
reflected where such a call formed a value at it, and as passed where an
``_em_once`` pass ran at the point itself, not at a reflection's 1 - s.
A call that raises counts nothing.

Per Re s band it prints the points, the passes kept, the reflections kept,
the points reflected and the points passed, then the passes kept at
Re s < -2: the figures behind special._REFLECT_FIRST_SIGMA.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import io
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, draw_pass  # noqa: E402

BANDS = ((-math.inf, -6.0), (-6.0, -3.0), (-3.0, -2.0), (-2.0, -1.0), (-1.0, 0.0))
COLUMNS = ("points", "pass kept", "reflection kept", "reflected", "passed")


def band_name(lo: float, hi: float) -> str:
    return f"< {hi:g}" if lo == -math.inf else f"[{lo:g}, {hi:g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the package's source directory (default: src/)")
    parser.add_argument("--workload", choices=WORKLOADS, default="far-field")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from zetazeros import cli, special

    counts = {band: collections.Counter() for band in BANDS}
    frames = []  # per _zeta_sum call in progress: {point: reflected value}, and the points passed

    def zeta_sum(s, bases, weights, cfg, q=1):
        frames.append(({}, set()))
        try:
            values = original_sum(s, bases, weights, cfg, q)
        finally:
            reflected, passed = frames.pop()
        if q != 1:
            return values
        for x, v in zip(s.tolist(), values.tolist()):
            if x.real < 0.0 and x.imag != 0.0:
                band = next(b for b in BANDS if b[0] <= x.real < b[1])
                kept = x in reflected and reflected[x] == v
                counts[band].update({"points": 1, "reflection kept" if kept else "pass kept": 1,
                                     "reflected": x in reflected, "passed": x in passed})
        return values

    def hurwitz_reflect(s, *rest):
        value, rem = original_reflect(s, *rest)
        if frames:
            frames[-1][0].update(zip(s.tolist(), value.tolist()))
        return value, rem

    def em_once(s, *rest):
        if frames:
            frames[-1][1].update(s.tolist())
        return original_pass(s, *rest)

    original_sum, original_reflect, original_pass = special._zeta_sum, special._hurwitz_reflect, special._em_once
    modules = [m for name, m in sorted(sys.modules.items()) if m is not None and name.split(".")[0] == "zetazeros"]
    for original, wrapper in ((original_sum, zeta_sum), (original_reflect, hurwitz_reflect), (original_pass, em_once)):
        functools.update_wrapper(wrapper, original)
        for module in modules:  # every package-level name bound to the function
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    caches = {id(f): f for m in modules for f in vars(m).values() if callable(getattr(f, "cache_clear", None))}

    jobs = [job for seed in args.seeds for p in range(args.passes) for job in draw_pass(args.workload, seed, p)]
    for job in jobs:
        for cache in caches.values():
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                cli.run(list(job.argv), out=out, err=err)
            except Exception:  # a raw exception escaping the CLI counts nothing more
                pass

    seeds = " ".join(map(str, args.seeds))
    print(f"{args.workload}, seeds {seeds}, passes 0-{args.passes - 1}: {len(jobs)} jobs; "
          f"off-axis _zeta_sum points at q = 1 and Re s < 0")
    print(f"  {'Re s':10s}" + "".join(f"{c:>17s}" for c in COLUMNS))
    for band in BANDS:
        print(f"  {band_name(*band):10s}" + "".join(f"{counts[band][c]:17d}" for c in COLUMNS))
    deep = [counts[b] for b in BANDS if b[1] <= -2.0]
    print(f"Re s < -2: the pass kept at {sum(c['pass kept'] for c in deep)} of {sum(c['points'] for c in deep)} points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
