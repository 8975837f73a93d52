#!/usr/bin/env python3
"""Error sweep of route (c) of the periodic series, special._li_series's
partial sum plus Boole's tail, against mpmath (Hurwitz's formula in mp.zeta
at 30 digits).  Not imported by any test.  Run from the repository root:

    PYTHONPATH=src python3 tests/oracles/route_c_sweep.py

240 seeded points outside route (b)'s region: sigma in [0.76, 3.5], where
route (a) would need more terms than route (c), |t| <= 800 of both signs, a
log-uniform in [1e-3, 0.5] on either side of 0 (a or 1 - a), and each point
either past route (b)'s cap, 2 pi dist(a, Z) |s| > 10, or with
(3|s| + 48)/|1 - z| <= 2^11 terms.  Each point is summed with lam = 0, 1, -1
at target_abs_tol 1e-12 and 1e-10, one call per point.  A value counts as
certified where its estimate is at most the target times max(1, |v|), and as
a silent miss where it is certified but its error is not.  Prints the worst
error over the target, the silent misses, the uncertified values, the worst
error over the estimate and the total terms of the partial sums, and exits 1
on a silent miss.
"""

import math
import sys

import mpmath as mp
import numpy as np

from zetazeros import special
from zetazeros.core import EvalSettings

mp.mp.dps = 30

POINTS = 240
# route (b)'s region, written out rather than read from the package so that the same points serve
# any version of it: within the cap on 2 pi dist(a, Z) |s|, and more terms than TERMS on route (c)
CAP = 10.0
TERMS = 1 << 11


def periodic(s, a):
    w = 1 - s
    half = mp.exp(0.5j * mp.pi * w)
    return mp.gamma(w) * (2 * mp.pi) ** (-w) * (half * mp.zeta(w, a) + mp.zeta(w, 1 - a) / half)


def draw(rng):
    points = []
    while len(points) < POINTS:
        sigma = rng.uniform(0.76, 3.5)
        t = 800.0 * rng.uniform() ** 2 * rng.choice((-1.0, 1.0))
        near = math.exp(rng.uniform(math.log(1e-3), math.log(0.5)))
        s = complex(sigma, t)
        if 2 * math.pi * near * abs(s) <= CAP and (3 * abs(s) + 48) / (2 * math.sin(math.pi * near)) > TERMS:
            continue
        points.append((s, 1.0 - near if rng.uniform() < 0.5 else near))
    return points


def main() -> int:
    points = draw(np.random.default_rng(39))
    terms, tails = [], []
    partial_sums, euler_tail = special._li_partial_sums, special._li_euler_tail

    def counting_sums(s, last, *args):
        terms.extend(last)
        return partial_sums(s, last, *args)

    def counting_tails(s, *args):
        tails.append(s.size)
        return euler_tail(s, *args)

    special._li_partial_sums, special._li_euler_tail = counting_sums, counting_tails
    worst_tol = worst_est = 0.0
    silent = uncertified = values = 0
    for s, a in points:
        ref = mp.mpc(s.real, s.imag)
        plus, minus = complex(periodic(ref, mp.mpf(a))), complex(periodic(ref, 1 - mp.mpf(a)))
        for lam in (0.0, 1.0, -1.0):
            want = plus + lam * minus
            scale = max(1.0, abs(want))
            for tol in (1e-12, 1e-10):
                value, est = special._li_series(np.array([s]), a, EvalSettings(tol), lam)
                err = abs(value[0] - want)
                values += 1
                worst_tol = max(worst_tol, err / (tol * scale))
                worst_est = max(worst_est, err / est[0])
                if est[0] > tol * scale:
                    uncertified += 1
                elif err > tol * scale:
                    silent += 1
                    print(f"silent miss: s = {s}, a = {a}, lam = {lam:+.0f}, tol = {tol:.0e}: error {err:.2e},"
                          f" estimate {est[0]:.2e}")
    off_route = values - sum(tails)
    print(f"{len(points)} points, {values} values: worst error/target {worst_tol:.3f}, silent misses {silent},"
          f" uncertified {uncertified}, worst error/estimate {worst_est:.2f}, total terms {sum(terms)},"
          f" values off route (c) {off_route}")
    return 1 if silent else 0


if __name__ == "__main__":
    sys.exit(main())
