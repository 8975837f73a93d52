#!/usr/bin/env python3
"""Error sweep of route (b) of the periodic series, special._li_expansion,
against mpmath (Hurwitz's formula at 30 digits), by 2 pi dist(a, Z) |s|.  Not
imported by any test.  Run from the repository root:

    PYTHONPATH=src python3 tests/oracles/expansion_sweep.py

Twelve seeded points per band of 2 pi dist(a, Z) |s|: sigma in [1.05, 3] for
two in three of them and in [0.76, 1.05] for the rest, 30 <= |t| <= 800 of
both signs, a on either side of 0 (a or 1 - a), and lam = 0, 1, -1 in turn.
Per point it prints the relative error max(1, |v|) and the route's relative
bound; per band the largest error on each side of sigma = 1.05, and in how
many points the error exceeded the bound.
"""

import math

import mpmath as mp
import numpy as np

from zetazeros import special
from zetazeros.core import DEFAULT_SETTINGS

mp.mp.dps = 30


def periodic(s, a):
    w = 1 - s
    half = mp.exp(0.5j * mp.pi * w)
    return mp.gamma(w) * (2 * mp.pi) ** (-w) * (half * mp.zeta(w, a) + mp.zeta(w, 1 - a) / half)


def main():
    rng = np.random.default_rng(37)
    rows = []
    for band in (2.5, 5, 7.5, 10, 12.5, 15, 20, 25):
        for i in range(12):
            sigma = rng.uniform(1.05, 3.0) if i % 3 else rng.uniform(0.76, 1.05)
            t = rng.uniform(30, 800) * (1 if i % 2 else -1)
            s = complex(sigma, t)
            a = band / (2 * math.pi * abs(s)) * rng.uniform(0.9, 1.0)
            if rng.uniform() < 0.5:
                a = 1.0 - a
            lam = [0.0, 1.0, -1.0][i % 3]
            value, bound = special._li_expansion(np.array([s]), a, DEFAULT_SETTINGS, lam)
            want = complex(periodic(mp.mpc(sigma, t), mp.mpf(a)) + lam * periodic(mp.mpc(sigma, t), 1 - mp.mpf(a)))
            scale = max(1.0, abs(want))
            err, rel = abs(value[0] - want) / scale, bound[0] / scale
            rows.append((band, sigma, err, rel))
            print(f"2 pi a |s| {band:5.1f}  s = {sigma:.3f}{t:+.2f}i  a = {a:.6f}  lam = {lam:+.0f}"
                  f"  error {err:.2e}  bound {rel:.2e}", flush=True)
    for band in sorted({r[0] for r in rows}):
        right = [r for r in rows if r[0] == band and r[1] >= 1.05]
        left = [r for r in rows if r[0] == band and r[1] < 1.05]
        print(f"2 pi a |s| = {band}: largest error {max(r[2] for r in right):.2e} at sigma >= 1.05,"
              f" {max(r[2] for r in left):.2e} below; error above the bound in {sum(r[2] > r[3] for r in rows if r[0] == band)}"
              f" of {len(right) + len(left)}")


if __name__ == "__main__":
    main()
