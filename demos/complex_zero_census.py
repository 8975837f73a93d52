#!/usr/bin/env python3
"""Counting complex zeros with the argument principle.

Z(s, 1/6) = (2^s - 1)(3^s - 1) zeta(s) makes a perfect test box: inside
[-1, 2] x [1, 30] live three zeta zeros on sigma = 1/2 (t ~ 14.13, 21.02,
25.01), three roots of 2^s = 1 (t = 2 pi k / log 2) and five roots of
3^s = 1 (t = 2 pi k / log 3), eleven in all, and the winding number finds
exactly that.

Run:  python3 demos/complex_zero_census.py
"""

import math

from zetazeros import Alpha, Family, count_zeros_rectangle


def census(fam, a, lo, hi, label=""):
    rc = count_zeros_rectangle(fam, a, (lo, hi))
    box = f"[{lo.real:g},{hi.real:g}] x [{lo.imag:g},{hi.imag:g}]"
    print(f"  {label or fam.name:>12} {box:>24}: {rc.count:3d} zeros   "
          f"(boundary min |f| = {rc.boundary_min_abs:.2e}, {rc.samples_used} samples)")
    return rc.count


def main():
    sixth = Alpha.parse("1/6")
    print("Z(s, 1/6) on [-1,2] x [1,30]: expect 3 + 3 + 5 = 11")
    for k in range(1, 4):
        print(f"    2^s = 1 root at t = {2 * math.pi * k / math.log(2):.3f}", end="")
    print()
    for k in range(1, 6):
        print(f"    3^s = 1 root at t = {2 * math.pi * k / math.log(3):.3f}", end="")
    print("\n    zeta zeros at t = 14.135, 21.022, 25.011")
    census(Family.Z, sixth, complex(-1, 1), complex(2, 30))
    print()

    print("Counts add when the box is split:")
    low = census(Family.Z, sixth, complex(-1, 1), complex(2, 16), label="lower half")
    high = census(Family.Z, sixth, complex(-1, 16), complex(2, 30), label="upper half")
    print(f"  {low} + {high} = {low + high}")
    print()

    print("A zero-free box stays empty:")
    census(Family.Z, 0.3, complex(2, 1), complex(3, 10))
    print()

    print("P(s, 2/5): zero counts grow linearly with height inside the strip")
    a = Alpha.parse("2/5")
    for t_hi in (50, 100, 200):
        census(Family.P, a, complex(0.55, 1), complex(0.95, t_hi), label=f"P, t <= {t_hi}")


if __name__ == "__main__":
    main()
