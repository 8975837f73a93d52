#!/usr/bin/env python3
"""One-off generator for the high-precision reference values frozen in the
test suite.  Not imported by any test; rerun manually if constants need to be
regenerated:

    PYTHONPATH=src python3 tests/oracles/make_reference.py

Requires mpmath; the L-function map takes its character tables from the
package.  All bisections run at 50 significant digits.
"""

import math

import mpmath as mp

mp.mp.dps = 50


def z_pair(w, a):
    return mp.zeta(w, a) + mp.zeta(w, 1 - a)


def periodic(s, a):
    """Li_s(e^{2 pi i a}) by Hurwitz's formula in zeta(1-s, .): mp.polylog is
    wrong at large |Im s|.  At s = 1, 2, ..., where the zeta factors cancel the
    pole of Gamma(1-s), the mean of the values at s -+ 1e-20 (error ~1e-40,
    with 20 of the 50 digits lost to the cancellation)."""
    w = 1 - s
    if mp.im(w) == 0 and w.real <= 0 and w.real == int(w.real):
        eps = mp.mpf("1e-20")
        return (periodic(s - eps, a) + periodic(s + eps, a)) / 2
    half = mp.exp(0.5j * mp.pi * w)
    return mp.gamma(w) * (2 * mp.pi) ** (-w) * (half * mp.zeta(w, a) + mp.zeta(w, 1 - a) / half)


def family(name, s, a):
    za, zb = mp.zeta(s, a), mp.zeta(s, 1 - a)
    la, lb = periodic(s, a), periodic(s, 1 - a)
    return {
        "Z": za + zb,
        "P": la + lb,
        "Y": za - zb,
        "O": -1j * (la - lb),
        "X": za - zb - 1j * (la - lb),
        "hurwitz": za,
        "periodic": la,
    }[name]


def l_value(s, q, chi):
    """L(s, chi) = q^{-s} sum_r chi(r) zeta(s, r/q); chi(r) are the package's
    character values snapped to exact phi(q)-th roots of unity."""
    phi = sum(1 for r in range(1, q + 1) if math.gcd(r, q) == 1)
    total = 0
    for r in range(1, q + 1):
        v = chi[r % q]
        if abs(v) > 0.5:
            k = round(mp.arg(mp.mpc(v.real, v.imag)) / (2 * mp.pi) * phi) % phi
            total += mp.expjpi(mp.mpf(2 * k) / phi) * mp.zeta(s, mp.mpf(r) / q)
    return total / mp.power(q, s)


def bisect(f, lo, hi, steps=200):
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    flo = f(lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if mp.sign(f(mid)) == mp.sign(flo):
            lo, flo = mid, f(mid)
        else:
            hi = mid
    return (lo + hi) / 2


def main():
    print("# beta_Z(a): unique zero of Z(w, a) in (0, 1), a < 1/6")
    for a in ("0.005", "0.01", "0.02"):
        bz = bisect(lambda w: z_pair(w, mp.mpf(a)), "0.01", "0.999999")
        print(f"beta_Z({a}) = {mp.nstr(bz, 22)}")

    print("# beta_P(0.2499): zero of the 2*sum cos(2 pi n a)/n^sigma series in (9, 12)")
    a = mp.mpf("0.2499")
    bp = bisect(lambda sig: 2 * mp.nsum(lambda n: mp.cos(2 * mp.pi * n * a) / n**sig, [1, mp.inf]), 9, 12)
    print(f"beta_P(0.2499) = {mp.nstr(bp, 22)}")

    print("# a_1 in (1/6, 1/4) with P(3, a_1) = 0  (Z then has a double zero at -2)")
    a1 = mp.findroot(lambda a: 2 * mp.nsum(lambda n: mp.cos(2 * mp.pi * n * a) / n**3, [1, mp.inf]), mp.mpf("0.23"))
    print(f"a_1 = {mp.nstr(a1, 25)}")

    print("# assorted reference values")
    refs = {
        "zeta(2, 0.3)": mp.zeta(2, mp.mpf("0.3")),
        "zeta(-2.5, 0.3)": mp.zeta(mp.mpf("-2.5"), mp.mpf("0.3")),
        "zeta(0.5+14.1j, 0.3)": mp.zeta(mp.mpc("0.5", "14.1"), mp.mpf("0.3")),
        "zeta(-9+30j, 0.717)": mp.zeta(mp.mpc(-9, 30), mp.mpf("0.717")),
        "zeta(3-7j, 1)": mp.zeta(mp.mpc(3, -7), 1),
        "Li(0.9, a=0.1)": mp.polylog(mp.mpf("0.9"), mp.exp(2j * mp.pi * mp.mpf("0.1"))),
        "Li(2, a=0.3)": mp.polylog(2, mp.exp(2j * mp.pi * mp.mpf("0.3"))),
        "Li(1+5j, a=0.45)": mp.polylog(mp.mpc(1, 5), mp.exp(2j * mp.pi * mp.mpf("0.45"))),
        "Li(-2.5, a=0.3)": mp.polylog(mp.mpf("-2.5"), mp.exp(2j * mp.pi * mp.mpf("0.3"))),
        "Li(-7+11j, a=0.05)": mp.polylog(mp.mpc(-7, 11), mp.exp(2j * mp.pi * mp.mpf("0.05"))),
        "gamma(0.5+30j)": mp.gamma(mp.mpc("0.5", "30")),
        "gamma(-5.5)": mp.gamma(mp.mpf("-5.5")),
        "gamma(20-14j)": mp.gamma(mp.mpc(20, -14)),
        "Catalan": mp.catalan,
    }
    for name, val in refs.items():
        print(f"{name} = {mp.nstr(val, 22)}")

    print("# BAND in tests/test_far_field.py: a = 0.3 where e^{pi |t|/2} overflows a double")
    for sigma in ("-12.3", "0.3"):
        for t in (455, 500, 600, 800):
            s = mp.mpc(mp.mpf(sigma), t)
            for name in ("Z", "P", "Y", "O", "X", "hurwitz", "periodic"):
                v = family(name, s, mp.mpf("0.3"))
                print(f"    ({name!r}, {sigma}, {t}): complex({mp.nstr(v.real, 17)}, {mp.nstr(v.imag, 17)}),")

    print("# SIGMA_ZERO in tests/test_far_field.py: a = 0.3 on Re s = 0, the line where an Euler-Maclaurin")
    print("# pass at Re s >= 0 needs the largest shift for its height")
    for t in (20, 40, 60, 100, 200, 400, 800):
        for name in ("hurwitz", "Z"):
            v = family(name, mp.mpc(0, t), mp.mpf("0.3"))
            print(f"    ({name!r}, {t}): complex({mp.nstr(v.real, 17)}, {mp.nstr(v.imag, 17)}),")

    print("# L_MAP in tests/test_l_functions.py: characters 1 and last, Hurwitz sums at r/q")
    from zetazeros.dirichlet import characters_mod

    for q in (3, 4, 5, 7, 9, 12):
        chars = characters_mod(q)
        for index in sorted({1, len(chars) - 1}):
            for sigma in (-5, -9, -15):
                for t in (0, 40, 300, 550):
                    v = l_value(mp.mpc(sigma, t), q, chars[index].values)
                    print(f"    ({q}, {index}, {sigma}, {t}): complex({mp.nstr(v.real, 17)}, {mp.nstr(v.imag, 17)}),")

    print("# NEAR_ZERO in tests/test_families.py: the functional-equation route around s = 0")
    near_zero = (mp.mpf("1e-8"), mp.mpc("-1e-8", "1e-8"), mp.mpf("0.2499"), mp.mpf("0.2501"), mp.mpc("-0.2501", 3))
    for name, shifts in (("P", ("0.001", "0.3")), ("O", ("0.001", "0.3")), ("periodic", ("0.001", "0.3", "0.999"))):
        for a in shifts:
            for s in near_zero:
                v = family(name, s, mp.mpf(a))
                print(f"    ({name!r}, {a}, complex({mp.nstr(s.real, 5)}, {mp.nstr(s.imag, 5)})):"
                      f" complex({mp.nstr(v.real, 17)}, {mp.nstr(v.imag, 17)}),")

    print("# SMALL_A in tests/test_families.py: the series routes at small a (Hurwitz's formula)")
    for a, sigmas in (("1e-4", (1.5, 3, 8)), ("1e-6", (6, 12))):
        for sigma in sigmas:
            for t in (0, 40):
                s = mp.mpc(sigma, t)
                for name in ("periodic", "P", "O"):
                    v = family(name, s, mp.mpf(a))
                    print(f"    ({name!r}, {a}, {sigma}, {t}): complex({mp.nstr(v.real, 17)}, {mp.nstr(v.imag, 17)}),")

    print("# ROUTE_C in tests/test_families.py: Li_s(e^{2 pi i a}) and Li_s(e^{-2 pi i a}) at points of the")
    print("# series' route (c), Hurwitz's formula at the doubles the test passes")
    for a in (1e-3, 0.03, 0.2, 0.49):
        for sigma, t in ((0.5, 14.0), (0.8, -25.0), (1.7, 310.0), (2.6, -800.0), (4.0, -90.0), (1.1, 0.0), (0.3, 2.0)):
            s = mp.mpc(sigma, t)
            za, zb = periodic(s, mp.mpf(a)), periodic(s, 1 - mp.mpf(a))
            print(f"    ({a!r}, {sigma!r}, {t!r}): (complex({mp.nstr(za.real, 17)}, {mp.nstr(za.imag, 17)}),"
                  f" complex({mp.nstr(zb.real, 17)}, {mp.nstr(zb.imag, 17)})),")
    print("# O_AT_A_005 in tests/test_families.py: O(sigma, 0.05) on the real axis")
    for sigma in (0.75, 0.8, 0.85, 0.9, 1.0, 1.05, 1.15, 1.2):
        v = family("O", mp.mpf(sigma), mp.mpf(0.05))
        print(f"    {sigma!r}: {mp.nstr(v.real, 17)},")
    v = family("P", mp.mpc(2, 1), mp.mpf(5e-6))
    print(f"P(2+1j, 5e-6) = complex({mp.nstr(v.real, 17)}, {mp.nstr(v.imag, 17)})")

    print("# LOG_GAMMA in tests/test_special.py: ten points per |t| band, even k right of Re s = 1/2 (Stirling's")
    print("# series), odd k left of it (the reflection), t of both signs; 25 digits of the principal log Gamma")
    for band, (lo, hi) in enumerate(((0, 1), (1, 14), (14, 30), (30, 100), (100, 300), (300, 800))):
        print(f"    ({lo}, {hi}): [")
        for k in range(10):
            u, v = (0.5 + 0.618034 * k) % 1.0, (0.15 + 0.754878 * k + 0.381966 * band) % 1.0
            t = round((lo + (hi - lo) * u) * (-1) ** (k // 2), 4)
            # sigma^2-spaced on the right, so that points at small |t| take the shift to |s| >= 6
            sigma = round(0.5 + 19.5 * v * v if k % 2 == 0 else 0.5 - 8.5 * v, 4)
            # the reference is taken at the doubles the test passes, not at the decimals
            val = mp.loggamma(mp.mpc(sigma, t))
            print(f"        ({sigma!r}, {t!r}, {mp.nstr(val.real, 25)!r}, {mp.nstr(val.imag, 25)!r}),")
        print("    ],")
    print("# GAMMA_REAL in tests/test_special.py: Gamma(x) on [0.25, 20], 25 digits")
    for k in range(12):
        x = round(0.25 + 19.75 * ((0.1 + 0.618034 * k) % 1.0), 4)
        print(f"    ({x!r}, {mp.nstr(mp.gamma(mp.mpf(x)), 25)!r}),")

    print("# COMPLEX_ZEROS in tests/test_paper_results.py: the zeros of Z, Y and O at a = 2/5 right of Re s = 1")
    print("# up to height 101, findroot at 30 digits from starting points that counts on small tiles located")
    starts = {
        "Z": ("1.0513+7.5471j", "1.0382+22.3711j", "1.0300+52.824j", "1.0182+68.780j"),
        "Y": ("1.1833+77.506j",),
        "O": ("1.5163+8.9207j", "1.2584+19.1315j", "1.3834+26.3095j", "1.0709+36.2855j", "1.4928+54.5339j",
              "1.2115+64.5690j", "1.3209+71.8194j", "1.1803+82.0710j", "1.1021+89.6612j", "1.5397+99.8602j"),
    }
    with mp.workdps(30):
        for name, points in starts.items():
            print(f"    Family.{name}: [")
            for z in points:
                root = mp.findroot(lambda s: family(name, s, mp.mpf(2) / 5), mp.mpc(complex(z)))
                print(f"        complex({mp.nstr(root.real, 17)}, {mp.nstr(root.imag, 17)}),")
            print("    ],")

    print("# frozen values where reflection wins on relative bound")
    print(f"zeta(-120+3j, 0.3) = {mp.nstr(mp.zeta(mp.mpc(-120, 3), mp.mpf('0.3')), 17)}")
    print(f"zeta(-200, 0.3) = {mp.nstr(mp.zeta(-200, mp.mpf('0.3')), 17)}")
    print(f"gamma(171.5) = {mp.nstr(mp.gamma(mp.mpf('171.5')), 17)}")
    print(f"gamma(-170.5) = {mp.nstr(mp.gamma(mp.mpf('-170.5')), 17)}")
    print(f"gamma(-1+300j) = {mp.nstr(mp.gamma(mp.mpc(-1, 300)), 17)}")


if __name__ == "__main__":
    main()
