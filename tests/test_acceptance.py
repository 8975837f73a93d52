"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two sub-criteria are implemented exactly as their targets were stated and are
expected failures (strict xfail); the targets are analytically unattainable,
and the companion assertions right next to them pin the corrected statements:

  5a. the small-a asymptotic constant: the stated main terms carry 2 a^2 log a
      where a consistent expansion (and 50-digit bisection) gives 4 a^2 log a,
      so the stated 5 a^2 window misses by ~2 a^2 |log a| (= 9-10 a^2 here);
  11. the sigma in (1.005, 1.2) zero window for P(s, 2/5): |P| >= 0.31 on that
      whole strip for t <= 1500 (boundary minima ~0.25), so the counts are
      0, 0, 0 and cannot "strictly grow"; the linear density growth itself is
      real and is verified in the 0.55 < sigma < 0.95 strip.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from zetazeros import (
    Alpha,
    Family,
    UnsupportedError,
    beta_zero,
    chi_minus4,
    closed_form_identity,
    count_zeros_rectangle,
    eval_family,
    functional_equation_pair,
    l_function,
    linear_relation_residual,
    interval_zero_criterion,
    scan_real_zeros,
)
from zetazeros.zeros import SIMPLE

A_GRID_9 = [round(0.05 * k, 2) for k in range(1, 10)]  # 0.05 .. 0.45


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f"  [{detail}]" if detail else ""))
    return ok


def draw_fe_points(n=100, seed=20240801):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        s = complex(rng.uniform(0.0, 10.0), rng.uniform(-30.0, 30.0))
        if s.real <= 0.05 or abs(s - 1.0) < 0.05:
            continue
        pts.append(s)
    return pts


def test_criterion_1_functional_equations():
    worst = 0.0
    pts = np.array(draw_fe_points())  # one array call per (a, family); the scalar path is tested elsewhere
    for a in (0.1, 0.3, 1.0 / 3.0, 0.49):
        for fam in (Family.Z, Family.P, Family.Y, Family.O, Family.X):
            lhs, rhs = functional_equation_pair(fam, pts, a)
            scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    ok = worst < 1e-8
    assert report("1 functional-equations", ok, f"worst rel {worst:.2e}")


def test_criterion_2_closed_forms():
    rng = np.random.default_rng(7)
    pairs = [(Family.Z, a) for a in ("1/2", "1/3", "1/4", "1/6")]
    pairs += [(Family.P, a) for a in ("1/2", "1/3", "1/4", "1/6")]
    pairs += [(fam, a) for fam in (Family.Y, Family.O, Family.X) for a in ("1/3", "1/4", "1/6")]
    worst = 0.0
    for fam, a_txt in pairs:
        done = 0
        while done < 20:
            s = complex(rng.uniform(0.1, 5.0), rng.uniform(-15.0, 15.0))
            if abs(s - 1.0) < 0.05:
                continue
            direct, closed = closed_form_identity(fam, a_txt, s)
            worst = max(worst, abs(direct - closed))
            done += 1
    ok = worst < 1e-8
    assert report("2 closed-forms", ok, f"worst abs residual {worst:.2e}")


def test_criterion_3_real_zero_sets():
    ok = True
    # no real zero of the periodic zeta on [-12, 5]
    for a in A_GRID_9:
        ok = ok and scan_real_zeros(Family.PERIODIC, a, -12.0, 5.0) == []
    # Y, O, X: zeros exactly at -1, -3, ..., -11, all simple
    want_odd = [-11, -9, -7, -5, -3, -1]
    for a in A_GRID_9:
        for fam in (Family.Y, Family.O, Family.X):
            recs = scan_real_zeros(fam, a, -12.0, 3.0)
            got = [round(r.location) for r in recs]
            ok = ok and got == want_odd
            ok = ok and all(r.multiplicity_class == SIMPLE for r in recs)
            ok = ok and all(abs(r.location - round(r.location)) < 1e-8 for r in recs)
    # Z: zeros exactly at 0, -2, ..., -12; P: -2, ..., -12 (a >= 1/4)
    want_z = [-12, -10, -8, -6, -4, -2, 0]
    want_p = [-12, -10, -8, -6, -4, -2]
    for a in (0.25, 0.3, 0.4, 0.5):
        recs_z = scan_real_zeros(Family.Z, a, -12.7, 0.9)
        recs_p = scan_real_zeros(Family.P, a, -12.7, 0.9)
        ok = ok and [round(r.location) for r in recs_z] == want_z
        ok = ok and [round(r.location) for r in recs_p] == want_p
        ok = ok and all(abs(r.location - round(r.location)) < 1e-8 for r in recs_z + recs_p)
    assert report("3 real-zero-sets", ok)


def test_criterion_4_extra_zero_and_monotonicity():
    ok = True
    for a in (0.05, 0.1, 0.15):
        z_zeros = [r for r in scan_real_zeros(Family.Z, a, 0.01, 0.99, 0.02)]
        p_zeros = [r for r in scan_real_zeros(Family.P, a, 0.01, 0.99, 0.02)]
        ok = ok and len(z_zeros) == 1 and len(p_zeros) == 1
        ok = ok and abs(z_zeros[0].location + p_zeros[0].location - 1.0) < 1e-8
    a_grid = np.linspace(0.003, 0.1663, 50)
    bz = [beta_zero(Family.Z, float(a)).beta for a in a_grid]
    bp = [beta_zero(Family.P, float(a)).beta for a in a_grid]
    ok = ok and all(x > y for x, y in zip(bz, bz[1:]))
    ok = ok and all(x < y for x, y in zip(bp, bp[1:]))
    ok = ok and max(abs(x + y - 1.0) for x, y in zip(bz, bp)) < 1e-8
    assert report("4 extra-zero-and-monotonicity", ok)


BETA_Z_ORACLE = {
    0.005: 0.9894914817762648038,
    0.01: 0.9781621031730623000,
    0.02: 0.9532644433450316529,
}


@pytest.mark.xfail(
    strict=True,
    reason="stated main terms carry 2 a^2 log a where a consistent expansion gives "
    "4 a^2 log a; the 5 a^2 window misses by ~2 a^2 |log a|",
)
def test_criterion_5a_small_a_asymptotics_as_stated():
    ok = True
    for a in (0.005, 0.01, 0.02):
        beta = beta_zero(Family.Z, a).beta
        stated = 1.0 - 2.0 * a + 2.0 * a * a * math.log(a)
        ok = ok and abs(beta - stated) < 5.0 * a * a
    assert report("5a small-a-asymptotics (as stated)", ok)


def test_criterion_5a_companion_corrected_constant():
    # same window, with the derivation's 4 a^2 log a; also pins the 50-digit
    # oracle values of beta_Z themselves
    ok = True
    for a, oracle in BETA_Z_ORACLE.items():
        beta = beta_zero(Family.Z, a).beta
        ok = ok and abs(beta - oracle) < 2e-10
        corrected = 1.0 - 2.0 * a + 4.0 * a * a * math.log(a)
        ok = ok and abs(beta - corrected) < 5.0 * a * a
    assert report("5a' small-a-asymptotics (corrected constant)", ok)


def test_criterion_5b_asymptotics_near_quarter():
    beta = beta_zero(Family.P, 0.2499).beta
    ok = abs(beta + math.log(math.cos(2.0 * math.pi * 0.2499)) / math.log(2.0)) < 0.01
    ok = ok and abs(beta - 10.63535576526834201) < 2e-9  # 50-digit oracle
    assert report("5b asymptotics-near-quarter", ok, f"beta_P(0.2499) = {beta:.9f}")


def test_criterion_6_special_values():
    ok = True
    a_vals = np.linspace(0.02, 0.49, 20)
    for a in a_vals:
        a = float(a)
        ok = ok and abs(eval_family(Family.P, 0.0, a) + 1.0) < 1e-10
        ok = ok and abs(eval_family(Family.Z, 0.0, a)) < 1e-10
    ok = ok and abs(eval_family(Family.P, 1.0, Alpha.parse("1/6"))) < 1e-10
    for a in np.linspace(0.05, 0.45, 9):
        a = float(a)
        want = -2.0 * math.log(2.0 * math.sin(math.pi * a))
        ok = ok and abs(eval_family(Family.P, 1.0, a) - want) < 1e-12
    assert report("6 special-values", ok)


def test_criterion_7_interval_criterion_vs_scanner():
    eps = 1e-6
    ok = True
    checked = 0
    # literal grid: 10 shifts x 8 interval indices = 80 pairs
    for k in range(1, 11):  # a = 0.05 .. 0.50
        alpha = Alpha.coerce(Fraction(k, 20))
        for n in range(-8, 0):  # N = -1 .. -8
            lo, hi = -n - 1.0, -float(n)
            found = scan_real_zeros(Family.HURWITZ, alpha, lo + eps, hi - eps, 0.02)
            ok = ok and interval_zero_criterion(alpha, n) == (len(found) > 0)
            checked += 1
    # substantive grid: the nonpositive-axis intervals the criterion indexes
    for k in range(1, 10):
        alpha = Alpha.coerce(Fraction(k, 20))
        for n in range(-1, 7):
            lo, hi = -n - 1.0, -float(n)
            found = scan_real_zeros(Family.HURWITZ, alpha, lo + eps, hi - eps, 0.02)
            ok = ok and interval_zero_criterion(alpha, n) == (len(found) > 0)
            checked += 1
    assert report("7 interval-criterion", ok, f"{checked} (a, N) pairs")


def test_criterion_8_rectangle_count():
    a = Alpha.parse("1/6")
    box = (complex(-1, 1), complex(2, 30))
    rc = count_zeros_rectangle(Family.Z, a, box, 512)
    rc2 = count_zeros_rectangle(Family.Z, a, box, 1024)
    low = count_zeros_rectangle(Family.Z, a, (complex(-1, 1), complex(2, 16)), 512)
    high = count_zeros_rectangle(Family.Z, a, (complex(-1, 16), complex(2, 30)), 512)
    ok = rc.count == 11 and rc2.count == 11 and low.count + high.count == 11
    assert report("8 rectangle-count", ok, f"count={rc.count}, split {low.count}+{high.count}")


def test_criterion_9_sign_sweeps():
    sigmas = np.arange(0.05, 5.0 + 1e-9, 0.05)
    violations = 0
    for a in A_GRID_9:
        for sg in sigmas:
            s = complex(float(sg), 0.0)
            if eval_family(Family.Y, s, a).real <= 0.0:
                violations += 1
            if eval_family(Family.O, s, a).real <= 0.0:
                violations += 1
    for a in (0.25, 0.3, 0.35, 0.4, 0.45, 0.5):
        for sg in sigmas:
            if eval_family(Family.P, complex(float(sg), 0.0), a).real >= 0.0:
                violations += 1
    ok = violations == 0
    assert report("9 sign-sweeps", ok, f"{violations} violations")


def test_criterion_10_dirichlet_layer():
    ok = True
    catalan = l_function(chi_minus4(), 2.0).real
    ok = ok and abs(catalan - 0.915965594177219015) < 1e-9
    rng = np.random.default_rng(9)
    # l_from_family checks P and O on primitive characters only, and these moduli have none of their parity
    no_primitive = {(Family.P, 3), (Family.P, 4), (Family.P, 6), (Family.O, 6), (Family.O, 12)}
    for q in (3, 4, 5, 6, 8, 12):
        coprime = [r for r in range(1, q) if math.gcd(r, q) == 1]
        for _ in range(10):
            s = complex(rng.uniform(0.3, 4.0), rng.uniform(-8.0, 8.0))
            if abs(s - 1.0) < 0.1:
                continue
            r = int(rng.choice(coprime))
            ok = ok and linear_relation_residual(Family.Z, r, q, s) < 1e-9
            ok = ok and linear_relation_residual(Family.P, r, q, s) < 1e-9
            if 2 * r < q:
                ok = ok and linear_relation_residual(Family.Y, r, q, s) < 1e-9
                ok = ok and linear_relation_residual(Family.O, r, q, s) < 1e-9
            for fam in (Family.Z, Family.P, Family.Y, Family.O):
                if (fam, q) in no_primitive:
                    with pytest.raises(UnsupportedError):
                        linear_relation_residual(fam, 1, q, s, direction="l_from_family")
                    continue
                ok = ok and linear_relation_residual(fam, 1, q, s, direction="l_from_family") < 1e-9
    assert report("10 dirichlet-layer", ok, f"Catalan residual {abs(catalan - 0.915965594177219015):.1e}")


@pytest.mark.xfail(
    strict=True,
    reason="|P(s, 2/5)| >= 0.31 on 1.005 < sigma < 1.2 for all t <= 1500 (verified by "
    "winding and dip search); the sigma > 1 zeros sit beyond desk scale, so the "
    "stated counts are 0, 0, 0 and cannot strictly grow",
)
def test_criterion_11_density_window_as_stated():
    a = Alpha.parse("2/5")
    counts = []
    for t_hi in (200.0, 400.0, 800.0):
        rc = count_zeros_rectangle(
            Family.P, a, (complex(1.005, 0.0), complex(1.2, t_hi)), initial_samples=int(8 * t_hi)
        )
        counts.append(rc.count)
    ok = counts == sorted(counts) and counts[2] > counts[0] and counts[0] >= 1
    assert report("11 density-window (as stated)", ok, f"counts {counts}")


def test_criterion_11_companion_density_in_critical_strip():
    # the same linear-growth property, observed where the zeros actually are
    a = Alpha.parse("2/5")
    counts = []
    for t_hi in (50.0, 100.0, 200.0):
        rc = count_zeros_rectangle(
            Family.P, a, (complex(0.55, 1.0), complex(0.95, t_hi)), initial_samples=int(10 * t_hi)
        )
        counts.append(rc.count)
    ok = counts[0] >= 1 and counts == sorted(counts) and counts[0] < counts[1] < counts[2]
    assert report("11' density-in-critical-strip", ok, f"counts {counts}")
