"""Scanning, beta curves, the interval criterion, and rectangle counting.

High-precision constants (beta values, the double-zero shift a_1) come from
tests/oracles/make_reference.py (mpmath, 50-digit bisection).
"""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from zetazeros import (
    AccuracyWarning,
    Alpha,
    BoundaryError,
    DomainError,
    Family,
    PoleError,
    UnsupportedError,
    beta_zero,
    asymptotic_prediction,
    bernoulli_poly_exact,
    count_zeros_rectangle,
    eval_family,
    interval_zero_criterion,
    monotone_kernel,
    partial_a,
    scan_real_zeros,
    special_values,
)
from zetazeros import zeros
from zetazeros.zeros import EVEN_TOUCH, SIMPLE

# 50-digit oracle values
BETA_Z_ORACLE = {
    0.005: 0.9894914817762648038,
    0.01: 0.9781621031730623000,
    0.02: 0.9532644433450316529,
}
BETA_P_2499_ORACLE = 10.63535576526834201
A1_DOUBLE_ZERO = 0.2308296502521382385  # P(3, a_1) = 0, so Z(., a_1) has a double zero at -2
BETA_Z_NEAR_A1 = -2.022889316699684379  # the zero of Z(., a_1 + 3e-4) next to -2 (40-digit findroot)


def locations(records):
    return [rec.location for rec in records]


def test_scan_y_negative_odd_integers():
    recs = scan_real_zeros(Family.Y, 0.3, -10.0, 2.0)
    assert [round(x) for x in locations(recs)] == [-9, -7, -5, -3, -1]
    for rec in recs:
        assert rec.multiplicity_class == SIMPLE
        assert abs(rec.location - round(rec.location)) < 1e-8
        assert rec.residual < 1e-9


def test_scan_z_nonpositive_even_integers():
    recs = scan_real_zeros(Family.Z, 0.3, -9.0, 0.99)
    assert [round(x) for x in locations(recs)] == [-8, -6, -4, -2, 0]
    for rec in recs:
        assert abs(rec.location - round(rec.location)) < 1e-8


def test_scan_periodic_finds_nothing():
    assert scan_real_zeros(Family.PERIODIC, 0.3, -10.0, 5.0) == []


@pytest.mark.parametrize("a", (0.5, "1/2"))
def test_scan_periodic_zeros_at_one_half_are_simple(a):
    # Li_s(-1) = -eta(s) is real on the axis and vanishes simply at the negative
    # even integers: Re f is the section, so each zero is a sign change
    recs = scan_real_zeros(Family.PERIODIC, a, -12.01, 5.0)
    assert [round(x) for x in locations(recs)] == [-12, -10, -8, -6, -4, -2]
    for rec in recs:
        assert rec.multiplicity_class == SIMPLE
        assert abs(rec.location - round(rec.location)) < 1e-10


def test_scan_detects_double_zero_as_even_touch():
    # Z(s, 1/6) = (2^s-1)(3^s-1) zeta(s) has a double zero at s = 0
    recs = scan_real_zeros(Family.Z, "1/6", -0.9, 0.9)
    assert len(recs) == 1
    assert recs[0].multiplicity_class == EVEN_TOUCH
    assert abs(recs[0].location) < 1e-6


def test_scan_double_zero_at_oracle_shift():
    # at a_1 the extra zero collides with the trivial zero at -2: double there,
    # while -4 stays simple
    recs = scan_real_zeros(Family.Z, A1_DOUBLE_ZERO, -4.9, -1.5, 0.05)
    by_loc = {round(rec.location): rec for rec in recs}
    assert set(by_loc) == {-4, -2}
    assert by_loc[-2].multiplicity_class == EVEN_TOUCH
    assert by_loc[-4].multiplicity_class == SIMPLE


def test_scan_keeps_zeros_on_both_endpoints():
    # the trivial zeros sit on the first and the last grid point; the last one
    # is classified by a sample beyond the grid, as the first one is
    recs = scan_real_zeros(Family.Z, 0.3, -4.0, -2.0)
    assert [round(x) for x in locations(recs)] == [-4, -2]
    assert [rec.multiplicity_class for rec in recs] == [SIMPLE, SIMPLE]
    recs = scan_real_zeros(Family.Z, A1_DOUBLE_ZERO, -4.9, -2.0, 0.05)
    assert [round(x) for x in locations(recs)] == [-4, -2]
    assert [rec.multiplicity_class for rec in recs] == [SIMPLE, EVEN_TOUCH]


def test_scan_keeps_two_zeros_closer_than_half_a_step():
    # just above a_1 the extra zero of Z has left -2 by 0.023, less than half a
    # grid step: two simple zeros, both reported
    recs = scan_real_zeros(Family.Z, A1_DOUBLE_ZERO + 3e-4, -3.01, -1.51)
    assert [rec.multiplicity_class for rec in recs] == [SIMPLE, SIMPLE]
    assert abs(recs[0].location - BETA_Z_NEAR_A1) < 1e-8
    assert abs(recs[1].location + 2.0) < 1e-8


def test_scan_splits_around_pole():
    with pytest.warns(UserWarning, match="pole"):
        recs = scan_real_zeros(Family.Z, 0.3, 0.5, 1.5, 0.05)
    assert recs == []


def test_scan_skips_an_empty_side_of_the_pole_split():
    # the split leaves [lo, 1 - step/4] and [1 + step/4, hi]; a side that is
    # empty is not scanned, and an interval inside the gap finds nothing
    with pytest.warns(UserWarning, match="pole"):
        (rec,) = scan_real_zeros(Family.Z, 0.01, 0.95, 1.001)
    assert abs(rec.location - BETA_Z_ORACLE[0.01]) < 1e-10
    with pytest.warns(UserWarning, match="pole"):
        assert scan_real_zeros(Family.Z, 0.3, 0.995, 1.2) == scan_real_zeros(Family.Z, 0.3, 1.0125, 1.2)
    with pytest.warns(UserWarning, match="pole"):
        assert scan_real_zeros(Family.HURWITZ, 0.3, 0.999, 1.001) == []
    with pytest.raises(PoleError):
        scan_real_zeros(Family.HURWITZ, 0.3, 0.999, 1.0)


def test_scan_refuses_a_huge_grid_before_building_it():
    with pytest.raises(DomainError, match="points"):
        scan_real_zeros(Family.Y, 0.3, 0.0, 1e300)
    with pytest.raises(DomainError, match="points"):
        scan_real_zeros(Family.P, 0.3, -1.0, 1.0, 1e-7)


def test_scan_keeps_sign_change_over_nearby_touch():
    # A golden-section touch record next to a bisected sign change can have the
    # smaller residual; the zero is still simple.
    recs = scan_real_zeros(Family.Y, Alpha.parse("3/10"), -16.0907, 3.0221)
    by_loc = {round(rec.location): rec for rec in recs}
    assert set(by_loc) == {-15, -13, -11, -9, -7, -5, -3, -1}
    assert by_loc[-13].multiplicity_class == SIMPLE
    assert all(rec.multiplicity_class == SIMPLE for rec in recs)


def test_scan_hurwitz_zero_near_origin_is_simple():
    with pytest.warns(UserWarning, match="pole"):
        recs = scan_real_zeros(Family.HURWITZ, Alpha.parse("7/11"), -16.09, 3.0217)
    near = [rec for rec in recs if abs(rec.location + 0.42887) < 1e-4]
    assert len(near) == 1
    assert near[0].multiplicity_class == SIMPLE


def _scalar_bisect(f, lo, hi, flo, fhi, width):
    """One bracket of zeros._bisect: inverse quadratic interpolation through
    the three latest points, else the secant through the two latest, else
    regula falsi; the first step truncated toward the midpoint by 0.05 w0;
    ITP's projection with n0 = 1; every point kept width/4 inside the bracket."""
    if not hi - lo > width:
        return lo, hi
    radius = (width - 4.0 * math.ulp(max(abs(lo), abs(hi)))) * 2.0 ** math.ceil(math.log2((hi - lo) / width))
    (x2, f2), (x1, f1), (x0, f0) = (math.nan, math.nan), (lo, flo), (hi, fhi)
    first = True
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        x = math.nan
        d1, d2 = (f1 - f0) * (f1 - f2), (f2 - f0) * (f2 - f1)
        if not first and d1 != 0.0 and d2 != 0.0:
            x = x0 + (x1 - x0) * (f0 * f2 / d1) + (x2 - x0) * (f0 * f1 / d2)
        if not lo < x < hi and f0 != f1:
            x = x0 + (x1 - x0) * (f0 / (f0 - f1))
        if not lo < x < hi:
            x = (lo * fhi - hi * flo) / (fhi - flo)
        sigma = (mid > x) - (mid < x)
        if first:
            delta = 0.05 * (hi - lo)
            x = x + sigma * delta if delta <= abs(mid - x) else mid
            first = False
        r = radius - 0.5 * (hi - lo)
        x = x if abs(x - mid) <= r else mid - sigma * r
        radius *= 0.5
        x = min(max(x, lo + 0.25 * width), hi - 0.25 * width)
        fx = f(x)
        (x2, f2), (x1, f1), (x0, f0) = (x1, f1), (x0, f0), (x, fx)
        if fx == 0.0:
            return x - 0.25 * width, x + 0.25 * width
        if (fx < 0.0) == (flo < 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    return lo, hi


def _scalar_brent(g, lo, hi, width):
    """One bracket of zeros._refine_touch: Brent's local minimiser after a
    first golden-section pair, with steps of at least width/4."""
    if not hi - lo > width:
        return 0.5 * (lo + hi)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    tol = 0.25 * width
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    gc, gd = g(c), g(d)
    if gc < gd:
        hi, x, fx, w, fw = d, c, gc, d, gd
    else:
        lo, x, fx, w, fw = c, d, gd, c, gc
    v, fv = w, fw
    step = before = 0.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        golden = True
        if abs(before) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            if abs(p) < abs(0.5 * q * before) and q * (lo - x) < p < q * (hi - x):
                golden = False
                before, step = step, p / q
                if x + step - lo < 2.0 * tol or hi - x - step < 2.0 * tol:
                    step = math.copysign(tol, mid - x)
        if golden:
            before = (lo if x >= mid else hi) - x
            step = (1.0 - invphi) * before
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        fu = g(u)
        if fu <= fx:
            if u >= x:
                lo = x
            else:
                hi = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return 0.5 * (lo + hi)


def _cubic(x):
    return (x - 0.5) * (x - 3.0) * (x + 2.25)


def _steep(x):
    # -1 at the left end of [0, 1], about 6e60 at the right: regula falsi alone crawls
    return np.expm1(200.0 * (x - 0.3))


def _triple(x):
    # a triple root 1e-12 right of 0.37, which interpolation approaches slowly:
    # plain Brent (scipy's brentq) makes 100 calls to reach 1e-10, against a bound of 35
    return 1e6 * (x - 0.37) ** 3 - 1e-30


# [0, 1] has its zero 0.5 at the first midpoint; the last bracket is already
# narrower than the width
REFINE_BRACKETS = [(0.0, 1.0), (2.2, 4.1), (-3.0, -1.7), (-2.0, 0.9), (2.99999999999, 3.00000000001)]


def test_array_refiners_match_the_scalar_loops_bracket_for_bracket():
    lo, hi = (np.array(x) for x in zip(*REFINE_BRACKETS))
    for width in (1e-10, 1e-8):
        blo, bhi = zeros._bisect(_cubic, lo, hi, _cubic(lo), _cubic(hi), width)
        want = [
            _scalar_bisect(lambda x: float(_cubic(x)), *b, float(_cubic(b[0])), float(_cubic(b[1])), width)
            for b in REFINE_BRACKETS
        ]
        assert list(zip(blo.tolist(), bhi.tolist())) == want
        g = lambda x: np.abs(_cubic(x))
        want = [_scalar_brent(lambda x: float(g(x)), *b, width) for b in REFINE_BRACKETS]
        assert zeros._refine_touch(g, lo, hi, width).tolist() == want


@pytest.mark.parametrize(
    "f, bracket", [(_cubic, b) for b in REFINE_BRACKETS[:4]] + [(_steep, (0.0, 1.0)), (_triple, (0.0, 1.0))]
)
@pytest.mark.parametrize("width", [1e-10, 1e-8])
def test_sign_refiner_keeps_bisection_guarantees(f, bracket, width):
    lo, hi = bracket
    seen = []

    def recording(x):
        seen.extend(x.tolist())
        return f(x)

    (blo,), (bhi,) = zeros._bisect(recording, lo, hi, f(lo), f(hi), width)
    assert bhi - blo <= width
    assert f(blo) * f(bhi) <= 0.0
    # one point a step, none at an end: at most bisection's steps plus one
    assert len(seen) <= math.ceil(math.log2((hi - lo) / width)) + 1
    assert all(lo < x < hi for x in seen)


# one scan per family over [-16, 3]: 29 sign brackets
FAMILY_SCANS = [
    (Family.Z, 0.2863),
    (Family.Y, 0.3618),
    (Family.O, 0.1234),
    (Family.X, 0.2071),
    (Family.P, 0.0871),
    (Family.HURWITZ, 0.7),
]


def test_sign_brackets_of_the_family_scans_take_few_evaluations(monkeypatch):
    original = zeros._bisect
    counts = []

    def recording(f, lo, hi, flo, fhi, width):
        seen = []

        def counting(x):
            seen.extend(x.tolist())
            return f(x)

        refined = original(counting, lo, hi, flo, fhi, width)
        # the brackets are disjoint, so each point belongs to the one it lies inside
        for a, b in zip(lo.tolist(), hi.tolist()):
            n = sum(a < x < b for x in seen)
            assert n <= math.ceil(math.log2((b - a) / width)) + 1
            counts.append(n)
        return refined

    monkeypatch.setattr(zeros, "_bisect", recording)
    for fam, a in FAMILY_SCANS:
        if fam in (Family.Z, Family.HURWITZ):
            with pytest.warns(UserWarning, match="pole"):
                scan_real_zeros(fam, a, -16.0, 3.0)
        else:
            scan_real_zeros(fam, a, -16.0, 3.0)
    assert len(counts) == 29
    # ITP took 6.0 evaluations a bracket here
    assert sum(counts) / len(counts) <= 4.5


def test_touch_refiner_is_no_slower_than_golden_section():
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    width = 1e-8
    minima = [
        (lambda x: np.abs(_cubic(x)), (2.2, 4.1), 3.0),
        (lambda x: (x - 0.3141) ** 2 + 1e-7, (0.0, 1.0), 0.3141),
        (lambda x: (x - 0.3141) ** 4, (-3.0, 0.35), 0.3141),
        (lambda x: np.sqrt(np.abs(x - 0.3141)), (0.0, 1.0), 0.3141),
    ]
    for g, (lo, hi), at in minima:
        calls = []

        def counting(x):
            calls.append(x.size)
            return g(x)

        (loc,) = zeros._refine_touch(counting, lo, hi, width).tolist()
        assert abs(loc - at) <= width
        # golden section: one call for its first pair, then one per shrink by 1/phi
        assert len(calls) <= 1 + math.ceil(math.log((hi - lo) / width) / math.log(1.0 / invphi))


def test_scan_refines_all_brackets_in_array_calls(monkeypatch):
    calls = []  # (settings, is an array) of each kernel call, and "refine" where refinement starts
    original_eval, original_bisect = zeros.eval_family, zeros._bisect

    def counting(fam, s, a, cfg):
        calls.append((cfg, isinstance(s, np.ndarray)))
        return original_eval(fam, s, a, cfg)

    def marking(*args):
        calls.append("refine")
        return original_bisect(*args)

    monkeypatch.setattr(zeros, "eval_family", counting)
    monkeypatch.setattr(zeros, "_bisect", marking)
    recs = scan_real_zeros(Family.Y, Alpha.parse("3/10"), -16.0907, 3.0221)
    assert len(recs) == 8
    start = calls.index("refine")
    grid, read, rounds, residuals = calls[:1], calls[1:start], calls[start + 1:-1], calls[-1:]
    # the loose grid, at most one call that reads grid values at 1e-10, five
    # refinement rounds (ITP took nine) and the residuals: 8 calls
    assert grid == [(zeros._GRID_SETTINGS, True)]
    assert len(read) <= 1 and len(rounds) <= 5
    assert all(call == (zeros._SCAN_SETTINGS, True) for call in read + rounds + residuals)
    assert len(calls) - 1 == 8


def _scan_settings_calls(monkeypatch):
    """Record the points of each kernel call a scan makes, by settings."""
    calls = {zeros._GRID_SETTINGS: [], zeros._SCAN_SETTINGS: []}
    original = zeros.eval_family

    def recording(fam, s, a, cfg):
        calls[cfg].append(s.tolist())
        return original(fam, s, a, cfg)

    monkeypatch.setattr(zeros, "eval_family", recording)
    return calls


def test_scan_rereads_a_grid_value_within_twice_its_bound(monkeypatch):
    # every loose grid value moved by its whole bound e = 1e-6 max(1, |v|), toward 0 at even points
    # and away from it at odd ones: the grid zeros at -3 and -1 read with the wrong sign, and
    # nothing changes
    a, lo, hi = Alpha.parse("3/10"), -4.0, 0.5
    want = scan_real_zeros(Family.Y, a, lo, hi)
    flipped = []
    original = zeros.eval_family

    def moved(fam, s, alpha, cfg):
        values = original(fam, s, alpha, cfg)
        if cfg is not zeros._GRID_SETTINGS:
            return values
        toward = np.copysign(1.0, values.real) * (-1.0) ** np.arange(values.size)
        out = values - toward * 1e-6 * np.maximum(1.0, np.abs(values))
        flipped.extend(s[(out.real < 0.0) != (values.real < 0.0)].real.tolist())
        return out

    monkeypatch.setattr(zeros, "eval_family", moved)
    calls = _scan_settings_calls(monkeypatch)
    assert scan_real_zeros(Family.Y, a, lo, hi) == want
    assert sorted(round(x) for x in flipped) == [-3, -1]
    assert len(calls[zeros._SCAN_SETTINGS][0]) < len(calls[zeros._GRID_SETTINGS][0])
    assert set(flipped) <= set(calls[zeros._SCAN_SETTINGS][0])


def test_scan_rereads_a_pair_whose_order_is_within_its_bounds(monkeypatch):
    # f = (s - x0)^2 touches 0 between the grid points 0.5 and 0.55 of [0, 1], a hair nearer 0.55:
    # the two |f| differ by 1e-7, and the loose grid, each value moved by its bound 1e-6 the other
    # way, says 0.5 is the lower; the touch is still refined from the dip at 0.55
    x0 = 0.525 + 1e-6

    def section(fam, s, a, cfg):
        values = ((s - x0) ** 2).astype(complex)
        if cfg is zeros._GRID_SETTINGS:
            values[10:12] += (-1e-6, 1e-6)
        return values

    monkeypatch.setattr(zeros, "eval_family", lambda fam, s, a, cfg: ((s - x0) ** 2).astype(complex))
    want = scan_real_zeros(Family.Y, 0.3, 0.0, 1.0)
    assert [(rec.multiplicity_class, rec.bracket) for rec in want] == [(EVEN_TOUCH, (0.5, 0.6))]
    monkeypatch.setattr(zeros, "eval_family", section)
    assert scan_real_zeros(Family.Y, 0.3, 0.0, 1.0) == want


@pytest.mark.parametrize("fam, a, lo, hi", [
    (Family.Z, "1/6", -2.5, 1.8),
    (Family.Z, 0.01, -1.0, 4.0),
    (Family.HURWITZ, "7/11", -6.0, 2.5),
    (Family.RIEMANN, 1, -7.0, 3.0),
])
def test_scan_across_the_pole_is_the_union_of_its_sides_in_one_pass(monkeypatch, fam, a, lo, hi):
    gap = zeros._DEFAULT_STEP / 4.0
    sides = scan_real_zeros(fam, a, lo, 1.0 - gap) + scan_real_zeros(fam, a, 1.0 + gap, hi)
    calls = _scan_settings_calls(monkeypatch)
    with pytest.warns(UserWarning, match="pole") as caught:
        assert scan_real_zeros(fam, a, lo, hi) == sides
    assert len(caught) == 1
    assert len(calls[zeros._GRID_SETTINGS]) == 1
    assert min(calls[zeros._GRID_SETTINGS][0]) == lo and max(calls[zeros._GRID_SETTINGS][0]) == hi


@pytest.mark.parametrize("fam, a", [(Family.Z, 0.3), (Family.Z, "1/6"), (Family.HURWITZ, 0.3)])
def test_scan_refines_no_touch_right_of_the_pole(monkeypatch, fam, a):
    # |f| has a minimum on [1.05, 4] (a^-s grows, the other terms fall), yet no touch bracket lies there
    xs = np.linspace(1.05, 4.0, 60)
    mags = np.abs(eval_family(fam, xs, a))
    assert (mags[1:-1] < mags[:-2]).any() and (mags[1:-1] < mags[2:]).any() and mags.min() > 1.0
    brackets = []
    original = zeros._refine_touch

    def recording(g, lo, hi, width):
        brackets.extend(zip(lo.tolist(), hi.tolist()))
        return original(g, lo, hi, width)

    monkeypatch.setattr(zeros, "_refine_touch", recording)
    assert scan_real_zeros(fam, a, 1.05, 4.0) == []
    with pytest.warns(UserWarning, match="pole"):
        scan_real_zeros(fam, a, -3.0, 4.0)
    assert all(hi < 1.0 for lo, hi in brackets)


@pytest.mark.parametrize("fam", [Family.Y, Family.O, Family.X])
@pytest.mark.parametrize("a", [0.5, "1/2"])
def test_odd_families_at_one_half_have_no_zeros_to_scan_or_count(fam, a):
    # Y, O and X flip sign under a -> 1 - a, so at a = 1/2 they vanish identically
    with pytest.raises(DomainError, match=f"{fam.value}\\(s, 1/2\\) = 0 for every s"):
        scan_real_zeros(fam, a, -3.0, 0.0)
    with pytest.raises(DomainError, match=f"{fam.value}\\(s, 1/2\\) = 0 for every s"):
        count_zeros_rectangle(fam, a, (-1 + 1j, 1 + 2j))


@pytest.mark.parametrize("a", [0.01, 0.08, 0.15, 0.2, 0.24])
def test_beta_refines_in_few_kernel_calls(monkeypatch, a):
    calls = []
    original = zeros.eval_family

    def counting(fam, s, *args):
        calls.append(np.size(s))
        return original(fam, s, *args)

    monkeypatch.setattr(zeros, "eval_family", counting)
    beta_zero(Family.P, a)
    assert len(calls) <= 8
    # above 1/6 the first bracket's two ends take one call
    assert a < 1.0 / 6.0 or calls[0] == 2


def test_p_at_1_matches_the_closed_form_that_beta_takes_as_its_upper_end():
    # below a = 1/6, beta_zero's bracket (0, 1) ends at P(1, a) = -2 log(2 sin pi a) > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        for a in np.geomspace(1e-4, 1.0 / 6.0, 60, endpoint=False).tolist():
            want = special_values(a).p_at_1
            assert want.real > 0.0
            assert abs(eval_family(Family.P, 1.0, a) - want) <= 1e-10, a


def test_scan_rejects_bad_interval():
    with pytest.raises(DomainError):
        scan_real_zeros(Family.Y, 0.3, 2.0, -2.0)


def test_beta_exact_boundary_value():
    pt = beta_zero(Family.P, Alpha.parse("1/6"))
    assert pt.beta == 1.0
    pt_z = beta_zero(Family.Z, Alpha.parse("1/6"))
    assert pt_z.beta == 0.0


def test_beta_against_oracle():
    for a, want in BETA_Z_ORACLE.items():
        pt = beta_zero(Family.Z, a)
        assert pt.beta == pytest.approx(want, abs=2e-10)
    pt = beta_zero(Family.P, 0.2499)
    assert pt.beta == pytest.approx(BETA_P_2499_ORACLE, abs=2e-9)


def test_beta_matches_independent_function_zero():
    # beta is derived from the P bisection; confirm Z itself vanishes there
    for a in (0.05, 0.1, 0.15):
        pt = beta_zero(Family.Z, a)
        assert 0.0 < pt.beta < 1.0
        assert abs(eval_family(Family.Z, complex(pt.beta, 0.0), a).real) < 1e-8


def test_beta_ranges_and_sum():
    for a in (0.04, 0.1, 0.16):
        bp = beta_zero(Family.P, a).beta
        bz = beta_zero(Family.Z, a).beta
        assert 0.0 < bp < 1.0 and 0.0 < bz < 1.0
        assert bp + bz == pytest.approx(1.0, abs=1e-12)
    for a in (0.17, 0.2, 0.24):
        assert beta_zero(Family.P, a).beta > 1.0


def test_beta_monotone_on_grids():
    a_small = np.linspace(0.004, 0.16, 50)
    bz = [beta_zero(Family.Z, float(a)).beta for a in a_small]
    bp = [beta_zero(Family.P, float(a)).beta for a in a_small]
    assert all(x > y for x, y in zip(bz, bz[1:]))  # strictly decreasing
    assert all(x < y for x, y in zip(bp, bp[1:]))  # strictly increasing
    a_mid = np.linspace(0.17, 0.2499, 30)
    bp_mid = [beta_zero(Family.P, float(a)).beta for a in a_mid]
    assert all(x < y for x, y in zip(bp_mid, bp_mid[1:]))


def test_beta_domain():
    with pytest.raises(DomainError):
        beta_zero(Family.P, 0.3)
    with pytest.raises(DomainError):
        beta_zero(Family.Y, 0.1)


def test_z_vanishes_at_one_minus_beta_p_between_sixth_and_quarter():
    # for 1/6 < a < 1/4, Z vanishes at 0 and at the extra zero 1 - beta_P(a);
    # the latter sits inside (-0.99, 0.99) for a close to 1/6 (beta_P < 1.99)
    # and leaves through -0.99 as a grows
    for a in (0.18, 0.2, 0.23):
        beta_p = beta_zero(Family.P, a).beta
        assert beta_p > 1.0
        assert abs(eval_family(Family.Z, complex(1.0 - beta_p, 0.0), a)) < 1e-8
        recs = scan_real_zeros(Family.Z, a, -0.99, 0.99, 0.02)
        expected = [0.0]
        if 1.0 - beta_p > -0.99:
            expected = [1.0 - beta_p, 0.0]
        assert len(recs) == len(expected)
        for rec, want in zip(recs, expected):
            assert abs(rec.location - want) < 1e-8


def test_asymptotic_prediction_values():
    # small-a main terms (a^2 log a coefficient 4; see module docstring)
    a = 0.01
    assert asymptotic_prediction(Family.P, a) == pytest.approx(
        2 * a - 4 * a * a * math.log(a), rel=1e-14
    )
    assert asymptotic_prediction(Family.Z, a) == pytest.approx(
        1 - 2 * a + 4 * a * a * math.log(a), rel=1e-14
    )
    # prediction tends to 1 for Z as a -> 0
    assert asymptotic_prediction(Family.Z, 1e-9) == pytest.approx(1.0, abs=1e-7)
    # near 1/4 the log-cosine form applies
    assert asymptotic_prediction(Family.P, 0.2499) == pytest.approx(
        -math.log(math.cos(2 * math.pi * 0.2499)) / math.log(2.0), rel=1e-13
    )
    assert asymptotic_prediction(Family.Z, 0.2499) < 0.0


def test_asymptotic_accuracy_small_a():
    # |beta - main terms| = O(a^2) with a modest constant once the a^2 log a
    # coefficient is right
    for a in (0.005, 0.01, 0.02):
        pt = beta_zero(Family.Z, a)
        assert pt.deviation < 2.0 * a * a


def test_interval_criterion_known_cases():
    assert interval_zero_criterion(Alpha.parse("1/4"), -1) is True
    assert interval_zero_criterion(Alpha.parse("1/2"), -1) is False
    assert interval_zero_criterion(0.3, -2) is False
    # and the scanner agrees over (1, 2): zeta(sigma, 0.3) > 0 there
    assert scan_real_zeros(Family.HURWITZ, 0.3, 1.001, 1.999, 0.02) == []


def test_interval_criterion_is_exact_for_float_a():
    # a float a is an exact binary rational, and the criterion is decided at that rational: at
    # a = 1/4, 1/2 and 3/4 a Bernoulli polynomial that vanishes there must read exactly zero
    # (B_5(1/2) summed in floats is 1.4e-17, which made (-5, -4) at a = 0.5 look like it held a zero)
    rng = np.random.default_rng(29)
    for a in [0.25, 0.5, 0.75] + rng.uniform(0.0, 1.0, 8).tolist():
        x = Fraction(a)
        for n in range(-1, 59):
            want = bernoulli_poly_exact(n + 1, x) * bernoulli_poly_exact(n + 2, x) < 0
            assert interval_zero_criterion(a, n) == want, (a, n)
    assert interval_zero_criterion(0.5, 4) is False
    assert scan_real_zeros(Family.HURWITZ, 0.5, -5.0 + 1e-6, -4.0 - 1e-6, 0.02) == []


def test_interval_criterion_agrees_with_scanner():
    # the substantive exercise: intervals (-n-1, -n) on the nonpositive axis
    eps = 1e-6
    for a10 in range(1, 10):  # a = 0.1 .. 0.9 exact tenths
        alpha = Alpha.parse(f"{a10}/10")
        for n in range(-1, 7):
            lo, hi = -n - 1.0, -float(n)
            found = scan_real_zeros(Family.HURWITZ, alpha, lo + eps, hi - eps, 0.02)
            criterion = interval_zero_criterion(alpha, n)
            assert criterion == (len(found) > 0), (alpha, n, found)


def test_rectangle_count_eleven():
    # Z(s, 1/6) = (2^s-1)(3^s-1) zeta(s) on [-1,2] x [1,30]: three critical
    # zeros (t ~ 14.13, 21.02, 25.01), three roots of 2^s = 1 (t = 2 pi k/log 2)
    # and five roots of 3^s = 1 (t = 2 pi k/log 3)
    rc = count_zeros_rectangle(Family.Z, Alpha.parse("1/6"), (complex(-1, 1), complex(2, 30)), 512)
    assert rc.count == 11
    assert rc.boundary_min_abs > 1e-6
    assert rc.winding_error < 1e-12  # a closed path's increments sum to 2 pi k up to rounding


def test_rectangle_count_zero_free_region():
    rc = count_zeros_rectangle(Family.Z, 0.3, (complex(2, 1), complex(3, 10)), 256)
    assert rc.count == 0


def test_rectangle_counts_add_under_splitting():
    whole = count_zeros_rectangle(Family.Z, Alpha.parse("1/6"), (complex(-1, 1), complex(2, 30)), 512)
    lowhalf = count_zeros_rectangle(Family.Z, Alpha.parse("1/6"), (complex(-1, 1), complex(2, 16)), 512)
    highhalf = count_zeros_rectangle(Family.Z, Alpha.parse("1/6"), (complex(-1, 16), complex(2, 30)), 512)
    assert lowhalf.count + highhalf.count == whole.count


def test_rectangle_count_stable_under_more_samples():
    a = Alpha.parse("1/6")
    rc1 = count_zeros_rectangle(Family.Z, a, (complex(-1, 1), complex(2, 30)), 512)
    rc2 = count_zeros_rectangle(Family.Z, a, (complex(-1, 1), complex(2, 30)), 1024)
    assert rc1.count == rc2.count


# Ordinates of the zeros of zeta on the critical line below t = 60
ZETA_ORDINATES = (14.134725, 21.022040, 25.010858, 30.424876, 32.935062, 37.586178, 40.918719,
                  43.327073, 48.005151, 49.773832, 52.970321, 56.446248, 59.347044)


@pytest.mark.parametrize("t_lo, t_hi", [(4, 7), (16, 19), (44, 47), (1, 60)])
@pytest.mark.parametrize("left", [-1e-2, 1e-2, -1e-4, 1e-4, -1e-6, 1e-6])
def test_rectangle_count_with_zeros_close_to_an_edge(left, t_lo, t_hi):
    # Z(s, 1/6) = (2^s-1)(3^s-1) zeta(s) vanishes at t = 2 pi k/log 2 and
    # t = 2 pi k/log 3 on Re s = 0, a distance |left| inside or outside the
    # left edge ([44, 47] holds the pair at 45.32 and 45.75).  At the default
    # start the count is right or refused, never wrong.
    expected = sum(t_lo < g < t_hi for g in ZETA_ORDINATES)
    if left < 0:
        expected += sum(t_lo < 2 * math.pi * k / math.log(p) < t_hi for p in (2, 3) for k in range(1, 100))
    try:
        rc = count_zeros_rectangle(Family.Z, Alpha.parse("1/6"), (complex(left, t_lo), complex(2, t_hi)))
    except BoundaryError:
        return
    assert rc.count == expected


def test_rectangle_grid_cap_uses_the_nested_path(monkeypatch):
    # 7812 << 7 = 999 936 points, but per-edge rounding gives this boundary
    # 7814 segments, so the eighth nested pass would hold 1 000 193 points
    def refuse(*args):
        raise AssertionError("evaluated before the grid cap was checked")

    monkeypatch.setattr(zeros, "eval_family", refuse)
    with pytest.raises(DomainError, match="points"):
        count_zeros_rectangle(Family.Z, Alpha.parse("1/6"), (complex(-1, 1), complex(2, 30)), 7812)


@pytest.mark.parametrize("corners", [(complex("nan+1j"), 1 + 2j), (1j, complex("inf+2j")), (1j, complex(1, math.inf))])
def test_rectangle_with_a_corner_that_is_not_finite_is_rejected(corners):
    with pytest.raises(DomainError):
        count_zeros_rectangle(Family.Z, 0.3, corners)


@pytest.mark.parametrize("corners", [(1j, 800 + 2j), (1j, 1e300 + 2j)])
def test_rectangle_count_stops_at_its_first_value_that_is_not_finite(monkeypatch, corners):
    # Z(s, 0.3) is nan far to the right; a nan increment never settles, so the
    # count would halve its segments level after level
    calls = []
    evaluate = zeros.eval_family

    def record(fam, s, *args):
        calls.append(s.size)
        return evaluate(fam, s, *args)

    monkeypatch.setattr(zeros, "eval_family", record)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        with pytest.raises(DomainError, match="not finite"):
            count_zeros_rectangle(Family.Z, 0.3, corners)
    assert len(calls) == 1


# A synthetic family f(s) = s on the square (-1-1j, 1+1j), its value scaled
# by a factor at a few points: path points lie at multiples of 1/8 on the
# edges, midpoints of the first path at odd multiples of 1/16.  The first
# path's checks come first, pass 0's min |f| refusal included; a midpoint is
# checked when a pass reads it, and the first one not finite in the pass's
# order is named.
@pytest.mark.parametrize("factors, error, match", [
    ({-1 - 1j: 1e-7 / math.sqrt(2.0), -0.9375 - 1j: math.nan}, BoundaryError, r"min \|f\| on the boundary is 1e-07"),
    ({-0.9375 - 1j: math.nan}, DomainError, re.escape("not finite at s = (-0.9375-1j)")),
    ({0.0625 + 1j: 0.0}, BoundaryError, "zero on the rectangle boundary"),
    ({-1 + 0.0625j: math.nan, 1 + 0.0625j: math.nan}, DomainError, re.escape("not finite at s = (1+0.0625j)")),
], ids=("small-path-value-before-nan-midpoint", "nan-midpoint", "zero-midpoint", "first-of-two-nan-midpoints"))
def test_count_errors_keep_their_precedence(monkeypatch, factors, error, match):
    def synthetic(fam, s, *args):
        values = np.array(s, dtype=complex)
        for z, factor in factors.items():
            values[s == z] *= factor
        return values

    monkeypatch.setattr(zeros, "eval_family", synthetic)
    with pytest.raises(error, match=match):
        count_zeros_rectangle(Family.P, 0.3, (-1 - 1j, 1 + 1j))


def test_rectangle_near_pole_rejected():
    with pytest.raises(DomainError):
        count_zeros_rectangle(Family.Z, 0.3, (complex(0.5, -0.5), complex(1.5, 0.5)), 128)


@pytest.mark.parametrize("make, error", [
    (lambda: scan_real_zeros(Family.Z, 0.3, -2.0, 1.0), PoleError),
    # a corner on the trivial zero of Y(s, 0.3) at s = -1
    (lambda: count_zeros_rectangle(Family.Y, 0.3, (-1 + 0j, 0.5 + 2j)), BoundaryError),
], ids=("scan-ends-on-the-pole", "count-corner-on-a-zero"))
def test_zero_layer_refusals_raise_typed_errors(make, error):
    with pytest.raises(error):
        make()


@pytest.mark.parametrize("make, error", [
    (lambda: count_zeros_rectangle(Family.Z, 0.3, (1 + 1j, 1 + 2j)), DomainError),
    # the right edge passes through the trivial zero of Y(s, 0.3) at s = -1
    (lambda: count_zeros_rectangle(Family.Y, 0.3, (-1.5 - 1j, -1 + 1j)), BoundaryError),
    # min |f| on this boundary is 7.9e-7, below the 1e-6 the count refuses
    (lambda: count_zeros_rectangle(Family.Z, "1/4", (-16.05 - 0.05j, 0.9 + 0.05j)), BoundaryError),
    (lambda: scan_real_zeros(Family.Z, 0.3, -1.0, 0.0, 0.0), DomainError),
    (lambda: monotone_kernel(1.0, 0.3), DomainError),
    (lambda: monotone_kernel(0.0, 0.2), DomainError),
    (lambda: asymptotic_prediction(Family.Y, 0.1), DomainError),
    (lambda: asymptotic_prediction(Family.Z, 0.3), DomainError),
    (lambda: partial_a(Family.Y, 2.0, 0.3), DomainError),
    (lambda: partial_a(Family.HURWITZ, 0.0, 0.3), PoleError),
    (lambda: special_values("1"), DomainError),
    (lambda: eval_family(Family.L_CHI, 2.0, 0.3), DomainError),
    (lambda: interval_zero_criterion(0.3, 59), UnsupportedError),
], ids=(
    "count-degenerate-rectangle", "count-zero-on-the-boundary", "count-boundary-below-the-floor",
    "scan-step-zero", "kernel-a-above-a-quarter", "kernel-sigma-zero", "prediction-family-y",
    "prediction-a-above-a-quarter", "partial-a-family-y", "partial-a-hurwitz-pole", "special-values-a-one",
    "eval-l-without-a-character", "criterion-past-the-table",
))
def test_refused_inputs_raise_their_typed_errors(make, error):
    with pytest.raises(error):
        make()


def test_rectangle_boundary_through_zero_rejected():
    # boundary passing essentially through the double zero of Z(s, 1/6) at 0
    with pytest.raises((BoundaryError, DomainError)):
        count_zeros_rectangle(Family.Z, Alpha.parse("1/6"), (complex(0, -1), complex(1.5, 1)), 128)
