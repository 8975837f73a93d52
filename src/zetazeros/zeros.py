"""Real-zero scanning and classification, location of the extra real zeros of
Z and P, asymptotic predictions, the Bernoulli-sign interval criterion, and
argument-principle zero counting in rectangles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import (
    MAX_GRID_POINTS,
    Alpha,
    AlphaLike,
    BoundaryError,
    ConvergenceError,
    DomainError,
    EvalSettings,
    Family,
    PoleError,
    UnsupportedError,
    require_finite,
)
from .families import eval_family, special_values
from .special import bernoulli_poly_exact, gamma

SIMPLE = "simple-sign-change"
EVEN_TOUCH = "even-touch"

# Absolute tolerance the family kernels certify for every evaluation of the
# zero layer: scan grids and brackets, beta brackets and rectangle boundaries.
# The zero layer takes no settings of its own.
_SCAN_SETTINGS = EvalSettings(target_abs_tol=1e-10)
# A scan's grid is read for signs, grid zeros and |f| minima only: it is
# evaluated at this target, and the values its decisions turn on again at
# _SCAN_SETTINGS (see scan_real_zeros).
_GRID_SETTINGS = EvalSettings(target_abs_tol=1e-6)
_PARTS = {Family.X: (Family.Y, Family.O)}  # a family certified on its parts, not on their sum
_MAX_PASSES = 8  # winding passes of a rectangle count, each with twice the samples of the one before

_DEFAULT_STEP = 0.05
_TOUCH_TOL = 1e-6
_BRACKET_WIDTH = 1e-10
_GRID_ZERO_TOL = 1e-9
_POLE_AT_ONE = (Family.Z, Family.HURWITZ, Family.RIEMANN)  # the families with a pole at s = 1


@dataclass(frozen=True)
class ZeroRecord:
    """One located real zero (or |f| touch point) of a family section."""

    location: float
    multiplicity_class: str
    bracket: Tuple[float, float]
    residual: float


@dataclass(frozen=True)
class BetaCurvePoint:
    """The extra real zero of Z or P at shift a, with its asymptotic prediction."""

    a: float
    family: Family
    beta: float
    asymptotic_prediction: float
    deviation: float


@dataclass(frozen=True)
class RectangleCount:
    """Argument-principle zero count inside an axis-aligned rectangle."""

    corners: Tuple[complex, complex]
    count: int
    boundary_min_abs: float
    samples_used: int
    winding_error: float


def _interpolate(points, a: float, b: float, fa: float, fb: float) -> float:
    """The estimate of a bracket [a, b]'s zero from its latest points,
    oldest first: inverse quadratic interpolation through the last three,
    else the secant through the last two, whichever first lies inside (a, b),
    else regula falsi between the ends.  A denominator that is 0 or a value
    that overflows fails the inside test, so nothing raises."""
    (x0, f0), (x1, f1) = points[-1], points[-2]
    if len(points) > 2:
        x2, f2 = points[-3]
        d1, d2 = (f1 - f0) * (f1 - f2), (f2 - f0) * (f2 - f1)
        if d1 != 0.0 and d2 != 0.0:
            x = x0 + (x1 - x0) * (f0 * f2 / d1) + (x2 - x0) * (f0 * f1 / d2)
            if a < x < b:
                return x
    if f0 != f1:
        x = x0 + (x1 - x0) * (f0 / (f0 - f1))
        if a < x < b:
            return x
    return (a * fb - b * fa) / (fb - fa)


def _bisect(
    f: Callable[[np.ndarray], np.ndarray], lo, hi, flo, fhi, width: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Refine the sign brackets [lo, hi], with f(lo) = flo and f(hi) = fhi,
    until each is at most width wide; a point where f is exactly 0 ends its
    bracket as x -/+ width/4.  Each step evaluates one new point of every
    wider bracket in one call of f; the ends themselves are never evaluated.

    The estimate is inverse quadratic interpolation through the bracket's
    three latest points, with the secant and then regula falsi as fallbacks
    inside the bracket (``_interpolate``; Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4).  The first step, from the ends alone,
    is regula falsi truncated toward the midpoint by 0.05 w0, ITP's kappa1 =
    0.05/w0 and kappa2 = 2 (Oliveira & Takahashi, ACM TOMS 47(1), 2020).
    Every estimate is projected, as in ITP with n0 = 1, into the radius about
    the midpoint that finishes a bracket of width w0 within
    ceil(log2(w0/width)) + 1 steps, one more than bisection, and then kept
    width/4 inside its bracket.  So an estimate within width/4 of an end is
    placed width/4 from it, which closes the bracket once that end is within
    width/4 of the zero, and no point lands on an end in floating point.
    """
    # Python floats: beta refines a single bracket, and numpy bookkeeping of
    # the brackets made beta_zero 12-18% slower
    lo, hi, flo, fhi = (np.array(x, dtype=float, ndmin=1).tolist() for x in (lo, hi, flo, fhi))
    live = [k for k in range(len(lo)) if hi[k] - lo[k] > width]
    # ITP's radius eps 2^(n_max - j) at step j = 0; 2 eps is the width less
    # the rounding of a step's points, which would cost an extra step
    radius = {
        k: (width - 4.0 * math.ulp(max(abs(lo[k]), abs(hi[k]))))
        * 2.0 ** math.ceil(math.log2((hi[k] - lo[k]) / width))
        for k in live
    }
    points = {k: [(lo[k], flo[k]), (hi[k], fhi[k])] for k in live}  # each bracket's last three, oldest first
    first = True
    while live:
        xs = []
        for k in live:
            a, b = lo[k], hi[k]
            mid = 0.5 * (a + b)
            x = _interpolate(points[k], a, b, flo[k], fhi[k])
            sigma = (mid > x) - (mid < x)
            if first:
                delta = 0.05 * (b - a)
                x = x + sigma * delta if delta <= abs(mid - x) else mid
            r = radius[k] - 0.5 * (b - a)
            x = x if abs(x - mid) <= r else mid - sigma * r
            radius[k] *= 0.5
            xs.append(min(max(x, a + 0.25 * width), b - 0.25 * width))
        first = False
        for k, x, fx in zip(live, xs, f(np.array(xs)).tolist()):
            points[k] = points[k][-2:] + [(x, fx)]
            if fx == 0.0:
                lo[k], hi[k] = x - 0.25 * width, x + 0.25 * width
            elif (fx < 0.0) == (flo[k] < 0.0):
                lo[k], flo[k] = x, fx
            else:
                hi[k], fhi[k] = x, fx
        live = [k for k in live if hi[k] - lo[k] > width]
    return np.array(lo), np.array(hi)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN = 1.0 - _INVPHI  # a golden-section step's share of the larger side


def _refine_touch(g: Callable[[np.ndarray], np.ndarray], lo, hi, width: float) -> np.ndarray:
    """Minima of g = |f| on the brackets [lo, hi], refined until each is at
    most width wide: the brackets' midpoints.  Each step evaluates one new
    point of every wider bracket in one call of g.

    Brent's local minimiser (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5).  The first call evaluates both golden-section
    points, as golden section does.  After it, a step goes to the vertex of
    the parabola through the three best points when the vertex lies inside
    the bracket and moves less than half the step before last, and is a
    golden-section step into the larger side otherwise: parabolic steps that
    stop converging give way to golden section.  No step is shorter than
    width/4, so a converged parabola is closed in from both sides.
    """
    a, b = (np.array(x, dtype=float, ndmin=1).tolist() for x in (lo, hi))
    live = [k for k in range(len(a)) if b[k] - a[k] > width]
    tol = 0.25 * width
    c = [b[k] - _INVPHI * (b[k] - a[k]) for k in live]
    d = [a[k] + _INVPHI * (b[k] - a[k]) for k in live]
    values = g(np.array(c + d)).tolist()
    # per bracket: the best point x, the two before it w and v, their values,
    # and the last two steps (step, before)
    x, w, fx, fw, step, before = {}, {}, {}, {}, {}, {}
    for k, ck, dk, gc, gd in zip(live, c, d, values, values[len(live):]):
        if gc < gd:
            b[k], x[k], fx[k], w[k], fw[k] = dk, ck, gc, dk, gd
        else:
            a[k], x[k], fx[k], w[k], fw[k] = ck, dk, gd, ck, gc
        step[k] = before[k] = 0.0
    v, fv = dict(w), dict(fw)
    live = [k for k in live if b[k] - a[k] > width]
    while live:
        us = []
        for k in live:
            xk, mid = x[k], 0.5 * (a[k] + b[k])
            golden = True
            if abs(before[k]) > tol:
                r = (xk - w[k]) * (fx[k] - fv[k])
                q = (xk - v[k]) * (fx[k] - fw[k])
                p = (xk - v[k]) * q - (xk - w[k]) * r
                q = 2.0 * (q - r)
                p, q = (-p, q) if q > 0.0 else (p, -q)
                if abs(p) < abs(0.5 * q * before[k]) and q * (a[k] - xk) < p < q * (b[k] - xk):
                    golden = False
                    before[k], step[k] = step[k], p / q
                    if xk + step[k] - a[k] < 2.0 * tol or b[k] - xk - step[k] < 2.0 * tol:
                        step[k] = math.copysign(tol, mid - xk)
            if golden:
                before[k] = (a[k] if xk >= mid else b[k]) - xk
                step[k] = _GOLDEN * before[k]
            us.append(xk + (step[k] if abs(step[k]) >= tol else math.copysign(tol, step[k])))
        for k, u, fu in zip(live, us, g(np.array(us)).tolist()):
            if fu <= fx[k]:
                if u >= x[k]:
                    a[k] = x[k]
                else:
                    b[k] = x[k]
                v[k], fv[k], w[k], fw[k], x[k], fx[k] = w[k], fw[k], x[k], fx[k], u, fu
            else:
                if u < x[k]:
                    a[k] = u
                else:
                    b[k] = u
                if fu <= fw[k] or w[k] == x[k]:
                    v[k], fv[k], w[k], fw[k] = w[k], fw[k], u, fu
                elif fu <= fv[k] or v[k] == x[k] or v[k] == w[k]:
                    v[k], fv[k] = u, fu
        live = [k for k in live if b[k] - a[k] > width]
    return 0.5 * (np.array(a) + np.array(b))


def _require_isolated_zeros(fam: Family, alpha: Alpha) -> None:
    # Y, O and X flip sign under a -> 1 - a, so at a = 1/2 they vanish identically (eval_family's test)
    if fam.odd_symmetric and alpha.value == 0.5:
        raise DomainError(
            f"{fam.value}(s, 1/2) = 0 for every s, since {fam.value}(s, a) = -{fam.value}(s, 1 - a); "
            "it has no zeros to scan or count"
        )


def scan_real_zeros(
    fam: Family,
    a: AlphaLike,
    lo: float,
    hi: float,
    step: float = _DEFAULT_STEP,
) -> List[ZeroRecord]:
    """Scan [lo, hi] for real zeros of the family section.

    One path for every family: the section is Re f wherever f is real on the
    axis, and |f| for the periodic zeta at a != 1/2, whose zeros are then even
    touches.  At a = 1/2 the periodic zeta Li_s(-1) = -eta(s) is real, and its
    zeros at -2, -4, ... are simple sign changes.  A grid value below
    _GRID_ZERO_TOL is a zero, simple if f changes sign from step/4 to its
    left to step/4 to its right.  Sign changes are refined by ``_bisect``
    (interpolation inside ITP's projection, from the grid values at both
    ends, or from that probe at an end on a grid zero; about 5 kernel calls
    for all of them) to brackets at most 1e-10 wide, and reported as simple
    at their midpoints; local |f| minima with no sign change on either side
    are refined by Brent's minimiser to 1e-8 and reported as even touches if
    |f| there is below _TOUCH_TOL (this is what catches double zeros).  The
    three exclude each other, so nothing is merged; two zeros within one grid
    interval show as one even touch at most.

    The grid is read for signs, grid zeros and |f| minima only, so it is
    evaluated at _GRID_SETTINGS' 1e-6, where a point's value v is certified
    to e = 1e-6 max(1, |v|) (for X, the sum of that bound over its Y and O
    parts).  One call at _SCAN_SETTINGS then reads again every grid value a
    decision turns on: both ends of each sign change, each point with
    |v| <= 2e + _GRID_ZERO_TOL with its neighbours and its step/4 probes,
    and both points of each neighbouring pair whose |v| differ by at most
    2(e_i + e_j).  The margin 2e covers the 1e-10 value's own bound too, so
    every decision is the one the grid at 1e-10 would make, and every value
    refined from or reported is a 1e-10 value.

    A reported location is within its bracket of a zero of the *computed*
    section, evaluated at the zero layer's fixed 1e-10 (_SCAN_SETTINGS): the
    true zero can be up to about 1e-10/|f'| away.  Z'(-12, 0.250124) =
    -1.1e-4, and the scan of Z over [-16.0596, 0.8663] there reports
    -12.0000000329 for -12: the computed section is rounding noise, within
    1.3e-11 of 0, over about 1e-7 there, and which of its sign changes the
    refinement closes in on depends on its steps.

    An interval containing the s = 1 pole (Z, Hurwitz, Riemann) is scanned
    as [lo, 1 - gap] and [1 + gap, hi], gap = max(step/4, 1e-6), with a
    warning: each side that is not empty has its own grid and is classified
    on its own, the two sides share every kernel call, and an interval
    inside the gap reports nothing.  An endpoint on the pole raises
    PoleError.  Y, O and X at a = 1/2 vanish identically and raise
    DomainError.
    """
    if not lo < hi:
        raise DomainError("need lo < hi")
    if not step > 0.0:
        raise DomainError("need step > 0")
    if not (hi - lo) / step <= MAX_GRID_POINTS - 1:
        raise DomainError(f"scan grid over [{lo}, {hi}] with step {step} has more than {MAX_GRID_POINTS} points")
    alpha = Alpha.coerce(a)
    _require_isolated_zeros(fam, alpha)

    has_pole = fam in _POLE_AT_ONE
    sides = [(lo, hi)]
    if has_pole and lo < 1.0 < hi:
        warnings.warn(
            f"scan interval [{lo}, {hi}] contains the s = 1 pole; splitting around it",
            UserWarning,
            stacklevel=2,
        )
        gap = max(step / 4.0, 1e-6)
        sides = [side for side in ((lo, 1.0 - gap), (1.0 + gap, hi)) if side[0] < side[1]]
    elif has_pole and (lo == 1.0 or hi == 1.0):
        raise PoleError("scan endpoint sits on the s = 1 pole", 1.0 + 0.0j)
    if not sides:
        return []

    complex_section = fam is Family.PERIODIC and alpha.value != 0.5

    def section(values: np.ndarray) -> np.ndarray:
        # Re f, or |f| where f is complex on the axis: one path, the zeros of |f| even touches
        return np.abs(values) if complex_section else values.real

    def f(x: np.ndarray) -> np.ndarray:
        if not x.size:
            return x
        return section(eval_family(fam, x, alpha, _SCAN_SETTINGS))

    grids = []
    for side_lo, side_hi in sides:
        n = max(2, int(round((side_hi - side_lo) / step)) + 1)
        grids.append([side_lo + (side_hi - side_lo) * i / (n - 1) for i in range(n)])
    xs = np.array([x for grid in grids for x in grid])
    # pairs[i]: the grid interval (i, i + 1) lies on one side, so that nothing pairs the sides
    pairs = np.ones(xs.size - 1, dtype=bool)
    if len(grids) == 2:
        pairs[len(grids[0]) - 1] = False
    inner = np.zeros(xs.size, dtype=bool)  # the points with a neighbour on either side on their own side
    inner[1:-1] = pairs[:-1] & pairs[1:]

    # the loose grid in one call, or in one per part for X, which is certified on its Y and O parts
    parts = [eval_family(part, xs, alpha, _GRID_SETTINGS) for part in _PARTS.get(fam, (fam,))]
    loose = section(sum(parts))
    bound = _GRID_SETTINGS.target_abs_tol * sum(np.maximum(1.0, np.abs(part)) for part in parts)
    loose_mags = np.abs(loose)
    # its sign, or whether it is a grid zero, is open (and so is all of a value that is not finite)
    near = ~(loose_mags > 2.0 * bound + _GRID_ZERO_TOL)
    # a pair whose sign change, or the order of whose |f|, is open: both its ends are read
    both = pairs & (near[:-1] | near[1:] | (loose[:-1] * loose[1:] < 0.0)
                    | (np.abs(np.diff(loose_mags)) <= 2.0 * (bound[:-1] + bound[1:])))
    read = near.copy()
    read[:-1] |= both
    read[1:] |= both

    # the values read at 1e-10 and the step/4 probes of every point that may be a grid zero, in one call
    idx, maybe = np.flatnonzero(read), np.flatnonzero(near)
    tight = f(np.concatenate((xs[idx], xs[maybe] - 0.25 * step, xs[maybe] + 0.25 * step)))
    vals = loose.copy()
    vals[idx] = tight[:idx.size]
    mags = np.abs(vals)
    small = mags < _GRID_ZERO_TOL  # a grid value this small has no sign
    crossed = pairs & (vals[:-1] * vals[1:] < 0.0)

    # a grid point on a zero is classified by f a quarter step to either side
    at = np.flatnonzero(small)
    left, right = tight[idx.size:].reshape(2, -1)[:, small[maybe]]
    simple = (left == 0.0) | (right == 0.0) | ((left < 0.0) != (right < 0.0))
    records = [
        ZeroRecord(x0, SIMPLE if is_simple else EVEN_TOUCH, (x0 - 0.5 * step, x0 + 0.5 * step), resid)
        for x0, is_simple, resid in zip(xs[at].tolist(), simple.tolist(), mags[at].tolist())
    ]

    # Sign changes are refined between the ends of each grid interval: its
    # grid points, or a grid zero's probe a quarter step inside the interval,
    # so that a second zero beside a grid zero is found.  A local |f| minimum
    # is refined as a candidate touch only with no sign change on either
    # side: next to one, the refined sign change is the zero.  Right of the
    # pole every Dirichlet term (n + a)^-s of Z, Hurwitz and Riemann is
    # positive and the first is at least 1, so |f| > 1 there, a minimum can
    # never be a touch, and none is refined.
    lx, lf = xs.copy(), vals.copy()  # each grid point as an interval's left end
    rx, rf = xs.copy(), vals.copy()  # and as its right end
    lx[at] += 0.25 * step
    rx[at] -= 0.25 * step
    lf[at], rf[at] = right, left
    signs = np.flatnonzero(pairs & (lf[:-1] * rf[1:] < 0.0))
    dip = inner & ~small
    dip[1:-1] &= ~crossed[:-1] & ~crossed[1:] & (mags[1:-1] < mags[:-2]) & (mags[1:-1] <= mags[2:])
    if has_pole:
        dip &= xs < 1.0
    dips = np.flatnonzero(dip)
    blo, bhi = _bisect(f, lx[signs], rx[signs + 1], lf[signs], rf[signs + 1], _BRACKET_WIDTH)
    touches = _refine_touch(lambda x: np.abs(f(x)), xs[dips - 1], xs[dips + 1], 1e-8)
    locs = np.concatenate((0.5 * (blo + bhi), touches))
    resids = np.abs(f(locs)).tolist()
    brackets = zip(np.concatenate((blo, xs[dips - 1])).tolist(), np.concatenate((bhi, xs[dips + 1])).tolist())
    kinds = [SIMPLE] * signs.size + [EVEN_TOUCH] * dips.size
    records += [
        ZeroRecord(loc, kind, bracket, resid)
        for kind, loc, bracket, resid in zip(kinds, locs.tolist(), brackets, resids)
        if kind == SIMPLE or resid < _TOUCH_TOL
    ]
    return sorted(records, key=lambda rec: rec.location)


# ---------------------------------------------------------------------------
# The extra real zero beta_P(a) / beta_Z(a) for 0 < a < 1/4.

def monotone_kernel(sigma: float, a: AlphaLike) -> float:
    """alpha^{-sigma} Gamma(sigma) P(sigma, a) with alpha = -log cos 2 pi a,
    P evaluated at the zero layer's fixed 1e-10 (_SCAN_SETTINGS).

    Strictly increasing in sigma > 0 for 0 < a <= 1/4, which is what makes
    the sign-change search for beta_P rigorous rather than heuristic.
    """
    alpha = Alpha.coerce(a)
    if not 0.0 < alpha.value <= 0.25:
        raise DomainError("monotone kernel needs 0 < a <= 1/4")
    if sigma <= 0.0:
        raise DomainError("monotone kernel needs sigma > 0")
    c = -math.log(math.cos(2.0 * math.pi * alpha.value))
    p = float(eval_family(Family.P, np.array([sigma], dtype=complex), alpha, _SCAN_SETTINGS)[0].real)
    return math.exp(-sigma * math.log(c)) * gamma(complex(sigma, 0.0)).real * p


def asymptotic_prediction(fam: Family, a: AlphaLike) -> float:
    """Main terms of the beta asymptotics (no error term).

    Small a (a < 1/6):   beta_Z ~ 1 - 2a + 4a^2 log a,  beta_P ~ 2a - 4a^2 log a.
    a -> 1/4 (a > 1/6):  beta_P ~ -log(cos 2 pi a)/log 2,
                         beta_Z ~ 1 + log(cos 2 pi a)/log 2.

    The a^2 log a coefficient is 4, not 2: expanding a^beta = a e^{(beta-1) log a}
    with beta - 1 = -2a + ... in beta - 1 = -2 a^beta makes the cross term
    -2 (beta-1) a log a = +4 a^2 log a, and 50-digit bisection confirms the
    residual is O(a^2) only with this constant.
    """
    alpha = Alpha.coerce(a)
    av = alpha.value
    if fam not in (Family.Z, Family.P):
        raise DomainError("asymptotic predictions exist for Z and P only")
    if not 0.0 < av < 0.25:
        raise DomainError("asymptotic predictions cover 0 < a < 1/4")
    if av <= 1.0 / 6.0:
        beta_p = 2.0 * av - 4.0 * av * av * math.log(av)
    else:
        beta_p = -math.log(math.cos(2.0 * math.pi * av)) / math.log(2.0)
    return beta_p if fam is Family.P else 1.0 - beta_p


def beta_zero(fam: Family, a: AlphaLike) -> BetaCurvePoint:
    """Locate beta_P(a) as the sign change of the monotone kernel and return
    the requested family's curve point (beta_Z = 1 - beta_P).

    The bracket is (0, 1) for a < 1/6, with the ends' values P(0+, a) = -1 and
    the closed form P(1, a) = -2 log(2 sin pi a) > 0 (``special_values``), and
    for a > 1/6 the first [2^k, 2^(k+1)] from [1, 2] up whose upper end is
    positive, with P at 1 and 2 taken in one call.  ``_bisect`` refines it to
    1e-10 from the ends' values, one point a call: inverse quadratic
    interpolation inside ITP's projection, 5-7 calls at a = 0.01-0.24 where
    ITP took 8-9.  P is evaluated at the zero layer's fixed 1e-10
    (_SCAN_SETTINGS).

    a = 1/6 exactly returns the boundary values beta_P = 1, beta_Z = 0.
    """
    if fam not in (Family.Z, Family.P):
        raise DomainError("beta curves exist for Z and P only")
    alpha = Alpha.coerce(a)
    av = alpha.value
    if not 0.0 < av < 0.25:
        raise DomainError("beta zero defined for 0 < a < 1/4")

    if alpha.exact == (1, 6):
        beta_p = 1.0
    else:
        # sign(kernel) = sign(P) for sigma > 0 since alpha^{-sigma} Gamma > 0
        def f(sigma) -> np.ndarray:
            return eval_family(Family.P, np.atleast_1d(sigma), alpha, _SCAN_SETTINGS).real

        if av < 1.0 / 6.0:
            lo, hi = 1e-12, 1.0
            flo = -1.0  # P -> -1 at sigma = 0+
            fhi = special_values(alpha).p_at_1.real
        else:
            lo, hi = 1.0, 2.0
            flo, fhi = f(np.array([lo, hi])).tolist()
            while fhi <= 0.0:
                lo, flo = hi, fhi
                hi *= 2.0
                if hi > 2.0**40:
                    raise ConvergenceError("no sign change found for beta_P bracket")
                (fhi,) = f(hi)
        blo, bhi = _bisect(f, lo, hi, flo, fhi, _BRACKET_WIDTH)
        beta_p = float(0.5 * (blo[0] + bhi[0]))

    beta = beta_p if fam is Family.P else 1.0 - beta_p
    pred = asymptotic_prediction(fam, alpha)
    return BetaCurvePoint(a=av, family=fam, beta=beta, asymptotic_prediction=pred, deviation=abs(beta - pred))


# ---------------------------------------------------------------------------
# Bernoulli-sign interval criterion for real zeros of zeta(s, a).

def interval_zero_criterion(a: AlphaLike, n: int) -> bool:
    """Does zeta(sigma, a) have a real zero in the open interval (-n-1, -n)?

    Decided by the sign product B_{n+1}(a) B_{n+2}(a) < 0 in exact rational
    arithmetic, at r/q for an exact a and at the float's own binary value
    otherwise, so a zero of B_n at a = 1/4, 1/2 or 3/4 is exactly zero
    whichever way a is given.  The criterion covers n >= -1: the endpoint
    values are zeta(-m, a) = -B_{m+1}(a)/(m+1), with n = -1 giving (0, 1)
    where B_0 = 1 stands in for the sign of the pole limit at 1-.  For
    n <= -2 the interval lies in sigma > 1 where the series is positive, so
    the answer is False.
    """
    alpha = Alpha.coerce(a)
    if n <= -2:
        return False
    if n + 2 > 60:
        raise UnsupportedError("Bernoulli table covers indices up to 60")
    x = Fraction(*alpha.exact) if alpha.exact else Fraction(alpha.value)
    return bernoulli_poly_exact(n + 1, x) * bernoulli_poly_exact(n + 2, x) < 0


# ---------------------------------------------------------------------------
# Argument-principle zero counting.

_BOUNDARY_MIN_ABS = 1e-6
_POLE_CLEARANCE = 1e-2
_MAX_REFINE_DEPTH = 40


def _rectangle_edges(c0: complex, c1: complex, samples: int) -> List[Tuple[complex, complex, int]]:
    """Counterclockwise edges (start, end, segments), corner to corner, with
    about ``samples`` segments in all, rounded up on each edge."""
    x0, x1 = min(c0.real, c1.real), max(c0.real, c1.real)
    y0, y1 = min(c0.imag, c1.imag), max(c0.imag, c1.imag)
    width, height = x1 - x0, y1 - y0
    per_unit = samples / max(2.0 * (width + height), 1e-12)
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1), complex(x0, y0)]
    return [
        (start, end, max(2, int(math.ceil(abs(end - start) * per_unit))))
        for start, end in zip(corners[:-1], corners[1:])
    ]


def _winding_pass(
    f: Callable[[np.ndarray], np.ndarray], segments: Tuple[np.ndarray, ...], k: int
) -> Tuple[float, Tuple[np.ndarray, ...]]:
    """(total argument / 2pi, segments) of pass ``k`` over the closed boundary,
    given as one unordered list of ``segments``: arrays (start, end,
    f(start), f(end), depth) with one entry per segment.

    Halves every segment whose depth is below k, then every segment whose
    argument increment exceeds pi/2, until none does.  Each round evaluates
    the midpoints of the segments it halves in one call of ``f``, which maps
    an array of points to their values.  A segment left whole keeps its
    increment, which depends on its two end values alone.
    """
    za, zb, fa, fb, depth = segments
    while True:
        d_arg = np.angle(fb / fa)
        halve = (depth < k) | (np.abs(d_arg) > 0.5 * math.pi)
        if not halve.any():
            return float(d_arg.sum()) / (2.0 * math.pi), (za, zb, fa, fb, depth)
        keep = ~halve
        zm = 0.5 * (za[halve] + zb[halve])
        fm = f(zm)
        za, zb = np.concatenate((za[keep], za[halve], zm)), np.concatenate((zb[keep], zm, zb[halve]))
        fa, fb = np.concatenate((fa[keep], fa[halve], fm)), np.concatenate((fb[keep], fm, fb[halve]))
        depth = np.concatenate((depth[keep], depth[halve] + 1, depth[halve] + 1))
        if depth.max() >= k + _MAX_REFINE_DEPTH:
            raise BoundaryError("argument increment will not settle; a zero is too close to the boundary")


def count_zeros_rectangle(
    fam: Family,
    a: AlphaLike,
    corners: Tuple[complex, complex],
    initial_samples: int = 64,
) -> RectangleCount:
    """Count zeros of the family inside a rectangle by boundary winding number.

    The boundary is one unordered list of segments, each held with its two
    end values and its depth, the number of halvings that made it.  The
    first pass starts from the closed path of about ``initial_samples``
    segments (64 by default, and at least 64).  Pass k, counted from 0,
    halves every segment of depth below k, then every segment whose argument
    increment exceeds pi/2, until none does; a segment settled in an earlier
    pass stays as it is, so every point is evaluated once.  The count is
    returned once two consecutive passes give the same integer, in at most
    _MAX_PASSES passes.  The principal increments around a closed path sum to
    a multiple of 2 pi, so ``winding_error``, the distance of the winding
    number from that integer, reports rounding only.

    The first kernel call evaluates the path and the midpoints of all its
    segments together: pass 1's first round halves every path segment, and
    pass 0's first round halves some of them.  So a count that settles in
    passes 0 and 1 with no further halving round makes one call.  A point's
    bits do not depend on its block, so every result is that of one call per
    round.  The path's values are checked first, pass 0's min |f| refusal
    included, and a midpoint's only when a pass reads it.

    Boundaries closer than 1e-6 in |f| (or rectangles within 0.01 of the Z
    pole at s = 1) are rejected, and so, before anything is evaluated, are
    initial samples whose last pass would exceed MAX_GRID_POINTS.  A value
    that is not finite raises DomainError, and a zero BoundaryError, as soon
    as a pass reads it.  ``samples_used`` is the number of segments of the
    last pass, which is the number of points evaluated: a closed path has as
    many points as segments.  Values are evaluated at the zero layer's fixed
    1e-10 (_SCAN_SETTINGS).  Y, O and X at a = 1/2 vanish identically and
    raise DomainError.
    """
    alpha = Alpha.coerce(a)
    _require_isolated_zeros(fam, alpha)
    c0, c1 = require_finite(corners[0]), require_finite(corners[1])
    x0, x1 = min(c0.real, c1.real), max(c0.real, c1.real)
    y0, y1 = min(c0.imag, c1.imag), max(c0.imag, c1.imag)
    if x0 == x1 or y0 == y1:
        raise DomainError("rectangle is degenerate")
    if fam in _POLE_AT_ONE:
        if x0 - _POLE_CLEARANCE <= 1.0 <= x1 + _POLE_CLEARANCE and y0 - _POLE_CLEARANCE <= 0.0 <= y1 + _POLE_CLEARANCE:
            raise DomainError("rectangle must keep distance >= 0.01 from the pole at s = 1")

    samples = max(int(initial_samples), 64)
    too_many = f"{initial_samples} initial samples would sample more than {MAX_GRID_POINTS} boundary points"
    # the path has at least `samples` segments, so a larger request is refused
    # before its edges are sized (and before a huge int meets float arithmetic)
    if samples > MAX_GRID_POINTS:
        raise DomainError(too_many)
    edges = _rectangle_edges(c0, c1, samples)
    if (sum(n for *_, n in edges) << (_MAX_PASSES - 1)) + 1 > MAX_GRID_POINTS:
        raise DomainError(too_many)

    def checked(s: np.ndarray, values: np.ndarray) -> np.ndarray:
        finite = np.isfinite(values)
        if not finite.all():
            # a NaN increment never settles, so its segments would halve to _MAX_REFINE_DEPTH
            raise DomainError(f"{fam.value}(s, {alpha}) is not finite at s = {s[~finite][0]}")
        if (values == 0.0).any():
            raise BoundaryError("zero on the rectangle boundary; reposition the rectangle")
        return values

    za = np.array([start + (end - start) * i / n for start, end, n in edges for i in range(n)])
    # the path and the midpoints of its segments, the points of pass 1's first round, in one call
    zb = np.roll(za, -1)
    zm = 0.5 * (za + zb)
    values = eval_family(fam, np.concatenate((za, zm)), alpha, _SCAN_SETTINGS)
    fa = checked(za, values[:za.size])
    prefetched = dict(zip(zm.tolist(), values[za.size:].tolist()))

    def f(s: np.ndarray) -> np.ndarray:
        # a round of midpoints reads them from the first call, and is checked as it reads them
        keys = s.tolist()
        if all(z in prefetched for z in keys):
            return checked(s, np.array([prefetched[z] for z in keys], dtype=complex))
        return checked(s, eval_family(fam, s, alpha, _SCAN_SETTINGS))

    segments = (za, zb, fa, np.roll(fa, -1), np.zeros(za.size, dtype=int))
    prev_count: Optional[int] = None
    for k in range(_MAX_PASSES):
        winding, segments = _winding_pass(f, segments, k)
        min_abs = float(np.abs(segments[2]).min())  # every point starts one segment
        if min_abs < _BOUNDARY_MIN_ABS:
            raise BoundaryError(
                f"min |f| on the boundary is {min_abs:.3g} < {_BOUNDARY_MIN_ABS}; reposition the rectangle"
            )
        nearest = round(winding)
        if nearest == prev_count:
            return RectangleCount(
                corners=(complex(x0, y0), complex(x1, y1)),
                count=nearest,
                boundary_min_abs=min_abs,
                samples_used=segments[0].size,
                winding_error=abs(winding - nearest),
            )
        prev_count = nearest
    raise ConvergenceError("winding number did not stabilize under sample doubling")
