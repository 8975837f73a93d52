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
from .families import eval_family
from .special import bernoulli_poly, bernoulli_poly_exact, gamma

SIMPLE = "simple-sign-change"
EVEN_TOUCH = "even-touch"

# Absolute tolerance the family kernels certify for every evaluation of the
# zero layer: scan grids and brackets, beta brackets and rectangle boundaries.
_SCAN_SETTINGS = EvalSettings(target_abs_tol=1e-10)
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


def _bisect(
    f: Callable[[np.ndarray], np.ndarray], lo, hi, flo, fhi, width: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Refine the sign brackets [lo, hi], with f(lo) = flo and f(hi) = fhi,
    until each is at most width wide; a point where f is exactly 0 ends its
    bracket as x -/+ width/4.  Each step evaluates one new point of every
    wider bracket in one call of f; the ends themselves are never evaluated.

    The step is ITP (interpolate, truncate, project: Oliveira & Takahashi,
    ACM TOMS 47(1), 2020) with kappa1 = 0.2/w0, kappa2 = 2 and n0 = 1: the
    regula-falsi point, nudged toward the midpoint and projected into the
    radius that finishes a bracket of width w0 within ceil(log2(w0/width)) + 1
    steps, one more than bisection.  Each point is then kept width/4 inside
    its bracket: in floating point the regula-falsi point can land on the
    computed root step after step, and the clamp, which moves it toward the
    midpoint, keeps the bound.  A NaN fhi (an end not evaluated) makes the
    step the midpoint until that end has moved.
    """
    # Python floats: beta refines a single bracket, and numpy bookkeeping of
    # the brackets made beta_zero 12-18% slower
    lo, hi, flo, fhi = (np.array(x, dtype=float, ndmin=1).tolist() for x in (lo, hi, flo, fhi))
    live = [k for k in range(len(lo)) if hi[k] - lo[k] > width]
    # ITP's kappa1 and its radius eps 2^(n_max - j) at step j = 0; 2 eps is the
    # width less the rounding of a step's points, which would cost an extra step
    kappa1 = {k: 0.2 / (hi[k] - lo[k]) for k in live}
    radius = {
        k: (width - 4.0 * math.ulp(max(abs(lo[k]), abs(hi[k]))))
        * 2.0 ** math.ceil(math.log2((hi[k] - lo[k]) / width))
        for k in live
    }
    while live:
        xs = []
        for k in live:
            a, b, fa, fb = lo[k], hi[k], flo[k], fhi[k]
            x = mid = 0.5 * (a + b)
            if not math.isnan(fb):
                xf = (a * fb - b * fa) / (fb - fa)
                sigma = (mid > xf) - (mid < xf)
                delta = kappa1[k] * (b - a) ** 2
                xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
                r = radius[k] - 0.5 * (b - a)
                x = xt if abs(xt - mid) <= r else mid - sigma * r
            radius[k] *= 0.5
            xs.append(min(max(x, a + 0.25 * width), b - 0.25 * width))
        for k, x, fx in zip(live, xs, f(np.array(xs)).tolist()):
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


def scan_real_zeros(
    fam: Family,
    a: AlphaLike,
    lo: float,
    hi: float,
    step: float = _DEFAULT_STEP,
    cfg: EvalSettings = _SCAN_SETTINGS,
) -> List[ZeroRecord]:
    """Scan [lo, hi] for real zeros of the family section.

    One path for every family: the section is Re f, or |f| for the complex
    periodic zeta, whose zeros are then even touches.  A grid value below
    _GRID_ZERO_TOL is a zero, simple if f changes sign from step/4 to its
    left to step/4 to its right.  Sign changes are refined (ITP, from the grid
    values at both ends, or from that probe at an end on a grid zero) to
    brackets narrower than 1e-10 and reported as simple; local |f| minima
    with no sign change on either side are refined by Brent's minimiser to
    1e-8 and reported as even touches if |f| there is below _TOUCH_TOL (this
    is what catches double zeros).  The three exclude each other, so nothing
    is merged; two zeros within one grid interval show as one even touch at
    most.

    A reported location is within its bracket of a zero of the *computed*
    section, whose values carry the cfg target (1e-10 by default): the true
    zero can be up to about target/|f'| away.  Z'(-10, 0.250124) = 4.8e-5, and
    the scan of Z over [-16.0596, 0.8663] there reports -9.99999999130 for -10.

    An interval containing the s = 1 pole (Z, Hurwitz, Riemann) is split
    around it and a warning is emitted.
    """
    if not lo < hi:
        raise DomainError("need lo < hi")
    if not step > 0.0:
        raise DomainError("need step > 0")
    if not (hi - lo) / step <= MAX_GRID_POINTS - 1:
        raise DomainError(f"scan grid over [{lo}, {hi}] with step {step} has more than {MAX_GRID_POINTS} points")
    alpha = Alpha.coerce(a)

    has_pole = fam in _POLE_AT_ONE
    if has_pole and lo < 1.0 < hi:
        warnings.warn(
            f"scan interval [{lo}, {hi}] contains the s = 1 pole; splitting around it",
            UserWarning,
            stacklevel=2,
        )
        gap = max(step / 4.0, 1e-6)
        below = scan_real_zeros(fam, alpha, lo, 1.0 - gap, step, cfg)
        return below + scan_real_zeros(fam, alpha, 1.0 + gap, hi, step, cfg)
    if has_pole and (lo == 1.0 or hi == 1.0):
        raise PoleError("scan endpoint sits on the s = 1 pole", 1.0 + 0.0j)

    def f(x: np.ndarray) -> np.ndarray:
        # Re f, or |f| for the complex periodic zeta: one path, its zeros even touches
        if not x.size:
            return x
        values = eval_family(fam, x, alpha, cfg)
        return np.abs(values) if fam is Family.PERIODIC else values.real

    n = max(2, int(round((hi - lo) / step)) + 1)
    xs = np.array([lo + (hi - lo) * i / (n - 1) for i in range(n)])
    vals = f(xs)  # the whole grid in one call
    mags = np.abs(vals)
    inner = mags[1:-1]
    small = mags < _GRID_ZERO_TOL  # a grid value this small has no sign
    crossed = vals[:-1] * vals[1:] < 0.0

    # a grid point on a zero is classified by f a quarter step to either side
    at = np.flatnonzero(small)
    left, right = f(np.concatenate((xs[at] - 0.25 * step, xs[at] + 0.25 * step))).reshape(2, -1)
    simple = (left == 0.0) | (right == 0.0) | ((left < 0.0) != (right < 0.0))
    records = [
        ZeroRecord(x0, SIMPLE if is_simple else EVEN_TOUCH, (x0 - 0.5 * step, x0 + 0.5 * step), resid)
        for x0, is_simple, resid in zip(xs[at].tolist(), simple.tolist(), mags[at].tolist())
    ]

    # Sign changes are refined between the ends of each grid interval: its
    # grid points, or a grid zero's probe a quarter step inside the interval,
    # so that a second zero beside a grid zero is found.  A local |f| minimum
    # is refined as a candidate touch only with no sign change on either
    # side: next to one, the refined sign change is the zero.
    lx, lf = xs.copy(), vals.copy()  # each grid point as an interval's left end
    rx, rf = xs.copy(), vals.copy()  # and as its right end
    lx[at] += 0.25 * step
    rx[at] -= 0.25 * step
    lf[at], rf[at] = right, left
    signs = np.flatnonzero(lf[:-1] * rf[1:] < 0.0)
    dips = 1 + np.flatnonzero(~small[1:-1] & ~crossed[:-1] & ~crossed[1:] & (inner < mags[:-2]) & (inner <= mags[2:]))
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

def monotone_kernel(sigma: float, a: AlphaLike, cfg: EvalSettings = _SCAN_SETTINGS) -> float:
    """alpha^{-sigma} Gamma(sigma) P(sigma, a) with alpha = -log cos 2 pi a.

    Strictly increasing in sigma > 0 for 0 < a <= 1/4, which is what makes
    the sign-change search for beta_P rigorous rather than heuristic.
    """
    alpha = Alpha.coerce(a)
    if not 0.0 < alpha.value <= 0.25:
        raise DomainError("monotone kernel needs 0 < a <= 1/4")
    if sigma <= 0.0:
        raise DomainError("monotone kernel needs sigma > 0")
    c = -math.log(math.cos(2.0 * math.pi * alpha.value))
    p = float(eval_family(Family.P, np.array([sigma], dtype=complex), alpha, cfg)[0].real)
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


def beta_zero(fam: Family, a: AlphaLike, cfg: EvalSettings = _SCAN_SETTINGS) -> BetaCurvePoint:
    """Locate beta_P(a) as the sign change of the monotone kernel and return
    the requested family's curve point (beta_Z = 1 - beta_P).

    The bracket is (0, 1) for a < 1/6, and for a > 1/6 the first [2^k, 2^(k+1)]
    from [1, 2] up whose upper end is positive.  ITP steps (``_bisect``) refine
    it to 1e-10 from the ends' values; P at the upper end 1 of the first
    bracket is not evaluated, so there the first step is the midpoint.

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
            return eval_family(Family.P, np.atleast_1d(sigma), alpha, cfg).real

        if av < 1.0 / 6.0:
            lo, hi = 1e-12, 1.0
            flo = -1.0  # P -> -1 at sigma = 0+
            fhi = math.nan  # not evaluated: the series for P(1, a) warns at small a
        else:
            lo, hi = 1.0, 2.0
            (flo,), (fhi,) = f(lo), f(hi)
            while fhi <= 0.0:
                lo, flo = hi, fhi
                hi *= 2.0
                if hi > 2.0**40:
                    raise ConvergenceError("no sign change found for beta_P bracket")
                (fhi,) = f(hi)
        blo, bhi = _bisect(f, lo, hi, flo, fhi, _BRACKET_WIDTH)
        beta_p = float(0.5 * (blo[0] + bhi[0]))

    beta = beta_p if fam is Family.P else 1.0 - beta_p
    try:
        pred = asymptotic_prediction(fam, alpha)
    except DomainError:
        pred = math.nan
    return BetaCurvePoint(a=av, family=fam, beta=beta, asymptotic_prediction=pred, deviation=abs(beta - pred))


# ---------------------------------------------------------------------------
# Bernoulli-sign interval criterion for real zeros of zeta(s, a).

def interval_zero_criterion(a: AlphaLike, n: int) -> bool:
    """Does zeta(sigma, a) have a real zero in the open interval (-n-1, -n)?

    Decided by the sign product B_{n+1}(a) B_{n+2}(a) < 0 (exact rational
    arithmetic when a is exact).  The criterion covers n >= -1: the endpoint
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
    if alpha.exact is not None:
        x = Fraction(*alpha.exact)
        prod_sign = bernoulli_poly_exact(n + 1, x) * bernoulli_poly_exact(n + 2, x)
        return prod_sign < 0
    return bernoulli_poly(n + 1, alpha.value) * bernoulli_poly(n + 2, alpha.value) < 0.0


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
    per_unit = max(samples, 8) / max(2.0 * (width + height), 1e-12)
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
    cfg: EvalSettings = _SCAN_SETTINGS,
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
    number from that integer, reports rounding only.  Boundaries closer than 1e-6 in |f| (or
    rectangles within 0.01 of the Z pole at s = 1) are rejected, and so,
    before anything is evaluated, are initial samples whose last pass would
    exceed MAX_GRID_POINTS.  A non-finite value raises DomainError as soon
    as it is evaluated.  ``samples_used`` is the number of segments of the
    last pass, which is the number of points evaluated: a closed path has as
    many points as segments.
    """
    alpha = Alpha.coerce(a)
    c0, c1 = require_finite(corners[0]), require_finite(corners[1])
    x0, x1 = min(c0.real, c1.real), max(c0.real, c1.real)
    y0, y1 = min(c0.imag, c1.imag), max(c0.imag, c1.imag)
    if x0 == x1 or y0 == y1:
        raise DomainError("rectangle is degenerate")
    if fam in _POLE_AT_ONE:
        if x0 - _POLE_CLEARANCE <= 1.0 <= x1 + _POLE_CLEARANCE and y0 - _POLE_CLEARANCE <= 0.0 <= y1 + _POLE_CLEARANCE:
            raise DomainError("rectangle must keep distance >= 0.01 from the pole at s = 1")

    samples = max(int(initial_samples), 64)
    # the path has at least `samples` segments, so a larger request is refused
    # before its edges are sized (and before a huge int meets float arithmetic)
    first = samples if samples > MAX_GRID_POINTS else sum(n for *_, n in _rectangle_edges(c0, c1, samples))
    if (first << (_MAX_PASSES - 1)) + 1 > MAX_GRID_POINTS:
        raise DomainError(
            f"{initial_samples} initial samples would sample more than {MAX_GRID_POINTS} boundary points"
        )

    def f(s: np.ndarray) -> np.ndarray:
        values = eval_family(fam, s, alpha, cfg)
        finite = np.isfinite(values)
        if not finite.all():
            # a NaN increment never settles, so its segments would halve to _MAX_REFINE_DEPTH
            raise DomainError(f"{fam.value}(s, {alpha}) is not finite at s = {s[~finite][0]}")
        if (values == 0.0).any():
            raise BoundaryError("zero on the rectangle boundary; reposition the rectangle")
        return values

    edges = _rectangle_edges(c0, c1, samples)
    za = np.array([start + (end - start) * i / n for start, end, n in edges for i in range(n)])
    fa = f(za)
    segments = (za, np.roll(za, -1), fa, np.roll(fa, -1), np.zeros(za.size, dtype=int))
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
