"""Double-precision special functions: Bernoulli polynomials, complex gamma by
Stirling's series, Riemann/Hurwitz zeta via Euler-Maclaurin, and the periodic zeta.

All evaluation is pure and reentrant; the Bernoulli tables, which give Stirling's
series and the Euler-Maclaurin corrections their coefficients, are built once at
import time and never mutated.  The public zeta functions take a number or an
array of points; the kernels below them take 1-D arrays only.  Euler-Maclaurin
work and the periodic series run in blocks of points, and a single number is a
block of one; every sum runs along one point's own row, so a point gets the same
bits alone as in any block.  Powers of positive real bases always use the
principal real logarithm, so no branch cut is ever crossed.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .core import (
    DEFAULT_SETTINGS,
    AccuracyWarning,
    Alpha,
    AlphaLike,
    DomainError,
    EvalSettings,
    PoleError,
    UnsupportedError,
    as_points,
    from_points,
    require_finite,
)

_TWO_PI = 2.0 * math.pi
_LOG_TWO_PI = math.log(_TWO_PI)
_LOG_DBL_MAX = math.log(sys.float_info.max)
_LOG_DBL_MIN = math.log(sys.float_info.min)

BERNOULLI_MAX_INDEX = 60


def _build_bernoulli_numbers(n_max: int) -> Tuple[Fraction, ...]:
    # Akiyama-Tanigawa gives B_m with the B_1 = +1/2 convention; we flip to
    # B_1 = -1/2 so that B_n(x) = sum C(n,k) B_k x^{n-k} yields B_1(x) = x - 1/2.
    acc = [Fraction(0)] * (n_max + 1)
    out: List[Fraction] = []
    for m in range(n_max + 1):
        acc[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            acc[j - 1] = j * (acc[j - 1] - acc[j])
        out.append(acc[0])
    out[1] = -out[1]
    return tuple(out)


BERNOULLI_NUMBERS: Tuple[Fraction, ...] = _build_bernoulli_numbers(BERNOULLI_MAX_INDEX)

# B_{2k} / (2k)! as floats, k = 0 .. 30, used by the Euler-Maclaurin corrections.
_B2K_OVER_FACT: Tuple[float, ...] = tuple(
    float(BERNOULLI_NUMBERS[2 * k] / math.factorial(2 * k)) for k in range(BERNOULLI_MAX_INDEX // 2 + 1)
)


def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention), n <= 60."""
    if n < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if n > BERNOULLI_MAX_INDEX:
        raise UnsupportedError(f"Bernoulli numbers tabulated only up to index {BERNOULLI_MAX_INDEX}")
    return BERNOULLI_NUMBERS[n]


@lru_cache(maxsize=None)
def bernoulli_poly_coeffs(n: int) -> Tuple[Fraction, ...]:
    """Exact coefficients of B_n(x), highest degree first (for Horner)."""
    if n < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if n > BERNOULLI_MAX_INDEX:
        raise UnsupportedError(f"Bernoulli polynomials supported only up to order {BERNOULLI_MAX_INDEX}")
    return tuple(math.comb(n, k) * BERNOULLI_NUMBERS[k] for k in range(n + 1))


def bernoulli_poly(n: int, x: float) -> float:
    """B_n(x) as the exact rational value at the float x, rounded once."""
    if not math.isfinite(x):
        raise DomainError(f"Bernoulli polynomials need a finite x, got {x!r}")
    return float(bernoulli_poly_exact(n, Fraction(x)))


def bernoulli_poly_exact(n: int, x: Fraction) -> Fraction:
    """B_n(x) in exact rational arithmetic (sign-safe for criteria tests)."""
    result = Fraction(0)
    for c in bernoulli_poly_coeffs(n):
        result = result * x + c
    return result


# ---------------------------------------------------------------------------
# Complex gamma: Stirling's series, its coefficients from the Bernoulli table,
# with reflection left of Re s = 1/2.

# B_2k / (2k (2k-1)), k = 1 .. 14: log Gamma(s) - (s - 1/2) log s + s - log(2pi)/2 = sum_k c_k s^{1-2k}.
_STIRLING = tuple(float(BERNOULLI_NUMBERS[2 * k] / (2 * k * (2 * k - 1))) for k in range(1, 15))
_STIRLING_MIN_ABS = 6.0  # the series is summed at |s| >= 6, where its 15th term is below 2e-17


def gamma(s: complex) -> complex:
    """Gamma(s) for complex s, as one exponential of log_gamma(s).

    Raises PoleError at the nonpositive integers, and DomainError where
    |Gamma(s)| is beyond the double range or below the smallest normal double,
    on either side of Re s = 1/2.  Relative accuracy is ~1e-14 for |Im s| <= 30 and
    ~1e-13 to |Im s| = 100, where the rounding of (s - 1/2) log s dominates.
    """
    # One exponential of the logarithm: s^{s-1/2} and e^{-s} on the right, and
    # sin(pi s) and Gamma(1-s) on the left, leave the range on their own where
    # the value is still in it.
    s = complex(s)
    log_value = log_gamma(s)
    if not _LOG_DBL_MIN < log_value.real < _LOG_DBL_MAX:
        raise DomainError(f"Gamma is beyond the double range at {s}")
    value = cmath.exp(log_value)
    return complex(value.real) if s.imag == 0.0 else value


def _log_sin_pi(z: complex) -> complex:
    # log sin(pi z) up to a multiple of 2*pi*i, stable for large |Im z|.
    if z.imag >= 0.0:
        # sin(pi z) = e^{-i pi z} (e^{2 i pi z} - 1) / (2i), with the exploding
        # exponential factored out explicitly.
        w = cmath.exp(2j * math.pi * z)  # |w| = e^{-2 pi Im z} <= 1
        return -1j * math.pi * z + cmath.log((w - 1.0) / 2j)
    return _log_sin_pi(z.conjugate()).conjugate()


def log_gamma(s: complex) -> complex:
    """A logarithm of Gamma(s): exp(log_gamma(s)) == gamma(s).

    The branch is NOT the principal one; this is only meant for forming
    exp() of balanced combinations without overflow.  For Re s >= 1/2 it is Stirling's
    series at s + n, |s + n| >= 6 for the least such n, less log s (s+1) ... (s+n-1).
    """
    s = require_finite(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real.is_integer():
        raise PoleError(f"gamma pole at s = {int(s.real)}", complex(int(s.real)))
    if s.real < 0.5:
        return math.log(math.pi) - _log_sin_pi(s) - log_gamma(1.0 - s)
    product = 1.0
    while abs(s) < _STIRLING_MIN_ABS:
        product *= s
        s += 1.0
    r = 1.0 / s
    r2 = r * r
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * r2 + c
    return (s - 0.5) * cmath.log(s) - s + 0.5 * _LOG_TWO_PI + series * r - cmath.log(product)


def _fe_factors(w: complex) -> Tuple[complex, complex, complex]:
    """(c-, g, c+) with g = Gamma(w) (2pi)^{-w} and c-+ = g e^{-+ i pi w/2}.

    Every functional equation here is a combination of these, through
    2 g cos(pi w/2) = c- + c+ and 2 g sin(pi w/2) = i (c- - c+).  Each factor
    is one exponential of log Gamma(w) - w log 2pi -+ i pi w/2, so c-+ stay in
    double range where Gamma(w) underflows and e^{pi |Im w|/2} overflows.
    Raises DomainError for a factor beyond the double range.
    """
    log_g = log_gamma(w) - w * _LOG_TWO_PI
    half = 0.5j * math.pi * w
    try:
        return cmath.exp(log_g - half), cmath.exp(log_g), cmath.exp(log_g + half)
    except OverflowError:
        raise DomainError(f"functional-equation factor at w = {w} is beyond the double range") from None


# ---------------------------------------------------------------------------
# Euler-Maclaurin engine for weighted combinations sum_j w_j * zeta(s, b_j),
# run over blocks of points so that numpy's per-call cost is shared.  Every
# array of a pass is laid out (points, bases, terms), so that the long axis,
# the direct terms or the correction orders, is the contiguous one.

_EM_SHIFT = 12  # the fewest directly summed terms at Re s >= 0; (|Im s| + 12)/pi rounded up to 4k above
_EM_K_START = 6  # the stopping rule may end the corrections after order k = 6 (B_12) at the earliest
_EM_MAX_HALF_ORDER = 29  # B_58 is the last correction, B_60 bounds the remainder
_EM_FIRST_ORDERS = 18  # a block at Re s >= 0 tries the orders k <= 18 first, and all K only if a point needs more
_EM_ATTEMPTS = 3  # a point's first pass and up to two more, each with twice the shift of the one before
_EM_MAX_TERMS = 1 << 23  # a point whose longest pass holds more powers is refused: hundreds of MB
# terms per block, one point or row at least (an Euler-Maclaurin block's points * powers or corrections a
# point, a periodic partial sums' block's rows * terms a row): numpy's per-call cost is shared, temporaries stay small
_BLOCK_TERMS = 1 << 15
_EPS = 2.220446049250313e-16

# 0, then 2k-3 for k = 2 .. K: order 1 is s, and order k extends the Pochhammer
# product s(s+1)...(s+2k-2) of order k-1 by (s+2k-3)(s+2k-2).
_POCH_OFFSETS = np.concatenate(([0.0], np.arange(1.0, 2.0 * _EM_MAX_HALF_ORDER - 2.0, 2.0)))


class _EMConstants(NamedTuple):
    """What one pass needs of the bases and the shift m, whatever the point,
    laid out (bases, terms) as a pass's arrays are (points, bases, terms)."""

    neg_logs: np.ndarray  # (nb, m+1): -log(n + b) for n <= m; column m is -log(m + b)
    bases: np.ndarray  # (nb,): b
    tails: np.ndarray  # (nb,): m + b
    span: np.ndarray  # (nb,): log(m + b) - log b
    corr: np.ndarray  # (nb, K): B_2k/(2k)! (m + b)^{-(2k-1)}, k = 1 .. K
    corr_abs: np.ndarray  # (nb, K): |corr|


@lru_cache(maxsize=512)
def _em_constants(key: Tuple[float, ...], m: int) -> _EMConstants:
    bases = np.asarray(key, dtype=float)
    logs = np.log(bases[:, None] + np.arange(m + 1, dtype=float))
    odd = 2.0 * np.arange(1, _EM_MAX_HALF_ORDER + 1) - 1.0
    b2k = np.asarray(_B2K_OVER_FACT[1:_EM_MAX_HALF_ORDER + 1])
    corr = b2k * np.exp(-odd * logs[:, m:])
    out = _EMConstants(
        neg_logs=-logs,
        bases=bases,
        tails=bases + m,
        span=logs[:, m] - logs[:, 0],
        corr=corr,
        corr_abs=np.abs(corr),
    )
    for arr in out:
        arr.setflags(write=False)
    return out


def _em_shift(s: complex) -> int:
    t = abs(s.imag)
    if s.real >= 0.0:
        # The corrections fall by about (|s| / (2 pi (m + b)))^2 an order
        # (Johansson, arXiv:1309.2877), so m near (|t| + 12)/pi gains a factor
        # 4 or more an order; to |t| = 800 that is 1.3 times or more the
        # smallest m whose first pass certifies 1e-12.  A multiple of 4, so
        # that the points of a count's edge share a few passes, not one per
        # unit of t.  A function of the point alone, as a block needs.
        return max(_EM_SHIFT, 4 * math.ceil((t + 12.0) / (4.0 * math.pi)))
    # Negative real part: (n+b)^{-s} grows with n, so keep the direct block
    # tiny and lean on higher-order corrections instead.
    # clipped so that the float stays an int; a shift past the clip is refused
    return max(2, math.ceil(min(1.35 * (t + 8.0) / _TWO_PI, _EM_MAX_TERMS)))


def _em_fits(s: complex, width: int) -> bool:
    """Whether the longest pass _hurwitz_combination may make at s over width bases, its
    last retry at shift _em_shift(s) << (_EM_ATTEMPTS - 1), holds at most _EM_MAX_TERMS powers."""
    return width * ((_em_shift(s) << (_EM_ATTEMPTS - 1)) + 1) <= _EM_MAX_TERMS


def _pole_quotient(w: np.ndarray, span: np.ndarray) -> np.ndarray:
    """expm1(w x) / (-w) for each point w = 1 - s and each x in span, shape
    (points, len(span)), with its limit -x at s = 1: the pole part
    [e^{(1-s) x} - 1] / (s - 1), stable arbitrarily close to s = 1."""
    out = np.expm1(w[:, None] * span)
    at_one = w == 0.0
    if at_one.any():
        out[at_one] = span
        w = w + at_one
    out /= -w[:, None]
    return out


def _weigh(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j x[..., j] w[..., j] (w one row for all points, or one per point),
    rounded alike whatever the block's shape, so that a point gets the same
    value alone as in a block (a BLAS product's rounding depends on the shape;
    einsum's own loop does not)."""
    return np.einsum("...j,...j->...", x, w)


def _hurwitz_combination(
    s: np.ndarray,
    bases: Sequence[float],
    weights: Sequence[complex],
    cfg: EvalSettings,
    subtract_pole: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Euler-Maclaurin value of sum_j w_j * zeta(s, b_j), with remainder estimate.

    ``s`` is a 1-D array of points; the result is the arrays (value, rem).
    ``weights`` is one row (nb,) for every point or one row per point,
    (points, nb).  Points are grouped by their shift m and run in blocks.  A
    point's pass holds nb * (m+1) powers (n+b)^{-s} and nb * K corrections, so
    a block holds at most _BLOCK_TERMS of the larger (one point at least).  A
    point whose remainder does not certify the target gets more passes, each
    with twice the shift, _EM_ATTEMPTS in all, unless round-off already
    dominates; the pass with the smallest remainder wins.  A point whose last
    such pass would not fit (_em_fits) raises UnsupportedError before anything
    is summed.

    With subtract_pole=True each term is zeta(s, b_j) - b_j^{1-s}/(s-1), an
    entire function; the integral term is then assembled through expm1 so the
    combination stays stable arbitrarily close to s = 1.
    """
    if not subtract_pole and (s == 1.0).any():
        raise PoleError("zeta(s, a) has a simple pole at s = 1", 1.0 + 0.0j)
    base_key = tuple(float(b) for b in bases)
    width = len(base_key)
    w_rows = np.asarray(weights, dtype=complex).reshape(-1, width)  # one row for all points, or one each
    tol = cfg.target_abs_tol
    groups: Dict[int, List[int]] = {}
    for i, x in enumerate(s.tolist()):
        groups.setdefault(_em_shift(x), []).append(i)
    if groups:
        point = s[groups[max(groups)][0]]  # a point of the largest shift, whose last retry is the longest pass
        if not _em_fits(point, width):
            raise UnsupportedError(f"the Euler-Maclaurin sum at s = {point} needs more than {_EM_MAX_TERMS} terms")
    values = np.empty(s.shape, dtype=complex)
    rems = np.empty(s.shape)

    for m, members in groups.items():
        idx = np.array(members)
        for attempt in range(_EM_ATTEMPTS):
            per_block = max(1, _BLOCK_TERMS // (width * max(m + 1, _EM_MAX_HALF_ORDER + 1)))
            blocks = [
                _em_once(s[block], base_key, w_rows[block] if len(w_rows) > 1 else w_rows, m, subtract_pole, tol)
                for block in (idx[i:i + per_block] for i in range(0, idx.size, per_block))
            ]
            value, series_rem, round_rem = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
            rem = series_rem + round_rem
            # Where round-off dominates, a larger shift only makes it worse.  The
            # target is absolute for O(1) values, relative once the value is large.
            retry = round_rem < series_rem
            if retry.any():
                retry &= rem > tol * np.maximum(1.0, np.abs(value))
            if attempt:
                better = rem < rems[idx]
                values[idx[better]] = value[better]
                rems[idx[better]] = rem[better]
            else:
                values[idx] = value
                rems[idx] = rem
            idx = idx[retry]
            if not idx.size:
                break
            m = 2 * m  # a larger shift sharpens the truncation bound
    return values, rems


def _em_once(
    s: np.ndarray,
    base_key: Tuple[float, ...],
    w: np.ndarray,
    m: int,
    subtract_pole: bool,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Euler-Maclaurin pass with shift m over a block of points, with one
    row of weights for all of them or one row each: (value, series remainder,
    round-off estimate), one entry per point."""
    c = _em_constants(base_key, m)
    w_abs = np.abs(w)
    with np.errstate(all="ignore"):
        powers = np.exp(s[:, None, None] * c.neg_logs)  # (points, nb, m+1): (n+b)^{-s}
        sizes = np.abs(powers)
        p = powers[:, :, m]  # (m+b)^{-s}

        # Per base: the integral term, the direct block and the boundary term.
        if subtract_pole:
            # [(m+b)^{1-s} - b^{1-s}] / (s-1) = b^{1-s} expm1((1-s) span) / (s-1)
            # per base, stable at s = 1.
            value = _pole_quotient(1.0 - s, c.span) * (c.bases * powers[:, :, 0])
        else:
            value = p * c.tails / (s - 1.0)[:, None]
        # each base's integral, direct and boundary terms, rounded to eps per term
        # (the factor eps comes last), scaled by that base's |weight|; einsum, as
        # in _weigh.  At Re s < 0 the integral and boundary terms are the largest.
        rounding = np.einsum("...jn,...j->...", sizes[:, :, :m], w_abs)
        rounding += np.einsum("...j,...j->...", np.abs(value) + 0.5 * sizes[:, :, m], w_abs)
        value += np.add.reduce(powers[:, :, :m], axis=2)
        value += 0.5 * p

        # Bernoulli corrections of orders k = 1 .. K:
        # term_k = B_{2k}/(2k)! * s(s+1)...(s+2k-2) * sum_j w_j (m+b_j)^{-s-2k+1}, and its
        # size |poch_k| |p_j| |corr_kj| sum_j |w_j| from real factors, largest over the bases.
        # At Re s >= 0 the series stops within _EM_FIRST_ORDERS orders for most points, so a
        # block forms those first and all K only if some point has not stopped by then; at
        # Re s < 0 the corrections may grow before they fall, and a block forms all K at once.
        # Every product and sum below runs along the orders from k = 1, so the orders a
        # stage shares with all K round alike: a point's bits do not depend on its block.
        scale = np.add.reduce(w_abs, axis=1)[:, None]
        stages = (_EM_FIRST_ORDERS, _EM_MAX_HALF_ORDER) if (s.real >= 0.0).all() else (_EM_MAX_HALF_ORDER,)
        for orders in stages:
            poch = s[:, None] + _POCH_OFFSETS[:orders]
            steps = poch[:, 1:]
            steps *= steps + 1.0
            np.multiply.accumulate(poch, axis=1, out=poch)
            mag = np.maximum.reduce(sizes[:, :, m, None] * c.corr_abs[:, :orders], axis=1)
            mag *= np.abs(poch) * scale
            # A term counts as negligible from order _EM_K_START on, so order 1 is
            # always used.  A Pochhammer product that hit an exact zero (the expansion
            # terminated) zeroes every later term: the series ends there with rem = 0.
            used, stop = _first_stop(mag, _EM_K_START - 1, 1e-3 * tol)
            if (used < orders - 1).all():
                break  # each point stopped before the last order formed, as it would with all K

        # The weighted sum over the bases comes first, (points, nb) by (nb, orders); einsum,
        # as in _weigh, then the Pochhammer products, out of place.
        terms = poch * np.einsum("pj,jk->pk", w * p, c.corr[:, :orders])
        rows = np.arange(s.size)
        rem = mag[rows, stop]
        # At Re s < 0 the corrections can grow before they fall and cancel, so
        # every order used counts toward the round-off, not only the first.
        round_rem = (rounding + np.add.accumulate(mag, axis=1)[rows, used]) * _EPS
    return _weigh(value, w) + np.add.accumulate(terms, axis=1)[rows, used], rem, round_rem


def _first_stop(mag: np.ndarray, start: int, negligible: float) -> Tuple[np.ndarray, np.ndarray]:
    """Where a series with term bounds mag (points, orders) stops: before
    order k when its term outgrows the one before, after it when k >= start
    and its term is at most negligible, or after the last order.  Per point:
    (the last order used, the order whose bound is the remainder)."""
    events = np.zeros(mag.shape + (2,), dtype=bool)  # (before k, after k): argmax finds the first
    np.greater(mag[:, 1:], mag[:, :-1], out=events[:, 1:, 0])
    np.less_equal(mag[:, start:], negligible, out=events[:, start:, 1])
    events[:, -1, 1] = True
    first = events.reshape(len(mag), -1).argmax(axis=1)
    stop = first >> 1
    return first - stop - 1, stop


def _relative_bounds(rems: np.ndarray, values: np.ndarray) -> np.ndarray:
    # rem over the smallest magnitude the value can have, max(1, |value| - rem): a bound as large as its
    # value says nothing about it.  inf where either is not finite (inf - inf: _zeta_sum's errstate).
    out = rems / np.maximum(1.0, np.abs(values) - rems)
    out[~(np.isfinite(rems) & np.isfinite(values))] = math.inf
    return out


def _warn_accuracy(rem: float, tol: float, s: complex) -> None:
    # Fixed message text so the default "once per message" warning filters can
    # deduplicate sweeps; details travel as attributes.
    w = AccuracyWarning("internal error bound could not certify the target tolerance")
    w.bound = rem
    w.target = tol
    w.at = s
    warnings.warn(w, stacklevel=3)


def _certified(values: np.ndarray, rems: np.ndarray, tol: float) -> np.ndarray:
    # rem <= tol max(1, |value|) certifies; a value or bound that is not finite certifies nothing
    return (rems <= tol * np.maximum(1.0, np.abs(values))) & np.isfinite(values)


def _settle(pts: np.ndarray, values: np.ndarray, rems: np.ndarray, cfg: EvalSettings) -> None:
    """An AccuracyWarning at each point, in order, whose bound does not certify its value.  The
    kernels' routes return values and bounds and never warn; _zeta_sum and _periodic settle them."""
    tol = cfg.target_abs_tol
    certified = _certified(values, rems, tol)
    if certified.all():
        return
    for i in np.flatnonzero(~certified).tolist():
        _warn_accuracy(float(rems[i]), tol, complex(pts[i]))


def _scaled_pass(s: np.ndarray, bases, weights: np.ndarray, cfg: EvalSettings, entire: bool, scale: np.ndarray):
    """scale sum_j w_j zeta(s, b_j) and its bound from one Euler-Maclaurin pass; an entire sum has
    each pole part subtracted in the pass and added back as [b^{1-s} - 1]/(s-1)."""
    values, rems = _hurwitz_combination(s, bases, weights, cfg, subtract_pole=entire)
    if entire:
        values += _weigh(_pole_quotient(1.0 - s, np.log(bases)), weights)
    # out of place: numpy's in-place complex multiply rounds a one-point array differently from a longer one
    return values * scale, rems * np.abs(scale)


def _zeta_sum(s: np.ndarray, bases, weights, cfg: EvalSettings, q: int = 1) -> np.ndarray:
    """q^{-s} sum_j w_j zeta(s, b_j) at a 1-D array of points, one Euler-Maclaurin pass certified on
    that value (entire for weights that sum to zero).  Of the points it leaves uncertified: where the
    smallest base's b^{-s} overflows, every base's first term leaves the pass, q^{-s} zeta(s, b) =
    (qb)^{-s} + q^{-s} zeta(s, b + 1); at Re s < 0, _hurwitz_reflect's value is taken where its bound
    is the smaller relative to the smallest value it allows.  Then one _settle call warns."""
    w_arr = np.asarray(weights, dtype=complex)
    entire = abs(sum(weights)) <= len(weights) * _EPS * sum(map(abs, weights))
    # values beyond the double range come out inf or NaN: _settle warns, or the reflection raises
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.exp(-math.log(q) * s)  # q^{-s}
        values, rems = _scaled_pass(s, bases, w_arr, cfg, entire, scale)
        certified = _certified(values, rems, cfg.target_abs_tol)
        if certified.all():
            return values
        far = np.flatnonzero(~certified & (s.real > 0.0) & (s.real * -math.log(min(bases)) >= _LOG_DBL_MAX))
        if far.size:
            value, rem = _scaled_pass(s[far], [b + 1.0 for b in bases], w_arr, cfg, entire, scale[far])
            qb = q * np.asarray(bases)  # for q > 1 the bases are n/q: qb is the integer n, to rounding
            direct = np.exp(-s[far, None] * np.log(np.rint(qb) if q > 1 else qb))  # (qb)^{-s}
            values[far] = value + _weigh(direct, w_arr)
            rems[far] = rem + _EPS * _weigh(np.abs(direct), np.abs(w_arr))
        idx = np.flatnonzero(~certified & (s.real < 0.0))
        if idx.size:
            value, rem = _hurwitz_reflect(s[idx], bases, w_arr, cfg)
            value, rem = value * scale[idx], rem * np.abs(scale[idx])
            beyond = ~np.isfinite(value)
            if beyond.any():
                raise DomainError(f"the value at s = {complex(s[idx[beyond][0]])} is beyond the double range")
            em_bounds = _relative_bounds(rems[idx], values[idx])
            take = (_relative_bounds(rem, value) < em_bounds) | (em_bounds == math.inf)
            values[idx[take]], rems[idx[take]] = value[take], rem[take]
        _settle(s, values, rems, cfg)
    return values


def hurwitz_zeta(s, a: AlphaLike, cfg: EvalSettings = DEFAULT_SETTINGS):
    """Hurwitz zeta zeta(s, a) with full analytic continuation (s != 1).

    ``s`` is a number (the result is a complex) or an array of points (the
    result is an array of the same shape).  ``a`` is normally in (0, 1] but
    any number a > 0 is accepted (the shifted values are what the recurrence
    zeta(s,a) = a^{-s} + zeta(s,a+1) produces); text such as "2/7" is parsed
    by ``Alpha.coerce``, like the families' a, so it must lie in (0, 1].

    Euler-Maclaurin is the workhorse.  Deep in the left half-plane with t != 0
    its direct block cancels catastrophically in doubles, so when the internal
    error model cannot certify target_abs_tol the reflection through the
    absolutely convergent conjugate series at 1-s is used instead, point by
    point; if neither route certifies the tolerance an AccuracyWarning is
    attached.
    """
    pts, shape = as_points(s)
    if isinstance(a, (Alpha, str)):
        av = Alpha.coerce(a).value
    else:
        av = float(a)
        if not av > 0.0:
            raise DomainError(f"hurwitz_zeta requires a > 0, got {av!r}")
    return from_points(_zeta_sum(pts, (av,), (1.0,), cfg), shape)


def _fe_factor_columns(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c- and c+ of _fe_factors at each point of w, and the relative rounding each carries,
    eps (1 + pi |w|/2): that of its exponent's -+ i pi w/2.  Where cos or sin(pi w/2) vanishes,
    c- +- c+ is that rounding alone."""
    factors = np.array([_fe_factors(x) for x in w.tolist()]).reshape(-1, 3)
    return factors[:, 0], factors[:, 2], _EPS * (1.0 + 0.5 * math.pi * np.abs(w))


def _hurwitz_reflect(s: np.ndarray, bases, weights: np.ndarray, cfg: EvalSettings) -> Tuple[np.ndarray, np.ndarray]:
    """sum_j w_j zeta(s, b_j) and its bound at an array of points with Re s < 0, through the
    functional equation at w = 1 - s (Re w > 1, so every series converges absolutely), with
    c-+ of _fe_factors formed once, at every point, for every base.

    A base b_j with a partner b_k = 1 - b_j of weight w_k = +-w_j (both to 4 eps; chi values
    are not exact negatives, and 1 - 11/12 != 1/12 in doubles) joins it as (w_j +- w_k)/2 times
    zeta(s, b_j) +- zeta(s, 1 - b_j): one _pair_diff_reflect call, one series.  Any other base
    takes c- Li_w(e^{2 pi i b}) + c+ Li_w(e^{-2 pi i b}): two series, or one at b = 1/2 and at
    b = 1, where both are the same (zeta(w) at b = 1).  Its bound adds the rounding of c-+ from
    _fe_factor_columns times |c- Li| + |c+ Li|, as the pair kernel does: all that is left where
    the sum cancels, as at zeta(-2n, 1/2) = 0."""
    w = 1.0 - s
    c_minus, c_plus, rounding = _fe_factor_columns(w)
    value, rem = np.zeros(s.shape, dtype=complex), np.zeros(s.shape)
    bases, weights = list(bases), weights.tolist()
    for j, weight in enumerate(weights):
        # Reduce b to (0, 1]: zeta(s, b) = zeta(s, b - 1) - (b - 1)^{-s}.
        while bases[j] > 1.0:
            bases[j] -= 1.0
            value -= weight * np.exp(-s * math.log(bases[j]))
    left = list(range(len(bases)))
    while left:
        j = left.pop(0)
        b, weight = bases[j], weights[j]
        for k, sign in [(k, sign) for k in left for sign in (1.0, -1.0)]:
            if abs(b + bases[k] - 1.0) <= 4.0 * _EPS and abs(weights[k] - sign * weight) <= 4.0 * _EPS * abs(weight):
                left.remove(k)
                pair, err = _pair_diff_reflect(s, b, sign, c_minus, c_plus, rounding, cfg)
                scale = 0.5 * (weight + sign * weights[k])
                value += scale * pair
                rem += abs(scale) * err
                break
        else:
            la, ea = _hurwitz_combination(w, (1.0,), (1.0,), cfg) if b == 1.0 else _li_series(w, b, cfg)
            lb, eb = (la, ea) if b in (0.5, 1.0) else _li_series(w, 1.0 - b, cfg)
            am, ap = np.abs(c_minus), np.abs(c_plus)
            noise = rounding * (am * np.abs(la) + ap * np.abs(lb))
            value += weight * (c_minus * la + c_plus * lb)
            rem += abs(weight) * (am * ea + ap * eb + noise)
    return value, rem


def hurwitz_pair_diff(s, a: float, cfg: EvalSettings = DEFAULT_SETTINGS):
    """zeta(s, a) - zeta(s, 1-a) computed through one shared Euler-Maclaurin pass.

    The paired form keeps the two pole parts together (the difference is
    entire), so it is usable at every s including s = 1, and it avoids the
    cancellation of two separately rounded values for Re s > 0.  Deep in the
    left half-plane with t != 0 the pair's reflection, one series at 1-s
    times c- - c+ = -2i Gamma(1-s) (2pi)^{s-1} sin(pi(1-s)/2), takes over
    point by point when Euler-Maclaurin cannot certify the tolerance.  ``s``
    is a number or an array of points.
    """
    pts, shape = as_points(s)
    if not 0.0 < a < 1.0:
        raise DomainError("pair difference needs 0 < a < 1")
    return from_points(_zeta_sum(pts, (a, 1.0 - a), (1.0, -1.0), cfg), shape)


def _pair_diff_reflect(
    s: np.ndarray, a: float, sign: float, c_minus: np.ndarray, c_plus: np.ndarray, rounding: np.ndarray,
    cfg: EvalSettings,
) -> Tuple[np.ndarray, np.ndarray]:
    """zeta(s,a) + sign zeta(s,1-a), sign = +-1, and its bound at an array of points
    with Re s < 0, through (c- + sign c+) (Li_w(e^{2pi i a}) + sign Li_w(e^{-2pi i a}))
    with w = 1 - s and the caller's c-+ and their rounding from _fe_factor_columns(w): one
    series call with lam = sign; both series converge absolutely and nothing cancels but the
    factor, whose bound is that rounding times |c-| + |c+|."""
    factor = c_minus + sign * c_plus  # 2 Gamma(w) (2pi)^{-w} cos(pi w/2), or -2i ... sin(pi w/2)
    li, err = _li_series(1.0 - s, a, cfg, sign)
    noise = rounding * (np.abs(c_minus) + np.abs(c_plus))
    return factor * li, np.abs(factor) * err + noise * np.abs(li)


def riemann_zeta(s, cfg: EvalSettings = DEFAULT_SETTINGS):
    """Riemann zeta as the a = 1 instance of the Hurwitz zeta."""
    return hurwitz_zeta(s, 1.0, cfg)


# ---------------------------------------------------------------------------
# Periodic zeta Li_s(e^{2 pi i a}).

# Re s above which Li_s is summed as a series instead of through the functional equation.
SERIES_SIGMA_THRESHOLD = 0.75

_LI_ORDER = 18  # the tail sums Boole's terms of order 0 .. 18, and reads order 19 for its stopping rule
_LI_GRID = 32  # partial sums run over whole multiples of 32 terms, so that rows line up alike in any block
_LI_NEGLIGIBLE = 0.05  # both routes end the series where what is left is below this times the target
_LI_MAX_TERMS = 1 << 26  # a larger N on either route (a near an integer) is refused: seconds of work

_LI_OFFSETS = np.arange(_LI_ORDER + 1, dtype=float)


def _angles(n: np.ndarray, a: float) -> np.ndarray:
    """The angle of z^n, z = e^{2 pi i a}, reduced to [-pi, pi] so that the
    phase stays accurate for large n (x - rint(x) is exact)."""
    x = a * n
    x -= np.rint(x)
    x *= 2.0 * math.pi
    return x


def _one_minus_z(a: float) -> complex:
    """1 - z, z = e^{2 pi i a}, as 2 sin^2(pi x) - i sin(2 pi x) with x = a - round(a) (an exact
    reduction to [-1/2, 1/2]), which keeps its relative accuracy as a nears an integer."""
    x = math.pi * (a - round(a))
    return complex(2.0 * math.sin(x) ** 2, -math.sin(2.0 * x))


@lru_cache(maxsize=256)
def _li_constants(a: float) -> np.ndarray:
    """c_0 .. c_{_LI_ORDER+1} of 1/(1 - z e^x) = sum_j c_j x^j, z = e^{2 pi i a}:
    c_j = -B_{j+1}(0; z)/(j+1)! in Apostol's x/(z e^x - 1) = sum_n B_n(0; z) x^n/n!
    (T. M. Apostol, On the Lerch zeta function, Pacific J. Math. 1 (1951)), formed as
    c_0 = 1/(1-z), c_j = z/(1-z) sum_{i=1..j} c_{j-i}/i!, with 1 - z from _one_minus_z."""
    one_minus_z = _one_minus_z(a)
    ratio = cmath.exp(2j * math.pi * (a - round(a))) / one_minus_z
    coef = [1.0 / one_minus_z]
    for j in range(1, _LI_ORDER + 2):
        coef.append(ratio * sum(coef[j - i] / math.factorial(i) for i in range(1, j + 1)))
    out = np.array(coef)
    out.setflags(write=False)
    return out


def _li_series(s: np.ndarray, a: float, cfg: EvalSettings, lam: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
    """Li_s(e^{2 pi i a}) + lam Li_s(e^{-2 pi i a}) from the Dirichlet series
    sum_n (z^n + lam conj(z)^n) n^{-s}, z = e^{2 pi i a}, at a 1-D array of
    points (Re s > 0); returns the arrays (value, error estimate).

    Each point takes the route that needs fewer terms for target_abs_tol:
      (a) for Re s > 1, the partial sum to N with the tail
          sum_{n>N} n^{-sigma} <= N^{1-sigma}/(sigma-1) below 0.05 min(target, eps),
          so that the truncation is lost in the rounding (a caller may scale the
          value up by a functional-equation factor);
      (c) the partial sum to N-1 plus the tail sum_{n>=N}, summed by Boole's
          formula as z^N sum_j c_j f^{(j)}(N), f(x) = x^{-s} (_li_euler_tail;
          and its conjugate for lam), each order gaining about
          |s+j|/(2 pi N dist(a, Z)) with N = max(32, 6(|s|+8)/|1-z|): term j+1
          is about (|s|+j)/(6(|s|+8)) times term j, so 19 orders meet the
          default target at small |s| too, and each point takes one tail.
    A point whose N on its route would exceed _LI_MAX_TERMS raises
    UnsupportedError before anything is summed.
    Both estimates add eps times sum_n |terms| <= (1 + |lam|) (1 + int_1^L x^{-sigma} dx),
    L the last n of the partial sum.  The partial sums of all points run
    through _li_partial_sums, the tails of all route (c) points at once.
    """
    tol = cfg.target_abs_tol
    weight = 1.0 + abs(lam)
    gap = abs(_one_minus_z(a))
    negligible = _LI_NEGLIGIBLE * min(tol, _EPS)
    last, errs = [], []  # per point: the last n summed, the error estimate
    euler, starts = [], []  # route (c): the points and their N
    for i, x in enumerate(s.tolist()):
        sigma = x.real
        # route (c)'s N, clipped so that the float stays an int; an N past the clip is refused below
        n = max(32, math.ceil(min(6.0 * (abs(x) + 8.0) / gap, _LI_MAX_TERMS + 1)))
        # route (a) needs log N >= log(weight / ((sigma-1) negligible)) / (sigma-1)
        log_n = math.log(weight / ((sigma - 1.0) * negligible)) / (sigma - 1.0) if sigma > 1.0 else math.inf
        if log_n <= math.log(n):
            n = math.ceil(math.exp(log_n))
            err = weight * n ** (1.0 - sigma) / (sigma - 1.0)
            last.append(n)
        else:
            err = 0.0
            last.append(n - 1)
            euler.append(i)
            starts.append(n)
        if n > _LI_MAX_TERMS:
            raise UnsupportedError(f"the periodic series at s = {x}, a = {a} needs more than {_LI_MAX_TERMS} terms")
        log_last = math.log(last[-1])
        rise = (1.0 - sigma) * log_last  # int_1^L x^{-sigma} dx = expm1(rise) / (1 - sigma)
        errs.append(err + _EPS * weight * (1.0 + (math.expm1(rise) / (1.0 - sigma) if rise else log_last)))
    values = _li_partial_sums(s, last, a, lam)
    errs = np.array(errs)
    if euler:
        idx = slice(None) if len(euler) == len(last) else np.array(euler)
        tail, err = _li_euler_tail(s[idx], np.array(starts), a, lam, tol)
        values[idx] += tail
        errs[idx] += err
    return values, errs


def _li_partial_sums(s: np.ndarray, last: List[int], a: float, lam: float) -> np.ndarray:
    """sum_{n <= last} (z^n + lam conj(z)^n) n^{-s} per point.

    Each range [1, last] is rounded up to a multiple of _LI_GRID.  Points
    whose rounded spans are equal are the rows of one array, in row blocks of
    at most _BLOCK_TERMS terms (one row at least).  Each row is summed over
    its whole rounded span, in chunks of _BLOCK_TERMS terms from 1, with
    the terms past its own last masked to zero, and each row is multiplied
    and reduced on its own (numpy's pairwise sum along the row).  So a
    point's bits depend on that point alone, never on its block.
    """
    spans: Dict[int, List[int]] = {}
    for i, hi in enumerate(last):
        spans.setdefault(-(-hi // _LI_GRID) * _LI_GRID, []).append(i)
    out = np.empty(s.shape, dtype=complex)
    for hi, rows in spans.items():
        per_block = max(1, _BLOCK_TERMS // min(hi, _BLOCK_TERMS))
        for block in (rows[k:k + per_block] for k in range(0, len(rows), per_block)):
            bound = np.array([last[i] for i in block])[:, None]
            minus_s, total = -s[block], 0.0
            for start in range(0, hi, _BLOCK_TERMS):
                n = np.arange(start + 1, min(start + _BLOCK_TERMS, hi) + 1, dtype=float)
                exponent = np.multiply.outer(minus_s, np.log(n))
                angle = _angles(n, a)
                if not lam:
                    exponent.imag += angle  # z^n n^{-s} as one exponential
                terms = np.exp(exponent, out=exponent)
                np.copyto(terms, 0.0, where=n > bound)
                if lam:
                    weights = np.exp(1j * angle)
                    weights += lam * weights.conj()
                    terms *= weights
                total = total + np.add.reduce(terms, axis=1)
            out[block] = total
    return out


def _li_euler_tail(s: np.ndarray, n: np.ndarray, a: float, lam: float, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """sum_{m >= N} (z^m + lam conj(z)^m) m^{-s} per point, given N, by Boole's
    summation with weight z^m: sum_{m >= N} z^m f(m) = z^N sum_j c_j f^{(j)}(N),
    f^{(j)}(N) = (-1)^j (s)_j N^{-s-j} a running product from N^{-s}, c_j from
    _li_constants (conj(c_j) for conj(z)).  _first_stop reads
    max(|term_j|, |term_{j+1}|), since near a = 1/2 every other c_j nearly
    vanishes.  Returns the tail and its error estimate: (1 + |lam|) times that
    of one of the two series (their terms have the same magnitudes)."""
    coef = _li_constants(a)
    steps = np.empty((s.size, _LI_ORDER + 2), dtype=complex)
    steps[:, 0] = np.exp(-s * np.log(n))  # N^{-s}
    steps[:, 1:] = -(s[:, None] + _LI_OFFSETS) / n[:, None]  # f^{(j+1)}(N) / f^{(j)}(N)
    derivs = np.multiply.accumulate(steps, axis=1)
    terms = derivs * coef
    mag = np.abs(terms)
    mag = np.maximum(mag[:, :-1], mag[:, 1:])
    used, stop = _first_stop(mag, 0, _LI_NEGLIGIBLE * tol)
    rows = np.arange(s.size)
    zn = np.exp(1j * _angles(n, a))
    # out-of-place products throughout: numpy's in-place complex multiply rounds a one-point array differently
    tail = zn * np.add.accumulate(terms[:, :-1], axis=1)[rows, used]
    if lam:
        tail = tail + lam * zn.conj() * np.add.accumulate(derivs[:, :-1] * coef[:-1].conj(), axis=1)[rows, used]
    return tail, (1.0 + abs(lam)) * mag[rows, stop]


def _li_rational(s: np.ndarray, r: int, q: int, cfg: EvalSettings, lam: float = 0.0) -> np.ndarray:
    """Exact finite form Li_s(e^{2 pi i r/q}) + lam Li_s(e^{-2 pi i r/q}) =
    q^{-s} sum_n (e^{2 pi i rn/q} + lam e^{-2 pi i rn/q}) zeta(s, n/q) at an array
    of points, certified as one weighted sum.  The weights sum to zero for q > 1, so the sum is
    entire and s = 1 is a regular point of its pass."""
    bases = tuple((n + 1) / q for n in range(q))
    phases = (cmath.exp(2j * math.pi * ((r * (n + 1)) % q) / q) for n in range(q))
    weights = tuple(z + lam * z.conjugate() for z in phases)
    return _zeta_sum(s, bases, weights, cfg, q=q)


def _exprel(z: complex) -> complex:
    """(e^z - 1)/z, 1 at z = 0 (numpy's complex expm1 does not cancel for small |z|; cmath has none)."""
    return complex(np.expm1(z)) / z if z else 1.0 + 0.0j


def _li_functional_equation(
    s: np.ndarray, a: float, cfg: EvalSettings, lam: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Li_s(e^{2 pi i a}) + lam Li_s(e^{-2 pi i a}) at a 1-D array of points,
    through Li_s(e^{2 pi i a}) = c+ zeta(1-s, a) + c- zeta(1-s, 1-a) with
    c-+ = Gamma(1-s) (2pi)^{s-1} e^{-+ i pi (1-s)/2} from _fe_factors.

    One Euler-Maclaurin pass over the bases (a, 1-a) at w = 1-s, with the point weights
    W = (c+ + lam c-, c- + lam c+), gives the entire parts of the two zeta(w, b) and one
    bound on the weighted sum.  Their pole parts add -sum_j W_j b_j^s / s.  For |s| < 0.25,
    where that sum cancels against 1/s, it is formed as sum_j W_j (1 - b_j^s)/s -
    (1 + lam)(c- + c+)/s, with c- + c+ = 2 g sin(pi s/2) (g = Gamma(w) (2pi)^{-w}): every
    term is finite at s = 0.  Returns the arrays (value, bound) and never warns; the bound
    charges no rounding of c-+, unlike the reflections' (_fe_factor_columns).  A point
    whose pole terms are beyond the double range raises DomainError (deep left of 0 with
    small a, e.g. Re s = -200 at a = 0.001).
    """
    la, lb = math.log(a), math.log(1.0 - a)
    weights, poles = [], []
    for x in s.tolist():
        c_minus, g, c_plus = _fe_factors(1.0 - x)
        wa, wb = c_plus + lam * c_minus, c_minus + lam * c_plus
        try:
            if abs(x) < 0.25:
                # (1 - b^s)/s = -log b (e^{s log b} - 1)/(s log b) and
                # 2 sin(pi s/2)/s = pi e^{-i pi s/2} (e^{i pi s} - 1)/(i pi s)
                pair_over_s = math.pi * g * cmath.exp(-0.5j * math.pi * x) * _exprel(1j * math.pi * x)
                pole = -(wa * la * _exprel(x * la) + wb * lb * _exprel(x * lb)) - (1.0 + lam) * pair_over_s
            else:
                pole = -(wa * cmath.exp(x * la) + wb * cmath.exp(x * lb)) / x
        except OverflowError:
            raise DomainError(f"the functional-equation terms at s = {x} are beyond the double range") from None
        weights.append((wa, wb))
        poles.append(pole)
    values, rems = _hurwitz_combination(1.0 - s, (a, 1.0 - a), weights, cfg, subtract_pole=True)
    values += poles
    return values, rems


def _periodic(pts: np.ndarray, alpha: Alpha, cfg: EvalSettings, lam: float = 0.0) -> np.ndarray:
    """Li_s(e^{2 pi i a}) + lam Li_s(e^{-2 pi i a}) at a 1-D array of points, one call per route,
    each taking lam: for Re s <= SERIES_SIGMA_THRESHOLD the functional equation through
    zeta(1-s, a) and zeta(1-s, 1-a) (s = 0 included); above it, for exact a = r/q, the weighted
    Hurwitz sum over zeta(s, n/q), entire and so taken through s = 1, where its pass over q bases
    fits (_em_fits; it settles in _zeta_sum); otherwise the series.  One _settle call checks the
    other two routes' bounds."""
    av = alpha.value
    values, rems = np.empty(pts.shape, dtype=complex), np.zeros(pts.shape)
    fe = pts.real <= SERIES_SIGMA_THRESHOLD
    rational = np.zeros(pts.shape, dtype=bool)
    if alpha.exact is not None:
        rational = ~fe & np.array([_em_fits(x, alpha.exact[1]) for x in pts.tolist()], dtype=bool)
    if rational.any():
        values[rational] = _li_rational(pts[rational], *alpha.exact, cfg, lam)
        if rational.all():
            return values
    series = ~(fe | rational)
    if fe.any():
        values[fe], rems[fe] = _li_functional_equation(pts[fe], av, cfg, lam)
    if series.any():
        values[series], rems[series] = _li_series(pts[series], av, cfg, lam)
    _settle(pts, values, rems, cfg)
    return values


def periodic_zeta(s, a: AlphaLike, cfg: EvalSettings = DEFAULT_SETTINGS):
    """Periodic zeta Li_s(e^{2 pi i a}) for 0 < a < 1, entire in s.

    ``s`` is a number or an array of points; each route gets its points in one call (see
    _periodic): the functional equation for Re s <= SERIES_SIGMA_THRESHOLD, the exact
    decomposition into Hurwitz zetas zeta(s, n/q) for exact a = r/q at any larger Re s,
    otherwise the Dirichlet series (_li_series).  An uncertified point gets an AccuracyWarning.
    """
    pts, shape = as_points(s)
    alpha = Alpha.coerce(a)
    if not 0.0 < alpha.value < 1.0:
        raise DomainError("periodic zeta needs 0 < a < 1 (a = 1 is the Riemann zeta)")
    return from_points(_periodic(pts, alpha, cfg), shape)
