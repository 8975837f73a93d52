"""Double-precision special functions: Bernoulli polynomials, complex gamma,
Riemann/Hurwitz zeta via Euler-Maclaurin, and the periodic zeta.

All evaluation is pure and reentrant; the Bernoulli coefficient tables are
built once at import time and never mutated.  The public zeta functions take
a number or an array of points; the kernels below them take 1-D arrays only.
Euler-Maclaurin work and the periodic series run in blocks of points, and a
single number is a block of one; every sum runs along one point's own row, so
a point gets the same bits alone as in any block.  Powers of positive real
bases always use the principal real logarithm, so no branch cut is ever
crossed.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    """B_n(x) by Horner's scheme on the exact rational coefficients."""
    result = 0.0
    for c in bernoulli_poly_coeffs(n):
        result = result * x + float(c)
    return result


def bernoulli_poly_exact(n: int, x: Fraction) -> Fraction:
    """B_n(x) in exact rational arithmetic (sign-safe for criteria tests)."""
    result = Fraction(0)
    for c in bernoulli_poly_coeffs(n):
        result = result * x + c
    return result


# ---------------------------------------------------------------------------
# Complex gamma: Lanczos approximation (g = 7, 9 terms) with reflection.

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos_series(z: complex) -> complex:
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (z + i)
    return acc


def gamma(s: complex) -> complex:
    """Gamma(s) for complex s, as one exponential of log_gamma(s).

    Raises PoleError at the nonpositive integers, and DomainError where
    |Gamma(s)| is beyond the double range or below the smallest normal double,
    on either side of Re s = 1/2.  Relative accuracy is ~1e-13 for |s| <= 100.
    """
    # One exponential of the logarithm: t^{z+1/2} and e^{-t} on the right, and
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
    exp() of balanced combinations without overflow.
    """
    s = require_finite(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real.is_integer():
        raise PoleError(f"gamma pole at s = {int(s.real)}", complex(int(s.real)))
    if s.real >= 0.5:
        z = s - 1.0
        t = z + _LANCZOS_G + 0.5
        return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * cmath.log(t) - t + cmath.log(_lanczos_series(z))
    return math.log(math.pi) - _log_sin_pi(s) - log_gamma(1.0 - s)


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

_EM_SHIFT = 25  # directly summed terms at Re s >= 0 and |Im s| <= 25; |Im s| rounded up to 8k above
_EM_K_START = 6  # the stopping rule may end the corrections after order k = 6 (B_12) at the earliest
_EM_MAX_HALF_ORDER = 29  # B_58 is the last correction, B_60 bounds the remainder
_EM_BLOCK_POINTS = 64  # points per block: numpy's per-call cost is shared, temporaries stay small
_EM_BLOCK_TERMS = 1 << 15  # and points * (powers or corrections a point) within this, but one point at least
_EM_MAX_TERMS = 1 << 23  # so a point whose longest pass, at shift 4m, holds more powers is refused: hundreds of MB
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
        # At least |t|, so that the corrections fall fast; a multiple of 8, so
        # that the points of a count's edge share a few passes, not one per
        # unit of t.  A function of the point alone, as a block needs.
        return _EM_SHIFT if t <= _EM_SHIFT else 8 * math.ceil(t / 8)
    # Negative real part: (n+b)^{-s} grows with n, so keep the direct block
    # tiny and lean on higher-order corrections instead.
    # clipped so that the float stays an int; a shift past the clip is refused
    return max(2, math.ceil(min(1.35 * (t + 8.0) / _TWO_PI, _EM_MAX_TERMS)))


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
    (points, nb).  Points are grouped by their shift m and run in blocks
    of at most _EM_BLOCK_POINTS points.  A point's pass holds nb * (m+1) powers
    (n+b)^{-s} and nb * K corrections, so a block holds at most _EM_BLOCK_TERMS
    of the larger (one point at least).  A point whose remainder does not certify
    the target gets up to two more passes, each with twice the shift, unless
    round-off already dominates; the pass with the smallest remainder wins.
    A point whose last such pass would hold more than _EM_MAX_TERMS powers
    raises UnsupportedError before anything is summed.

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
    worst = max(groups, default=0)  # its second retry, at shift 4m, is the longest pass
    if width * (4 * worst + 1) > _EM_MAX_TERMS:
        point = s[groups[worst][0]]
        raise UnsupportedError(f"the Euler-Maclaurin sum at s = {point} needs more than {_EM_MAX_TERMS} terms")
    values = np.empty(s.shape, dtype=complex)
    rems = np.empty(s.shape)

    for m, members in groups.items():
        idx = np.array(members)
        for attempt in range(3):
            per_block = max(1, min(_EM_BLOCK_POINTS, _EM_BLOCK_TERMS // (width * max(m + 1, _EM_MAX_HALF_ORDER + 1))))
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

        # Bernoulli corrections for every order k = 1 .. K at once:
        # term_kj = B_{2k}/(2k)! * s(s+1)...(s+2k-2) * (m+b_j)^{-s-2k+1}, and its
        # size |poch_k| |p_j| |corr_kj| from real factors, largest over the bases.
        poch = s[:, None] + _POCH_OFFSETS
        steps = poch[:, 1:]
        steps *= steps + 1.0
        np.multiply.accumulate(poch, axis=1, out=poch)
        per_base = poch[:, None, :] * (p[:, :, None] * c.corr)  # (points, nb, K)
        mag = np.maximum.reduce(sizes[:, :, m, None] * c.corr_abs, axis=1)
        mag *= np.abs(poch) * np.add.reduce(w_abs, axis=1)[:, None]

        # A term counts as negligible from order _EM_K_START on, so order 1 is
        # always used.  A Pochhammer product that hit an exact zero (the expansion
        # terminated) zeroes every later term: the series ends there with rem = 0.
        used, stop = _first_stop(mag, _EM_K_START - 1, 1e-3 * tol)
        sums = np.add.accumulate(per_base, axis=2)
        rows = np.arange(s.size)
        value += sums[rows, :, used]
        rem = mag[rows, stop]
        # At Re s < 0 the corrections can grow before they fall and cancel, so
        # every order used counts toward the round-off, not only the first.
        round_rem = (rounding + np.add.accumulate(mag, axis=1)[rows, used]) * _EPS
    return _weigh(value, w), rem, round_rem


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
    # rem over the smallest magnitude the value can have, max(1, |value| - rem):
    # a bound as large as its value says nothing about it.  inf for a value or
    # bound that is not finite, which certifies nothing.
    with np.errstate(invalid="ignore"):
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


def _settle(
    pts: np.ndarray,
    values: np.ndarray,
    rems: np.ndarray,
    cfg: EvalSettings,
    reflect: Optional[Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None,
) -> None:
    """Per point, in place: a value whose remainder does not certify the target
    is replaced by its reflected value (Re s < 0 only; ``reflect(idx)`` gives
    the values and bounds at the points idx, all in one call) when that route's
    bound is the smaller relative to the smallest value it allows, and a point
    still uncertified gets an AccuracyWarning.  A value or bound that is not
    finite certifies nothing; a reflected one raises DomainError."""
    tol = cfg.target_abs_tol
    uncertified = ~(rems <= tol * np.maximum(1.0, np.abs(values)))
    if not uncertified.any():
        return
    idx = np.flatnonzero(uncertified & (pts.real < 0.0)) if reflect is not None else ()
    if len(idx):
        refl, refl_rems = reflect(idx)
        beyond = ~np.isfinite(refl)
        if beyond.any():
            raise DomainError(f"the value at s = {complex(pts[idx[beyond][0]])} is beyond the double range")
        em_bounds = _relative_bounds(rems[idx], values[idx])
        take = (_relative_bounds(refl_rems, refl) < em_bounds) | (em_bounds == math.inf)
        values[idx[take]] = refl[take]
        rems[idx[take]] = refl_rems[take]
    for i in np.flatnonzero(uncertified).tolist():
        value, rem = complex(values[i]), float(rems[i])
        # hypot, unlike abs(), gives inf rather than raising for |value| > DBL_MAX
        if not rem <= tol * max(1.0, math.hypot(value.real, value.imag)):
            _warn_accuracy(rem, tol, complex(pts[i]))


def _zeta_sum(s: np.ndarray, bases, weights, cfg: EvalSettings, q: int = 1) -> np.ndarray:
    """q^{-s} sum_j w_j zeta(s, b_j) at a 1-D array of points, in one Euler-Maclaurin pass
    certified on that value.  Weights that sum to zero (to rounding) make the sum entire: each
    pole part is subtracted in the pass and added back as [b^{1-s} - 1]/(s-1).  A point with
    Re s < 0 that the pass leaves uncertified may take _hurwitz_reflect's value instead."""
    w_arr = np.asarray(weights, dtype=complex)
    entire = abs(sum(weights)) <= len(weights) * _EPS * sum(map(abs, weights))
    values, rems = _hurwitz_combination(s, bases, w_arr, cfg, subtract_pole=entire)
    if entire:
        values += _weigh(_pole_quotient(1.0 - s, np.log(bases)), w_arr)

    def reflected(idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        value, rem = _hurwitz_reflect(s[idx], bases, w_arr, cfg)
        return value * scale[idx], rem * np.abs(scale[idx])

    # values beyond the double range come out inf: _settle warns, or raises from a reflection
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.exp(-math.log(q) * s)  # q^{-s}
        # out of place: numpy's in-place complex multiply rounds a one-point
        # array differently from a longer one
        values = values * scale
        rems = rems * np.abs(scale)
        _settle(s, values, rems, cfg, reflected)
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


def _fe_factor_columns(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """c- and c+ of _fe_factors at each point of w."""
    factors = np.array([_fe_factors(x) for x in w.tolist()]).reshape(-1, 3)
    return factors[:, 0], factors[:, 2]


def _hurwitz_reflect(s: np.ndarray, bases, weights: np.ndarray, cfg: EvalSettings) -> Tuple[np.ndarray, np.ndarray]:
    """sum_j w_j zeta(s, b_j) and its bound at an array of points with Re s < 0, through the
    functional equation at w = 1 - s (Re w > 1, so every series converges absolutely).

    A base b_j with a partner b_k = 1 - b_j of weight w_k = +-w_j (both to 4 eps; chi values
    are not exact negatives, and 1 - 11/12 != 1/12 in doubles) joins it as (w_j +- w_k)/2 times
    zeta(s, b_j) +- zeta(s, 1 - b_j): one _pair_diff_reflect call, one series.  Any other base
    takes c- Li_w(e^{2 pi i b}) + c+ Li_w(e^{-2 pi i b}), with c-+ from _fe_factors: two series,
    or one at b = 1/2 and at b = 1, where both are the same (zeta(w) at b = 1)."""
    w = 1.0 - s
    value, rem = np.zeros(s.shape, dtype=complex), np.zeros(s.shape)
    bases, weights = list(bases), weights.tolist()
    for j, weight in enumerate(weights):
        # Reduce b to (0, 1]: zeta(s, b) = zeta(s, b - 1) - (b - 1)^{-s}.
        while bases[j] > 1.0:
            bases[j] -= 1.0
            value -= weight * np.exp(-s * math.log(bases[j]))
    factors = None  # c- and c+, formed only for a base without a partner
    left = list(range(len(bases)))
    while left:
        j = left.pop(0)
        b, weight = bases[j], weights[j]
        for k, sign in [(k, sign) for k in left for sign in (1.0, -1.0)]:
            if abs(b + bases[k] - 1.0) <= 4.0 * _EPS and abs(weights[k] - sign * weight) <= 4.0 * _EPS * abs(weight):
                left.remove(k)
                pair, err = _pair_diff_reflect(s, b, sign, cfg)
                scale = 0.5 * (weight + sign * weights[k])
                value += scale * pair
                rem += abs(scale) * err
                break
        else:
            if factors is None:
                factors = _fe_factor_columns(w)
            c_minus, c_plus = factors
            la, ea = _hurwitz_combination(w, (1.0,), (1.0,), cfg) if b == 1.0 else _li_series(w, b, cfg)
            lb, eb = (la, ea) if b in (0.5, 1.0) else _li_series(w, 1.0 - b, cfg)
            value += weight * (c_minus * la + c_plus * lb)
            rem += abs(weight) * (np.abs(c_minus) * ea + np.abs(c_plus) * eb)
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


def _pair_diff_reflect(s: np.ndarray, a: float, sign: float, cfg: EvalSettings) -> Tuple[np.ndarray, np.ndarray]:
    """zeta(s,a) + sign zeta(s,1-a), sign = +-1, and its bound at an array of points
    with Re s < 0, through (c- + sign c+) (Li_w(e^{2pi i a}) + sign Li_w(e^{-2pi i a}))
    with w = 1 - s and c-+ from _fe_factors: one series call with lam = sign; both
    series converge absolutely and nothing cancels but the factor itself."""
    w = 1.0 - s
    c_minus, c_plus = _fe_factor_columns(w)
    factor = c_minus + sign * c_plus  # 2 Gamma(w) (2pi)^{-w} cos(pi w/2), or -2i ... sin(pi w/2)
    li, err = _li_series(w, a, cfg, sign)
    # c-+ each carry the rounding of their exponent's -+ i pi w/2, about eps pi |w|/2: where
    # cos or sin(pi w/2) vanishes, that rounding is all that is left of the factor
    noise = _EPS * (1.0 + 0.5 * math.pi * np.abs(w)) * (np.abs(c_minus) + np.abs(c_plus))
    return factor * li, np.abs(factor) * err + noise * np.abs(li)


def riemann_zeta(s, cfg: EvalSettings = DEFAULT_SETTINGS):
    """Riemann zeta as the a = 1 instance of the Hurwitz zeta."""
    return hurwitz_zeta(s, 1.0, cfg)


# ---------------------------------------------------------------------------
# Periodic zeta Li_s(e^{2 pi i a}).

# Re s above which Li_s is summed as a series instead of through the functional equation.
SERIES_SIGMA_THRESHOLD = 0.75

_LI_ORDER = 18  # the Euler-transformed tail uses forward differences of order 0 .. 18
_LI_GRID = 32  # partial sums run over whole multiples of 32 terms, so that rows line up alike in any block
_LI_BLOCK_TERMS = 1 << 15  # terms per block of partial sums, and per chunk of a longer row
_LI_NEGLIGIBLE = 0.05  # both routes end the series where what is left is below this times the target
_LI_MAX_TERMS = 1 << 26  # a longer partial sum on either route (a near an integer) is refused: seconds of work

_LI_OFFSETS = np.arange(_LI_ORDER + 1, dtype=float)
# Row k: Delta^k a_N = sum_j (-1)^{k-j} C(k, j) a_{N+j}, every order in one product (complex,
# so that einsum need not cast it).
_FORWARD_DIFFERENCES = np.array(
    [[(-1.0) ** (k - j) * math.comb(k, j) if j <= k else 0.0 for j in range(_LI_ORDER + 1)] for k in range(_LI_ORDER + 1)],
    dtype=complex,
)
_FORWARD_DIFFERENCES.setflags(write=False)


def _angles(n: np.ndarray, a: float) -> np.ndarray:
    """The angle of z^n, z = e^{2 pi i a}, reduced to [-pi, pi] so that the
    phase stays accurate for large n (x - rint(x) is exact)."""
    x = a * n
    x -= np.rint(x)
    x *= 2.0 * math.pi
    return x


@lru_cache(maxsize=256)
def _li_constants(a: float) -> Tuple[np.ndarray, np.ndarray]:
    """z^k / (1-z)^{k+1} and |1-z|^{-(k+1)} for k = 0 .. _LI_ORDER, z = e^{2 pi i a}."""
    one_minus_z = 1.0 - cmath.exp(2j * math.pi * a)
    powers = -1.0 - _LI_OFFSETS
    coef = np.exp(1j * _angles(_LI_OFFSETS, a)) * one_minus_z ** powers
    scale = abs(one_minus_z) ** powers
    coef.setflags(write=False)
    scale.setflags(write=False)
    return coef, scale


def _li_series(s: np.ndarray, a: float, cfg: EvalSettings, lam: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
    """Li_s(e^{2 pi i a}) + lam Li_s(e^{-2 pi i a}) from the Dirichlet series
    sum_n (z^n + lam conj(z)^n) n^{-s}, z = e^{2 pi i a}, at a 1-D array of
    points (Re s > 0); returns the arrays (value, error estimate).

    Each point takes the route that needs fewer terms for target_abs_tol:
      (a) for Re s > 1, the partial sum to N with the tail
          sum_{n>N} n^{-sigma} <= N^{1-sigma}/(sigma-1) below 0.05 min(target, eps),
          so that the truncation is lost in the rounding (a caller may scale the
          value up by a functional-equation factor);
      (c) the partial sum to N-1 plus the tail sum_{n>=N}, folded by repeated
          summation by parts into sum_k z^{N+k} Delta^k(N^{-s}) / (1-z)^{k+1}
          (and its conjugate for lam), each order gaining about |s|/(N |1-z|)
          with N = max(32, 6(|s|+4)/|1-z|).  A point whose tail misses the
          target gets up to two more attempts, each with twice N, that extend
          its partial sum; the attempt with the smaller estimate wins.
    A point whose longest partial sum on its route would exceed _LI_MAX_TERMS
    terms raises UnsupportedError before anything is summed.
    Both estimates add eps times sum_n |terms| <= (1 + |lam|) (1 + int_1^L x^{-sigma} dx),
    L the longest partial sum the point can take.  The partial sums of all
    points run through _li_partial_sums, the tails of all route (c) points at once.
    """
    tol = cfg.target_abs_tol
    weight = 1.0 + abs(lam)
    gap = abs(1.0 - cmath.exp(2j * math.pi * a))  # |1 - z|
    negligible = _LI_NEGLIGIBLE * min(tol, _EPS)
    last, errs = [], []  # per point: the last n summed, the error estimate
    euler, starts = [], []  # route (c): the points and their N
    for i, x in enumerate(s.tolist()):
        sigma = x.real
        # clipped so that the float stays an int; either route past the clip is refused below
        n_euler = max(32, math.ceil(min(6.0 * (abs(x) + 4.0) / gap, _LI_MAX_TERMS)))
        # route (a) needs log N >= log(weight / ((sigma-1) negligible)) / (sigma-1)
        log_n = math.log(weight / ((sigma - 1.0) * negligible)) / (sigma - 1.0) if sigma > 1.0 else math.inf
        if log_n <= math.log(n_euler):
            n = longest = math.ceil(math.exp(log_n))
            err = weight * n ** (1.0 - sigma) / (sigma - 1.0)
        else:
            n, longest, err = n_euler - 1, 4 * n_euler - 1, 0.0
            euler.append(i)
            starts.append(n_euler)
        if longest > _LI_MAX_TERMS:
            raise UnsupportedError(f"the periodic series at s = {x}, a = {a} needs more than {_LI_MAX_TERMS} terms")
        log_longest = math.log(longest)
        rise = (1.0 - sigma) * log_longest  # int_1^L x^{-sigma} dx = expm1(rise) / (1 - sigma)
        last.append(n)
        errs.append(err + _EPS * weight * (1.0 + (math.expm1(rise) / (1.0 - sigma) if rise else log_longest)))
    values = _li_partial_sums(s, [0] * len(last), last, a, lam)
    errs = np.array(errs)
    if euler:
        idx = slice(None) if len(euler) == len(last) else np.array(euler)
        sub, n, partial = s[idx], np.array(starts), values[idx]
        tail, err = _li_euler_tail(sub, n, a, lam, tol)
        value = partial + tail
        for _ in range(2):
            if not err.max() > tol:
                break
            retry = np.flatnonzero(err > tol)
            longer = 2 * n[retry]
            partial[retry] += _li_partial_sums(sub[retry], (n[retry] - 1).tolist(), (longer - 1).tolist(), a, lam)
            n[retry] = longer
            tail, again = _li_euler_tail(sub[retry], longer, a, lam, tol)
            better = again < err[retry]
            value[retry[better]] = partial[retry[better]] + tail[better]
            err[retry[better]] = again[better]
        values[idx] = value
        errs[idx] += err
    return values, errs


def _li_partial_sums(s: np.ndarray, first: List[int], last: List[int], a: float, lam: float) -> np.ndarray:
    """sum_{first < n <= last} (z^n + lam conj(z)^n) n^{-s} per point.

    Each range (first, last] is rounded out to multiples of _LI_GRID.  Points
    whose rounded spans are equal are the rows of one array, in row blocks of
    at most _LI_BLOCK_TERMS terms (one row at least).  Each row is summed over
    its whole rounded span, in chunks of _LI_BLOCK_TERMS terms from the span's
    start, with the terms outside its own range masked to zero, and each row
    is multiplied and reduced on its own (numpy's pairwise sum along the row).
    So a point's bits depend on that point alone, never on its block.
    """
    spans: Dict[Tuple[int, int], List[int]] = {}
    for i, (lo, hi) in enumerate(zip(first, last)):
        spans.setdefault((lo // _LI_GRID * _LI_GRID, -(-hi // _LI_GRID) * _LI_GRID), []).append(i)
    out = np.empty(s.shape, dtype=complex)
    for (lo, hi), rows in spans.items():
        per_block = max(1, _LI_BLOCK_TERMS // min(hi - lo, _LI_BLOCK_TERMS))
        for block in (rows[k:k + per_block] for k in range(0, len(rows), per_block)):
            bounds = np.array([first[i] for i in block])[:, None], np.array([last[i] for i in block])[:, None]
            minus_s, total = -s[block], 0.0
            for start in range(lo, hi, _LI_BLOCK_TERMS):
                n = np.arange(start + 1, min(start + _LI_BLOCK_TERMS, hi) + 1, dtype=float)
                exponent = np.multiply.outer(minus_s, np.log(n))
                angle = _angles(n, a)
                if not lam:
                    exponent.imag += angle  # z^n n^{-s} as one exponential
                terms = np.exp(exponent, out=exponent)
                np.copyto(terms, 0.0, where=(n <= bounds[0]) | (n > bounds[1]))
                if lam:
                    weights = np.exp(1j * angle)
                    weights += lam * weights.conj()
                    terms *= weights
                total = total + np.add.reduce(terms, axis=1)
            out[block] = total
    return out


def _li_euler_tail(s: np.ndarray, n: np.ndarray, a: float, lam: float, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """sum_{m >= N} (z^m + lam conj(z)^m) m^{-s} per point, given N, from the
    first _LI_ORDER + 1 terms of its Euler transform, and its error estimate:
    (1 + |lam|) times that of one of the two series (their terms have the same
    magnitudes)."""
    coef, scale = _li_constants(a)
    table = np.exp(-s[:, None] * np.log(n[:, None] + _LI_OFFSETS))  # a_{N+j}, a_m = m^{-s}
    diffs = np.einsum("pj,kj->pk", table, _FORWARD_DIFFERENCES)  # Delta^k a_N, row by row
    mag = np.abs(diffs)
    mag *= scale
    used, stop = _first_stop(mag, 0, _LI_NEGLIGIBLE * tol)
    rows = np.arange(s.size)
    # z^{N+k} / (1-z)^{k+1} = z^N coef_k: the phase z^N comes out of the sum
    zn = np.exp(1j * _angles(n, a))
    tail = zn * np.add.accumulate(diffs * coef, axis=1)[rows, used]
    if lam:
        tail += lam * zn.conj() * np.add.accumulate(diffs * coef.conj(), axis=1)[rows, used]
    return tail, (1.0 + abs(lam)) * mag[rows, stop]


def _li_rational(s: np.ndarray, r: int, q: int, cfg: EvalSettings, lam: float = 0.0) -> np.ndarray:
    """Exact finite form Li_s(e^{2 pi i r/q}) + lam Li_s(e^{-2 pi i r/q}) =
    q^{-s} sum_n (e^{2 pi i rn/q} + lam e^{-2 pi i rn/q}) zeta(s, n/q) at an array
    of points, certified as one weighted sum."""
    bases = tuple((n + 1) / q for n in range(q))
    phases = (cmath.exp(2j * math.pi * ((r * (n + 1)) % q) / q) for n in range(q))
    weights = tuple(z + lam * z.conjugate() for z in phases)
    return _zeta_sum(s, bases, weights, cfg, q=q)


def _exprel(z: complex) -> complex:
    """(e^z - 1)/z, 1 at z = 0 (numpy's complex expm1 does not cancel for small |z|; cmath has none)."""
    return complex(np.expm1(z)) / z if z else 1.0 + 0.0j


def _li_functional_equation(s: np.ndarray, a: float, cfg: EvalSettings, lam: float = 0.0) -> np.ndarray:
    """Li_s(e^{2 pi i a}) + lam Li_s(e^{-2 pi i a}) at a 1-D array of points,
    through Li_s(e^{2 pi i a}) = c+ zeta(1-s, a) + c- zeta(1-s, 1-a) with
    c-+ = Gamma(1-s) (2pi)^{s-1} e^{-+ i pi (1-s)/2} from _fe_factors.

    One Euler-Maclaurin pass over the bases (a, 1-a) at w = 1-s, with the point
    weights W = (c+ + lam c-, c- + lam c+), gives the entire parts of the two
    zeta(w, b), certified on the weighted sum.  Their pole parts add
    -sum_j W_j b_j^s / s.  For |s| < 0.25, where that sum cancels against 1/s,
    it is formed as sum_j W_j (1 - b_j^s)/s - (1 + lam)(c- + c+)/s, with
    c- + c+ = 2 g sin(pi s/2) (g = Gamma(w) (2pi)^{-w}): every term is finite
    at s = 0.  A point whose pole terms are beyond the double range raises
    DomainError (deep left of 0 with small a, e.g. Re s = -200 at a = 0.001).
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
    _settle(s, values, rems, cfg)
    return values


def _periodic(pts: np.ndarray, alpha: Alpha, cfg: EvalSettings, lam: float = 0.0) -> np.ndarray:
    """Li_s(e^{2 pi i a}) + lam Li_s(e^{-2 pi i a}) at a 1-D array of points, one
    call per route, each taking lam: for Re s <= SERIES_SIGMA_THRESHOLD the
    functional equation through zeta(1-s, a) and zeta(1-s, 1-a) (s = 0
    included); above it, for exact a = r/q, the weighted Hurwitz sum over
    zeta(s, n/q) while q^{Re s} stays in double range and its Euler-Maclaurin
    pass within _EM_MAX_TERMS; otherwise the series."""
    av = alpha.value
    out = np.empty(pts.shape, dtype=complex)
    fe = pts.real <= SERIES_SIGMA_THRESHOLD
    rational = np.zeros(pts.shape, dtype=bool)
    if alpha.exact is not None:
        q = alpha.exact[1]
        # zeta(s, 1/q) ~ q^s must stay finite until q^{-s} scales it back, and
        # the pass over q bases must stay within the terms _hurwitz_combination allows
        fits = np.array([q * (4 * _em_shift(x) + 1) <= _EM_MAX_TERMS for x in pts.tolist()], dtype=bool)
        rational = ~fe & fits & (np.abs(pts - 1.0) > 5e-3) & (pts.real * math.log(q) < _LOG_DBL_MAX)
    series = ~(fe | rational)
    if fe.any():
        out[fe] = _li_functional_equation(pts[fe], av, cfg, lam)
    if rational.any():
        out[rational] = _li_rational(pts[rational], *alpha.exact, cfg, lam)
    if series.any():
        values, errs = _li_series(pts[series], av, cfg, lam)
        _settle(pts[series], values, errs, cfg)
        out[series] = values
    return out


def periodic_zeta(s, a: AlphaLike, cfg: EvalSettings = DEFAULT_SETTINGS):
    """Periodic zeta Li_s(e^{2 pi i a}) for 0 < a < 1, entire in s.

    ``s`` is a number or an array of points; each route gets its points in one
    call (see _periodic): the functional equation for Re s <= SERIES_SIGMA_THRESHOLD,
    the exact decomposition into Hurwitz zetas zeta(s, n/q) for exact a = r/q,
    otherwise the Dirichlet series (_li_series).
    """
    pts, shape = as_points(s)
    alpha = Alpha.coerce(a)
    if not 0.0 < alpha.value < 1.0:
        raise DomainError("periodic zeta needs 0 < a < 1 (a = 1 is the Riemann zeta)")
    return from_points(_periodic(pts, alpha, cfg), shape)
