"""The composed families Z, P, Y, O, X, their functional equations, exact
special values and the a-derivative identities.

Evaluation routes (0 < a <= 1/2 throughout):

  Z(s,a) = zeta(s,a) + zeta(s,1-a)               simple pole at s = 1
  Y(s,a) = zeta(s,a) - zeta(s,1-a)               entire; Z and Y each take one
           paired Euler-Maclaurin pass, certified on the sum; below Re s = 0
           special._hurwitz_reflect pairs the bases a and 1-a into one series
           at 1-s times the cosine or sine factor, c- + c+ or c- - c+
  P(s,a) = Li_s(e^{2pi i a}) + Li_s(e^{2pi i(1-a)})   entire
  O(s,a) = -i (Li_s(e^{2pi i a}) - Li_s(e^{2pi i(1-a)}))  entire
  X(s,a) = Y(s,a) + O(s,a)

P and O are Li_s(e^{2pi i a}) + lam Li_s(e^{-2pi i a}) with lam = 1 and -1
(times -i), and the periodic zeta is lam = 0: all three take the routes of
special._periodic, one call per route, each formed with lam (never as two
periodic zetas): for Re s <= special.SERIES_SIGMA_THRESHOLD one Euler-Maclaurin
pass over zeta(1-s, a) and zeta(1-s, 1-a) with point weights, finite through
s = 0; above it, one weighted Hurwitz sum for exact a = r/q, or one Dirichlet
series with phases e^{2pi i an} + lam e^{-2pi i an}.

The evaluators work on arrays of points: each route gets the points that
need it in one kernel call, and the factors of the functional equations
(special._fe_factors, formed in log space) are taken point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from .core import (
    DEFAULT_SETTINGS,
    Alpha,
    AlphaLike,
    DomainError,
    EvalSettings,
    Family,
    PoleError,
    as_points,
    from_points,
    require_finite,
)
from .special import (
    _fe_factor_columns,
    _periodic,
    _zeta_sum,
    gamma,  # noqa: F401  (unused here; perfbench's tracer test patches families.gamma)
    hurwitz_pair_diff,
    hurwitz_zeta,
    periodic_zeta,
    riemann_zeta,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpecialValues:
    """Exact closed-form values at s = 0 and s = 1 for a given a."""

    z_at_0: complex
    p_at_0: complex
    p_at_1: complex
    li_at_0: complex


def _check_composed_alpha(a: Alpha) -> Alpha:
    if not 0.0 < a.value <= 0.5:
        raise DomainError(f"composed families require a in (0, 1/2], got {a.value!r}")
    return a


# Each evaluator takes a 1-D complex array of points and returns their values.

def z_family(s: np.ndarray, a: Alpha, cfg: EvalSettings = DEFAULT_SETTINGS) -> np.ndarray:
    if (s == 1.0).any():
        raise PoleError(
            "Z(s, a) has a simple pole at s = 1 (limit +inf from the right, -inf from the left)",
            1.0 + 0.0j,
            limits=(-math.inf, math.inf),
        )
    return _zeta_sum(s, (a.value, 1.0 - a.value), (1.0, 1.0), cfg)


def y_family(s: np.ndarray, a: Alpha, cfg: EvalSettings = DEFAULT_SETTINGS) -> np.ndarray:
    if a.value == 0.5:
        return np.zeros(s.shape, dtype=complex)
    return hurwitz_pair_diff(s, a.value, cfg)


def p_family(s: np.ndarray, a: Alpha, cfg: EvalSettings = DEFAULT_SETTINGS) -> np.ndarray:
    return _periodic(s, a, cfg, 1.0)


def o_family(s: np.ndarray, a: Alpha, cfg: EvalSettings = DEFAULT_SETTINGS) -> np.ndarray:
    if a.value == 0.5:
        return np.zeros(s.shape, dtype=complex)
    return -1j * _periodic(s, a, cfg, -1.0)


def x_family(s: np.ndarray, a: Alpha, cfg: EvalSettings = DEFAULT_SETTINGS) -> np.ndarray:
    return y_family(s, a, cfg) + o_family(s, a, cfg)


_EVALUATORS: Dict[Family, Callable[[np.ndarray, Alpha, EvalSettings], np.ndarray]] = {
    Family.Z: z_family,
    Family.P: p_family,
    Family.Y: y_family,
    Family.O: o_family,
    Family.X: x_family,
}


def eval_family(fam: Family, s, a: AlphaLike, cfg: EvalSettings = DEFAULT_SETTINGS):
    """Evaluate one of the supported families at s.

    ``s`` is a number (the result is a complex) or an array of points (the
    result is an array of the same shape, computed in batched kernel calls).
    Composed families restrict a to (0, 1/2]; the Hurwitz zeta takes (0, 1]
    and the periodic zeta (0, 1).  L-functions need a character: see
    ``zetazeros.dirichlet.l_function``.
    """
    pts, shape = as_points(s)
    alpha = Alpha.coerce(a)
    if fam.is_composed:
        values = _EVALUATORS[fam](pts, _check_composed_alpha(alpha), cfg)
    elif fam is Family.HURWITZ:
        values = hurwitz_zeta(pts, alpha, cfg)
    elif fam is Family.PERIODIC:
        values = periodic_zeta(pts, alpha, cfg)
    elif fam is Family.RIEMANN:
        values = riemann_zeta(pts, cfg)
    else:
        raise DomainError(f"eval_family cannot evaluate {fam}; L-functions require a character")
    return from_points(values, shape)


# (family, partner, trig) for family(1-s) = 2 Gamma(s) (2pi)^{-s} trig(pi s/2) partner(s)
FUNCTIONAL_EQUATION_TABLE: Dict[Family, Tuple[Family, str]] = {
    Family.Z: (Family.P, "cos"),
    Family.P: (Family.Z, "cos"),
    Family.Y: (Family.O, "sin"),
    Family.O: (Family.Y, "sin"),
    Family.X: (Family.X, "sin"),
}


def functional_equation_pair(fam: Family, s, a: AlphaLike, cfg: EvalSettings = DEFAULT_SETTINGS):
    """Both sides of family(1-s,a) = 2 Gamma(s) (2pi)^{-s} trig(pi s/2) partner(s,a).

    The two sides are evaluated through independent kernel routes; callers
    assert their closeness.  ``s`` is a number (the sides are two complexes)
    or an array of points (two arrays of its shape): each side is one
    ``eval_family`` call over all the points, and only the factor is formed
    point by point.  Every point needs Re s > 0 and s != 1.
    """
    pts, shape = as_points(s)
    if not (pts.real > 0.0).all():
        raise DomainError("functional equation pair needs Re s > 0")
    if (pts == 1.0).any():
        raise DomainError("functional equation pair is not defined at s = 1")
    if fam not in FUNCTIONAL_EQUATION_TABLE:
        raise DomainError(f"functional equation pairs cover Z, P, Y, O, X; got {fam}")
    alpha = _check_composed_alpha(Alpha.coerce(a))
    partner, trig = FUNCTIONAL_EQUATION_TABLE[fam]
    lhs = eval_family(fam, 1.0 - pts, alpha, cfg)
    c_minus, c_plus = _fe_factor_columns(pts)
    factor = c_minus + c_plus if trig == "cos" else 1j * (c_minus - c_plus)
    return from_points(lhs, shape), from_points(factor * eval_family(partner, pts, alpha, cfg), shape)


def special_values(a: AlphaLike) -> SpecialValues:
    """Exact closed forms: Z(0,a) = 0, P(0,a) = -1, P(1,a) = -2 log(2 sin pi a),
    and the periodic zeta at s = 0."""
    alpha = Alpha.coerce(a)
    av = alpha.value
    if not 0.0 < av < 1.0:
        raise DomainError("special values need 0 < a < 1")
    return SpecialValues(
        z_at_0=0.0 + 0.0j,
        p_at_0=-1.0 + 0.0j,
        p_at_1=complex(-2.0 * math.log(2.0 * math.sin(math.pi * av))),
        li_at_0=complex(-0.5, 0.5 / math.tan(math.pi * av)),
    )


def partial_a(fam: Family, s: complex, a: AlphaLike, cfg: EvalSettings = DEFAULT_SETTINGS) -> complex:
    """d/da of the Hurwitz zeta, Z, or P:

      HURWITZ -> -s zeta(s+1, a)     (s != 0)
      Z       -> -s Y(s+1, a)        (s != 0)
      P       -> -2 pi O(s-1, a)
    """
    s = require_finite(s)
    alpha = Alpha.coerce(a)
    if fam is Family.HURWITZ:
        if s == 0.0:
            raise PoleError("d/da zeta pole: s + 1 = 1", 0.0 + 0.0j)
        return -s * hurwitz_zeta(s + 1.0, alpha, cfg)
    if fam is Family.Z:
        if s == 0.0:
            raise PoleError("d/da Z pole: s + 1 = 1", 0.0 + 0.0j)
        return -s * eval_family(Family.Y, s + 1.0, alpha, cfg)
    if fam is Family.P:
        return -_TWO_PI * eval_family(Family.O, s - 1.0, alpha, cfg)
    raise DomainError(f"partial_a supports HURWITZ, Z, P; got {fam}")
