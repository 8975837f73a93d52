"""The composed families Z, P, Y, O, X, their functional equations, exact
special values and the a-derivative identities.

eval_family dispatches every family it evaluates through one table,
_EVALUATORS, which maps the family to its kernel call on a 1-D array of
points (0 < a <= 1/2 for the composed families; Y, O and X are 0 at a = 1/2):

  Z(s,a) = zeta(s,a) + zeta(s,1-a)         _zeta_sum, weights (1, 1); pole at s = 1
  Y(s,a) = zeta(s,a) - zeta(s,1-a)         _zeta_sum, weights (1, -1); entire
  P(s,a) = Li_s(e^{2pi i a}) + Li_s(e^{-2pi i a})        _periodic, lam = 1
  O(s,a) = -i (Li_s(e^{2pi i a}) - Li_s(e^{-2pi i a}))   -i _periodic, lam = -1
  X(s,a) = Y(s,a) + O(s,a)                 the Y row plus the O row
  hurwitz, periodic, riemann               hurwitz_zeta, periodic_zeta, riemann_zeta

Z and Y each take one paired Euler-Maclaurin pass, certified on the sum;
below Re s = 0 special._hurwitz_reflect pairs the bases a and 1-a into one
series at 1-s times the cosine or sine factor, c- + c+ or c- - c+.  P, O and
the periodic zeta (lam = 0) take the routes of special._periodic, one call
per route, each formed with lam (never as two periodic zetas): for
Re s <= special.SERIES_SIGMA_THRESHOLD one Euler-Maclaurin pass over
zeta(1-s, a) and zeta(1-s, 1-a) with point weights, finite through s = 0;
above it, one weighted Hurwitz sum for exact a = r/q, or one Dirichlet series
with phases e^{2pi i an} + lam e^{-2pi i an}.

Every route returns its values and their bounds and never warns.  The
certification is in two places: special._zeta_sum (Z, Y, the Hurwitz and
Riemann zetas, the rational sums and L) takes the reflection at its
uncertified points left of Re s = 0 and then warns, and special._periodic
(P, O and the periodic zeta) warns once for its functional-equation and
series points.  The factors of the functional equations
(special._fe_factors, formed in log space) are taken point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

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


def _zeta_pair(s: np.ndarray, a: Alpha, cfg: EvalSettings, sign: float) -> np.ndarray:
    """zeta(s, a) + sign zeta(s, 1-a): Z for sign = 1, Y for sign = -1, one paired pass."""
    if sign > 0.0 and (s == 1.0).any():
        raise PoleError(
            "Z(s, a) has a simple pole at s = 1 (limit +inf from the right, -inf from the left)",
            1.0 + 0.0j,
            limits=(-math.inf, math.inf),
        )
    return _zeta_sum(s, (a.value, 1.0 - a.value), (1.0, sign), cfg)


# every evaluable family -> its kernel call on a 1-D complex array of points
_EVALUATORS: Dict[Family, Callable[[np.ndarray, Alpha, EvalSettings], np.ndarray]] = {
    Family.Z: lambda s, a, cfg: _zeta_pair(s, a, cfg, 1.0),
    Family.Y: lambda s, a, cfg: _zeta_pair(s, a, cfg, -1.0),
    Family.P: lambda s, a, cfg: _periodic(s, a, cfg, 1.0),
    Family.O: lambda s, a, cfg: -1j * _periodic(s, a, cfg, -1.0),
    Family.X: lambda s, a, cfg: _EVALUATORS[Family.Y](s, a, cfg) + _EVALUATORS[Family.O](s, a, cfg),
    Family.HURWITZ: hurwitz_zeta,
    Family.PERIODIC: periodic_zeta,
    Family.RIEMANN: lambda s, a, cfg: riemann_zeta(s, cfg),
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
    row = _EVALUATORS.get(fam)
    if row is None:
        raise DomainError(f"eval_family cannot evaluate {fam}; L-functions require a character")
    if fam.is_composed:
        _check_composed_alpha(alpha)
    # Y, O and X flip sign under a -> 1 - a, so at a = 1/2 they vanish identically
    if fam.odd_symmetric and alpha.value == 0.5:
        return from_points(np.zeros(pts.shape, dtype=complex), shape)
    return from_points(row(pts, alpha, cfg), shape)


# family -> partner for family(1-s) = 2 Gamma(s) (2pi)^{-s} trig(pi s/2) partner(s), where trig is
# sin for the families odd under a -> 1 - a (Family.odd_symmetric) and cos for the even ones
FUNCTIONAL_EQUATION_TABLE: Dict[Family, Family] = {
    Family.Z: Family.P,
    Family.P: Family.Z,
    Family.Y: Family.O,
    Family.O: Family.Y,
    Family.X: Family.X,
}


def functional_equation_pair(fam: Family, s, a: AlphaLike, cfg: EvalSettings = DEFAULT_SETTINGS):
    """Both sides of family(1-s,a) = 2 Gamma(s) (2pi)^{-s} trig(pi s/2) partner(s,a).

    Callers assert the closeness of the two sides.  ``s`` is a number (the
    sides are two complexes) or an array of points (two arrays of its shape):
    each side is one ``eval_family`` call over all the points, and only the
    factor is formed point by point.  The two sides are not always computed
    independently: for P and O at Re s >= 0.25 the left side at 1 - s takes
    the functional-equation route, which is the partner's own
    Euler-Maclaurin pass at s, so there the pair checks the factor algebra
    only (relative residuals about 1e-16, against about 3e-14 for Z and Y at
    a = 0.3 and Re s in [0.3, 6]).  Every point needs Re s > 0 and s != 1.
    """
    pts, shape = as_points(s)
    if not (pts.real > 0.0).all():
        raise DomainError("functional equation pair needs Re s > 0")
    if (pts == 1.0).any():
        raise DomainError("functional equation pair is not defined at s = 1")
    if fam not in FUNCTIONAL_EQUATION_TABLE:
        raise DomainError(f"functional equation pairs cover Z, P, Y, O, X; got {fam}")
    alpha = _check_composed_alpha(Alpha.coerce(a))
    lhs = eval_family(fam, 1.0 - pts, alpha, cfg)
    c_minus, c_plus, _ = _fe_factor_columns(pts)
    factor = 1j * (c_minus - c_plus) if fam.odd_symmetric else c_minus + c_plus
    partner = eval_family(FUNCTIONAL_EQUATION_TABLE[fam], pts, alpha, cfg)
    return from_points(lhs, shape), from_points(factor * partner, shape)


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
