"""Dirichlet characters mod q, Gauss sums, L-functions, the linear relations
between L-functions and the composed families, and the rational closed forms.

Characters are built from the cyclic decomposition of (Z/qZ)*; generators are
found by brute-force order computation, which is plenty for q <= 100.  The
character list order is deterministic: lexicographic in the exponent tuple on
the fixed generator list, principal character first.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .core import (
    DEFAULT_SETTINGS,
    Alpha,
    AlphaLike,
    DomainError,
    EvalSettings,
    Family,
    PoleError,
    UnsupportedError,
    as_points,
    from_points,
    require_finite,
)
from .families import eval_family
from .special import _zeta_sum, riemann_zeta

MAX_MODULUS = 100

_SQRT3 = math.sqrt(3.0)


def _root_of_unity(phase: Fraction) -> complex:
    """e^{2 pi i phase} with the cardinal values snapped exactly."""
    phase = phase % 1
    if phase == 0:
        return 1.0 + 0.0j
    if phase == Fraction(1, 2):
        return -1.0 + 0.0j
    if phase == Fraction(1, 4):
        return 0.0 + 1.0j
    if phase == Fraction(3, 4):
        return 0.0 - 1.0j
    return cmath.exp(2j * math.pi * float(phase))


def _power(k: int, s: complex) -> complex:
    """k^s for a positive integer k; DomainError where it overflows a double."""
    try:
        return cmath.exp(s * math.log(k))
    except OverflowError:
        raise DomainError(f"{k}^s overflows at s = {s!r}") from None


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character chi mod q as an explicit value table.

    values[n] = chi(n) for n = 0..q-1; parity = chi(-1); exponents is the
    defining tuple on the generator list (the deterministic ordering key).
    """

    modulus: int
    values: Tuple[complex, ...]
    parity: int
    is_principal: bool
    is_primitive: bool
    conductor: int
    exponents: Tuple[int, ...]

    def __call__(self, n: int) -> complex:
        return self.values[n % self.modulus]

    def conj(self) -> "DirichletCharacter":
        return replace(self, values=tuple(v.conjugate() for v in self.values))


def _prime_power_factors(q: int) -> List[Tuple[int, int]]:
    out = []
    n = q
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _multiplicative_order(g: int, mod: int) -> int:
    x = g % mod
    order = 1
    while x != 1:
        x = (x * g) % mod
        order += 1
    return order


def _primitive_root(pe: int, phi: int) -> int:
    for g in range(2, pe):
        if math.gcd(g, pe) == 1 and _multiplicative_order(g, pe) == phi:
            return g
    raise RuntimeError(f"no primitive root mod {pe}")  # unreachable for p^e, p odd


def _unit_group_generators(q: int) -> List[Tuple[int, int]]:
    """[(generator mod q, order)] for the cyclic decomposition of (Z/qZ)*.

    The 2-part contributes (-1, 2) and (3, 2^{e-2}) for 2^e with e >= 3.
    Generators for distinct prime powers are combined through the CRT lift
    g == gen (mod p^e), g == 1 (mod q / p^e).
    """
    gens: List[Tuple[int, int]] = []
    for p, e in _prime_power_factors(q):
        pe = p**e
        rest = q // pe
        local: List[Tuple[int, int]] = []
        if p == 2:
            if e == 2:
                local.append((3, 2))
            elif e >= 3:
                local.append((pe - 1, 2))
                local.append((3, 2 ** (e - 2)))
        else:
            phi = pe - pe // p
            local.append((_primitive_root(pe, phi), phi))
        for g, order in local:
            if rest == 1:
                gens.append((g % q, order))
            else:
                # CRT lift: g mod pe, 1 mod rest
                inv = pow(rest, -1, pe)
                lifted = (1 + rest * ((inv * (g - 1)) % pe)) % q
                gens.append((lifted, order))
    return gens


@lru_cache(maxsize=None)
def _character_data(q: int) -> Tuple[DirichletCharacter, ...]:
    if q < 1:
        raise DomainError("modulus must be positive")
    if q > MAX_MODULUS:
        raise UnsupportedError(f"characters supported only for q <= {MAX_MODULUS}")
    if q == 1:
        chi = DirichletCharacter(1, (1.0 + 0.0j,), 1, True, True, 1, ())
        return (chi,)

    gens = _unit_group_generators(q)
    orders = [d for _, d in gens]
    # every exponent tuple on the generators, in lexicographic order (principal first)
    tuples = list(itertools.product(*map(range, orders)))

    # discrete log table: unit n -> exponent tuple on the generators
    dlog = {math.prod(pow(g, e, q) for (g, _), e in zip(gens, exps)) % q: exps for exps in tuples}

    divisors = [d for d in range(1, q + 1) if q % d == 0]
    chars: List[DirichletCharacter] = []
    for ks in tuples:
        values: List[complex] = []
        for n in range(q):
            if math.gcd(n, q) != 1:
                values.append(0.0 + 0.0j)
            else:
                exps = dlog[n]
                phase = sum(Fraction(k * e, d) for k, e, d in zip(ks, exps, orders))
                values.append(_root_of_unity(phase))
        parity = 1 if abs(values[(q - 1) % q] - 1.0) < 1e-9 else -1
        principal = all(ks_i == 0 for ks_i in ks)
        conductor = q
        for d in divisors:
            # chi is induced mod d iff chi(n) = 1 whenever n == 1 (mod d), gcd(n,q)=1
            if all(
                abs(values[n] - 1.0) < 1e-9
                for n in range(q)
                if math.gcd(n, q) == 1 and n % d == 1 % d
            ):
                conductor = d
                break
        chars.append(
            DirichletCharacter(
                modulus=q,
                values=tuple(values),
                parity=parity,
                is_principal=principal,
                is_primitive=(conductor == q),
                conductor=conductor,
                exponents=ks,
            )
        )
    return tuple(chars)


def characters_mod(q: int) -> List[DirichletCharacter]:
    """All phi(q) Dirichlet characters mod q, deterministic order, q <= 100."""
    return list(_character_data(q))


def euler_phi(q: int) -> int:
    return sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1)


def gauss_sum(chi: DirichletCharacter) -> complex:
    """G(chi) = sum_{r=1}^{q} chi(r) e^{2 pi i r / q}, direct O(q) sum."""
    q = chi.modulus
    total = 0.0 + 0.0j
    for r in range(1, q + 1):
        v = chi(r)
        if v != 0.0:
            total += v * _root_of_unity(Fraction(r, q))
    return total


def l_function(chi: DirichletCharacter, s, cfg: EvalSettings = DEFAULT_SETTINGS):
    """L(s, chi) = q^{-s} sum_r chi(r) zeta(s, r/q), certified as one sum, at a number or an array s."""
    pts, shape = as_points(s)
    q = chi.modulus
    units = [r for r in range(1, q + 1) if chi(r) != 0.0]
    return from_points(_zeta_sum(pts, [r / q for r in units], [chi(r) for r in units], cfg, q=q), shape)


def chi_minus3() -> DirichletCharacter:
    """The odd character mod 3 (1, -1 pattern)."""
    return characters_mod(3)[1]


def chi_minus4() -> DirichletCharacter:
    """The odd character mod 4 (1 at 1 mod 4, -1 at 3 mod 4)."""
    return characters_mod(4)[1]


def chi_minus6() -> DirichletCharacter:
    """The odd character mod 6 (1 at 1 mod 6, -1 at 5 mod 6)."""
    return characters_mod(6)[1]


# ---------------------------------------------------------------------------
# Linear relations in both directions, from one coefficient per family.

# The unit of each relation's coefficient: c(chi, r) = unit chi(r) G(conj chi) for P and O, and
# q^s conj(chi)(r) for Z and Y (None).  The characters' parity chi(-1) and the trig function of
# the gcd(n, q) > 1 completion (P: cos, O: sin) follow Family.odd_symmetric.
_RELATIONS: Dict[Family, Optional[complex]] = {Family.Z: None, Family.Y: None, Family.P: 1.0, Family.O: -1j}


def _coefficients(
    unit: Optional[complex], chars: List[DirichletCharacter], q: int, pts: np.ndarray
) -> Tuple[Union[complex, np.ndarray], Callable[[int], List[complex]]]:
    """c(chi, n) for each chi in chars, as the factor they share (q^s at each point, or a
    constant) and a function of n that gives the factor of each chi."""
    if unit is None:
        common = np.array([_power(q, x) for x in pts.tolist()], dtype=complex)
        return common, lambda n: [chi(n).conjugate() for chi in chars]
    gauss = [gauss_sum(chi.conj()) for chi in chars]
    return unit, lambda n: [chi(n) * g for chi, g in zip(chars, gauss)]


def _family_at_fractions(fam: Family, pts: np.ndarray, ns: List[int], q: int, cfg: EvalSettings) -> List[np.ndarray]:
    """family(s, n/q) at an array of points for each 0 < n < q in ns, one evaluation per pair
    {n, q - n}: the a <-> 1-a symmetry reaches the (0, 1/2] domain of the composed families."""
    values = {m: eval_family(fam, pts, Alpha.coerce(Fraction(m, q)), cfg) for m in sorted({min(n, q - n) for n in ns})}
    return [values[n] if 2 * n <= q else (-values[q - n] if fam.odd_symmetric else values[q - n]) for n in ns]


def linear_relation_residual(
    fam: Family,
    r,
    q: int,
    s,
    cfg: EvalSettings = DEFAULT_SETTINGS,
    direction: str = "family_from_l",
):
    """Residual of the character-sum linear relations, both sides independent.

    chi runs over the characters mod q of the family's parity (even for Z and
    P, odd for Y and O), with the coefficient c(chi, r) = q^s conj(chi)(r) for
    Z and Y, chi(r) G(conj chi) for P and -i chi(r) G(conj chi) for O.
    direction="family_from_l" gives |family(s, r/q) - right side| in

        family(s, r/q) = 1/phi(q) sum_chi 2 c(chi, r) L(s, chi)
                         + q^{-s} sum_{gcd(n,q)>1} 2 trig(2 pi r n/q) zeta(s, n/q),

    the last sum for P (trig = cos) and O (trig = sin) only: the Gauss-sum
    expansion of e^{2 pi i rn/q} covers only residues coprime to q, and
    without it the residual at q = 5, r = 1 is exactly 2 q^{-s} zeta(s).
    direction="l_from_family" gives the max over chi of |L(s, chi) - right side| in

        L(s, chi) = 1/2 sum_{gcd(n,q)=1} family(s, n/q) / c(chi, n),

    the same relation inverted by the orthogonality of the characters; for O
    it reads L = +i/(2 G(conj chi)) sum_n conj(chi)(n) O(s, n/q), so that
    O(s, 1/4) = 2 L(s, chi mod 4).  For P and O it relies on G(conj chi, n) =
    chi(n) G(conj chi) for all n, i.e. on chi primitive, and is checked for
    primitive characters only: a modulus with no primitive character of the
    family's parity (P: q = 2, 3, 4, 6, 10, 14, ...; O: q = 6, 10, 12, 14, ...)
    raises UnsupportedError.  L(s, chi) of the principal character leaves the
    max at s = 1, its pole.  This direction sums over every unit n, so it only
    validates ``r``: every admissible r gets the same residuals.

    ``r`` is an int or a sequence of ints, ``s`` a number or an array; the
    result has r's shape in front of s's shape (a float when both are scalar).
    Each L(s, chi), and family(s, n/q) for each pair {n, q - n}, is one kernel
    call over all the points for every r; only the coefficients are formed
    point by point, and the q^s column and the Gauss sums once per call.
    """
    if fam not in _RELATIONS:
        raise DomainError(f"linear relations cover Z, P, Y, O; got {fam}")
    unit = _RELATIONS[fam]
    if direction not in ("family_from_l", "l_from_family"):
        raise DomainError(f"unknown direction {direction!r}")
    pts, shape = as_points(s)
    rs = np.ravel(r).tolist()
    if any(math.gcd(n, q) != 1 or not 0 < n < q for n in rs):
        raise DomainError("need 0 < r < q with gcd(r, q) = 1")
    parity = -1 if fam.odd_symmetric else 1  # chi(-1) of the characters in the sums
    if parity < 0 and not all(0 < 2 * n < q for n in rs):
        raise DomainError("odd-family relations need 0 < 2r < q")
    chars = [chi for chi in characters_mod(q) if chi.parity == parity]
    phi = euler_phi(q)

    if direction == "family_from_l":
        lhs = _family_at_fractions(fam, pts, rs, q, cfg)
        common, parts_at = _coefficients(unit, chars, q, pts)
        ls = [l_function(chi, pts, cfg) for chi in chars]
        shared = [n for n in range(1, q + 1) if math.gcd(n, q) > 1]
        trig = math.sin if fam.odd_symmetric else math.cos  # of the completion over shared, for P and O
        rows = []
        for n, value in zip(rs, lhs):
            total = sum(2 * part * l for part, l in zip(parts_at(n), ls))  # accumulated in the order of chars
            # the shared factor scales the sum, in this order: it sets the rounding that verify prints
            if unit is None:
                rows.append(np.abs(value - common / phi * total))
                continue
            weights = [2.0 * trig(2.0 * math.pi * ((n * m) % q) / q) for m in shared]
            completion = _zeta_sum(pts, [m / q for m in shared], weights, cfg, q=q)
            rows.append(np.abs(value - (common * total / phi + completion)))
    else:
        chars = [chi for chi in chars if unit is None or chi.is_primitive]
        if not chars:
            kind = "odd" if parity < 0 else "even"
            raise UnsupportedError(
                f"no primitive {kind} character mod {q}: l_from_family has nothing to check for {fam.value}"
            )
        # L(s, chi) of the principal character has its pole at s = 1 and leaves the max there: alone
        # (q = 2) it leaves residual 0 at those points, and beside other characters Z(1, n/q) raises
        live = pts != 1.0 if all(chi.is_principal for chi in chars) else np.ones(pts.shape, dtype=bool)
        res = np.zeros(pts.shape)
        if live.any():
            sub = pts[live]
            units = [n for n in range(1, q) if math.gcd(n, q) == 1]
            common, parts_at = _coefficients(unit, chars, q, sub)
            rhs = 0.0
            for n, value in zip(units, _family_at_fractions(fam, sub, units, q, cfg)):  # (chars, points)
                rhs = rhs + value / (np.array(parts_at(n))[:, None] * common)
            lhs = np.array([l_function(chi, sub, cfg) for chi in chars])
            res[live] = np.abs(lhs - rhs / 2.0).max(axis=0)
        rows = [res] * len(rs)
    out = np.array(rows).reshape(np.shape(r) + shape)
    return float(out) if out.shape == () else out


# ---------------------------------------------------------------------------
# Closed forms at a = 1/2, 1/3, 1/4, 1/6.

def f_factor(s: complex) -> complex:
    """f(s) = 3^s / sqrt(3); |f| = 1 exactly on the critical line."""
    s = require_finite(s)
    return _power(3, s) / _SQRT3


def g_factor(s: complex) -> complex:
    """g(s) = (1 + 2^{1-s}) / (1 + 2^s); |g| = 1 on the critical line,
    < 1 to its right, > 1 to its left; g(1-s) g(s) = 1.

    Poles sit on sigma = 0 at t = pi (2k+1) / log 2."""
    s = require_finite(s)
    denom = 1.0 + _power(2, s)
    if abs(denom) < 1e-9:
        raise DomainError(f"g(s) pole: 1 + 2^s = 0 at s = {s!r}")
    return (1.0 + _power(2, 1.0 - s)) / denom


# Z(s, a) = c(2^s, 3^s) zeta(s) and P(s, a) = c(2^{1-s}, 3^{1-s}) zeta(s).
_ZETA_MULTIPLES = {
    Fraction(1, 2): lambda two, three: 2.0 * (two - 1.0),
    Fraction(1, 3): lambda two, three: three - 1.0,
    Fraction(1, 4): lambda two, three: two * (two - 1.0),
    Fraction(1, 6): lambda two, three: (two - 1.0) * (three - 1.0),
}

# Y(s, a) = y(s) L(s, chi) and O(s, a) = o(s) L(s, chi), as a -> (chi, s -> (y, o));
# X = Y + O.  At a = 1/2, Y, O and X vanish identically.
_L_MULTIPLES = {
    Fraction(1, 3): (chi_minus3, lambda s: (_power(3, s), _SQRT3)),
    Fraction(1, 4): (chi_minus4, lambda s: (_power(4, s), 2.0)),
    Fraction(1, 6): (chi_minus3, lambda s: (_power(6, s) + _power(3, s), _SQRT3 * (1.0 + _power(2, 1.0 - s)))),
}


def _closed_form_covers(fam: Family, alpha: Alpha) -> bool:
    """Whether closed_form_identity has a closed form for (fam, alpha), decided without evaluating."""
    return fam.is_composed and alpha.exact is not None and Fraction(*alpha.exact) in _ZETA_MULTIPLES


def _closed_form_value(fam: Family, frac: Fraction, pts: np.ndarray, cfg: EvalSettings) -> np.ndarray:
    if fam in (Family.Z, Family.P):
        if (pts == 1.0).any():
            # P's prefactors vanish at s = 1 against the zeta pole; P(1, a) is
            # covered by special_values instead.
            raise PoleError(f"closed form for {fam.name} uses zeta(s), singular at s = 1", 1.0 + 0.0j)
        multiple = _ZETA_MULTIPLES[frac]
        exponents = pts if fam is Family.Z else 1.0 - pts
        coeffs = [multiple(_power(2, e), _power(3, e)) for e in exponents.tolist()]
        return np.array(coeffs, dtype=complex) * riemann_zeta(pts, cfg)
    if frac == Fraction(1, 2):
        return np.zeros(pts.shape, dtype=complex)
    chi, multiples = _L_MULTIPLES[frac]
    y, o = np.array([multiples(x) for x in pts.tolist()], dtype=complex).reshape(-1, 2).T
    return {Family.Y: y, Family.O: o, Family.X: y + o}[fam] * l_function(chi(), pts, cfg)


def closed_form_identity(fam: Family, a: AlphaLike, s, cfg: EvalSettings = DEFAULT_SETTINGS):
    """(direct kernel evaluation, closed-form evaluation) for comparison.

    Covered: Z and P at a in {1/2, 1/3, 1/4, 1/6}; Y, O, X at {1/2, 1/3,
    1/4, 1/6} through L(s, chi_{-3}) / L(s, chi_{-4}).  ``s`` is a number
    (two complexes) or an array of points (two arrays of its shape): each
    side is one kernel call over all the points, and only the powers k^s of
    the closed form are taken point by point.
    """
    pts, shape = as_points(s)
    alpha = Alpha.coerce(a)
    if alpha.exact is None:
        raise UnsupportedError("closed forms require an exact rational a (use \"r/q\" syntax)")
    if not _closed_form_covers(fam, alpha):
        raise UnsupportedError(f"no closed form for family {fam.name} at a = {alpha}")
    closed = _closed_form_value(fam, Fraction(*alpha.exact), pts, cfg)
    direct = eval_family(fam, pts, alpha, cfg)
    return from_points(direct, shape), from_points(closed, shape)
