"""Shared parameter types, family tags and exceptions."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

import numpy as np


class ZetaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ZetaError, ValueError):
    """An argument is outside the domain of the requested operation."""


class PoleError(ZetaError):
    """Evaluation was requested at a pole.

    ``location`` is the pole position.  ``limits`` optionally carries the
    one-sided limits along the real axis as ``(left, right)`` when they are
    signed infinities (e.g. Z at s = 1).
    """

    def __init__(self, message: str, location: complex, limits: Optional[Tuple[float, float]] = None):
        super().__init__(message)
        self.location = location
        self.limits = limits


class UnsupportedError(ZetaError, ValueError):
    """The requested order / modulus / identity is outside the supported table."""


class ConvergenceError(ZetaError):
    """An iterative procedure failed to converge within its budget."""


class BoundaryError(ZetaError):
    """A contour passes too close to a zero; reposition the rectangle."""


class AccuracyWarning(UserWarning):
    """The internal remainder bound could not certify the requested tolerance."""


class Family(enum.Enum):
    """Which function is meant by an evaluation request."""

    HURWITZ = "hurwitz"
    PERIODIC = "periodic"
    RIEMANN = "riemann"
    Z = "Z"
    P = "P"
    Y = "Y"
    O = "O"
    X = "X"
    L_CHI = "L"

    @property
    def is_composed(self) -> bool:
        return self in (Family.Z, Family.P, Family.Y, Family.O, Family.X)

    @property
    def odd_symmetric(self) -> bool:
        """True for the families that flip sign under a -> 1 - a."""
        return self in (Family.Y, Family.O, Family.X)


_FAMILY_ALIASES = {f.value.lower(): f for f in Family}
_FAMILY_ALIASES.update({f.name.lower(): f for f in Family})
_FAMILY_ALIASES["l_chi"] = Family.L_CHI


def parse_family(text: str) -> Family:
    try:
        return _FAMILY_ALIASES[text.strip().lower()]
    except KeyError:
        raise DomainError(f"unknown family {text!r}") from None


@dataclass(frozen=True)
class Alpha:
    """The shift/rotation parameter a in (0, 1].

    ``exact`` carries a reduced fraction (r, q) when the value is known
    exactly; exact values unlock the rational fast paths (closed forms,
    character decompositions).  Plain floats never do, so 0.25 and "1/4"
    deliberately behave differently.
    """

    value: float
    exact: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if not (0.0 < self.value <= 1.0) or math.isnan(self.value):
            raise DomainError(f"alpha must lie in (0, 1], got {self.value!r}")
        if self.exact is not None:
            r, q = self.exact
            if q <= 0 or r <= 0 or r > q or math.gcd(r, q) != 1:
                raise DomainError(f"exact alpha must be a reduced fraction in (0, 1], got {r}/{q}")
            if self.value != r / q:
                raise DomainError(f"exact fraction {r}/{q} disagrees with value {self.value!r}")

    @staticmethod
    def coerce(x: Union["Alpha", float, int, Fraction, str]) -> "Alpha":
        if isinstance(x, Alpha):
            return x
        if isinstance(x, Fraction):
            return Alpha(float(x), (x.numerator, x.denominator))
        if isinstance(x, int):
            return Alpha(float(x), (x, 1))
        if isinstance(x, str):
            return Alpha.parse(x)
        return Alpha(float(x))

    @staticmethod
    def parse(text: str) -> "Alpha":
        """Parse "r/q" as an exact rational, anything else as a float; malformed
        text raises DomainError."""
        text = text.strip()
        num, slash, den = text.partition("/")
        try:
            value = Fraction(int(num), int(den)) if slash else float(text)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in {text!r}") from None
        except ValueError:
            raise DomainError(f"alpha must be a number or \"r/q\", got {text!r}") from None
        return Alpha.coerce(value)

    def __str__(self) -> str:
        if self.exact is not None:
            return f"{self.exact[0]}/{self.exact[1]}"
        return repr(self.value)


AlphaLike = Union[Alpha, float, int, Fraction, str]


@dataclass(frozen=True)
class EvalSettings:
    """What the kernels must certify.

    target_abs_tol: absolute tolerance the remainder bound must certify
        (relative once the value exceeds 1), else an AccuracyWarning is
        attached.
    """

    target_abs_tol: float = 1e-12

    def __post_init__(self):
        if not self.target_abs_tol > 0:
            raise DomainError("target_abs_tol must be > 0")


DEFAULT_SETTINGS = EvalSettings()

# Grids (CLI ranges, real-axis scans) with more points are refused before they are built.
MAX_GRID_POINTS = 10**6


def require_finite(s: complex) -> complex:
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"point must be finite, got {s!r}")
    return s


def as_points(s) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """A number or an array of numbers as a flat complex array of finite
    points, plus the shape to hand results back in (``()`` for a number)."""
    pts = np.asarray(s, dtype=complex)
    finite = np.isfinite(pts)
    if not finite.all():  # the first point that is not finite, not the whole array
        raise DomainError(f"point must be finite, got {complex(pts[~finite][0])!r}")
    return pts.reshape(-1), pts.shape


def from_points(values: np.ndarray, shape: Tuple[int, ...]):
    """Undo ``as_points``: a Python complex for shape (), else an array of that shape."""
    return complex(values[0]) if shape == () else values.reshape(shape)
