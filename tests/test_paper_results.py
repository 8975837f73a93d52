"""The paper's results (1)-(4) on real zeros, checked by two methods.

Each case scans a segment of the real axis and counts the zeros of the same
family in the thin rectangle [lo, hi] x [-delta, delta] around it.  Z, P, Y, O
and X are real on the axis, so their complex zeros come in conjugate pairs; a
count equal to the number of records, every record a sign change, says that
every zero in the rectangle is real, simple and listed.  The periodic zeta is
complex on the axis, but a count of 0 needs no symmetry.

  (1) Li_s(e^{2 pi i a}), a != 1/2, has no real zero.
  (2) Y, O and X vanish on the real line only at -1, -3, ..., all simply.
  (3) Z vanishes only at 0, -2, -4, ..., all simply, iff 1/4 <= a <= 1/2.
  (4) P vanishes only at -2, -4, ..., all simply, iff 1/4 <= a <= 1/2.

Below a = 1/4, Z and P have one more real zero, the one ``beta_zero`` finds.

Right of Re s = 1 the families have complex zeros at rational a, except where
a closed form makes them zeta or one L(s, chi) times a Dirichlet polynomial
(Davenport & Heilbronn, 1936; Saias & Weingartner, 2009).  Tiles of height 20
there count the zeros that mpmath locates, and none where the closed form
leaves none.
"""

import numpy as np
import pytest

from zetazeros import Family, beta_zero, count_zeros_rectangle, eval_family, scan_real_zeros
from zetazeros.zeros import SIMPLE

DELTA = 0.05


def check(fam, a, lo, hi, integers, extra=()):
    """The scan of [lo, hi] finds a simple zero within 1e-8 of each of the integers and of each
    extra location, and nothing else; the thin rectangle counts as many zeros."""
    recs = scan_real_zeros(fam, a, lo, hi)
    want = sorted([*integers, *extra])
    assert len(recs) == len(want), [r.location for r in recs]
    for rec, x in zip(recs, want):
        assert rec.multiplicity_class == SIMPLE, rec
        assert abs(rec.location - x) < 1e-8, (rec.location, x)
    count = count_zeros_rectangle(fam, a, (complex(lo, -DELTA), complex(hi, DELTA))).count
    assert count == len(recs)


@pytest.mark.parametrize("a", (0.1, 0.2, "1/3", 0.45))
@pytest.mark.parametrize("fam", (Family.Y, Family.O, Family.X))
def test_result_2_odd_families_vanish_simply_at_the_negative_odd_integers(fam, a):
    check(fam, a, -16.05, 3.0, range(-15, 0, 2))


@pytest.mark.parametrize("a", (0.26, 0.3, 0.4, "1/2"))
def test_result_3_z_vanishes_simply_at_the_nonpositive_even_integers(a):
    check(Family.Z, a, -14.5, 0.9, range(-14, 1, 2))


def test_result_3_z_at_one_quarter():
    # Z(s, 1/4) = 2^s (2^s - 1) zeta(s) is tiny deep left: further out, the thin
    # rectangle's boundary comes within 1e-6 of a zero and the count refuses it
    check(Family.Z, "1/4", -10.5, 0.9, range(-10, 1, 2))


@pytest.mark.parametrize("a", ("1/4", 0.3, 0.4, "1/2"))
def test_result_4_p_vanishes_simply_at_the_negative_even_integers(a):
    check(Family.P, a, -14.5, 3.0, range(-14, 0, 2))


@pytest.mark.parametrize("a", (0.1, 0.2, 0.24))
def test_below_one_quarter_z_and_p_have_one_more_zero(a):
    # beta_Z = 1 - beta_P: at a = 0.24 P's extra zero is at 3.95, so its segment reaches 4.5
    check(Family.Z, a, -14.5, 0.9, range(-14, 1, 2), [beta_zero(Family.Z, a).beta])
    check(Family.P, a, -14.5, 4.5, range(-14, 0, 2), [beta_zero(Family.P, a).beta])


@pytest.mark.parametrize("a", (0.1, 0.3, 0.45))
def test_result_1_the_periodic_zeta_has_no_real_zero(a):
    check(Family.PERIODIC, a, -14.5, 3.0, ())


# The zeros of Z, Y and O at a = 2/5 in (1, sigma_1) x (1, 101): findroot at
# 30 digits (tests/oracles/make_reference.py).  Right of sigma_1 = 1.755,
# a^{-sigma} exceeds zeta(sigma, 1 + a) + zeta(sigma, 1 - a), so a^{-s}
# dominates Z and Y there.
COMPLEX_ZEROS = {
    Family.Z: [
        complex(1.0513472341688619, 7.5470733112986712),
        complex(1.0382217573207555, 22.371102003808839),
        complex(1.0259483964026656, 52.825519086419164),
        complex(1.0153431959384476, 68.785872901852921),
    ],
    Family.Y: [
        complex(1.1792889488452424, 77.505441554632834),
    ],
    Family.O: [
        complex(1.5162987281558156, 8.9206918335251301),
        complex(1.2636797964754785, 19.135815106287363),
        complex(1.3775383576095425, 26.307319305936641),
        complex(1.0727097202551104, 36.289767393055802),
        complex(1.4940780459921314, 54.531682595877903),
        complex(1.2133977308229136, 64.574296567215414),
        complex(1.3199662169293747, 71.81852560510561),
        complex(1.174118895261114, 82.075830633874269),
        complex(1.0986703640518572, 89.655724357091749),
        complex(1.5415910546416249, 99.861459371803029),
    ],
}


@pytest.mark.parametrize("fam, a, right, zeros", [
    (Family.Z, "2/5", 1.755, COMPLEX_ZEROS[Family.Z]),
    (Family.Y, "2/5", 1.755, COMPLEX_ZEROS[Family.Y]),
    (Family.O, "2/5", 3.0, COMPLEX_ZEROS[Family.O]),
    # Z(s, 1/3) = (3^s - 1) zeta(s) and P(s, 1/3) = (3^{1-s} - 1) zeta(s): no zero right of
    # Re s = 1, though P has zeros on it, so every tile starts right of 1
    (Family.Z, "1/3", 1.546, []),
    (Family.P, "1/3", 3.0, []),
], ids=("Z-2/5", "Y-2/5", "O-2/5", "Z-1/3", "P-1/3"))
def test_complex_zeros_right_of_re_s_one(fam, a, right, zeros):
    left = 1.0005
    for bottom in range(1, 101, 20):
        inside = [z for z in zeros if left < z.real < right and bottom < z.imag < bottom + 20]
        count = count_zeros_rectangle(fam, a, (complex(left, bottom), complex(right, bottom + 20))).count
        assert count == len(inside), (bottom, count, inside)
    # and the library's values vanish at the frozen zeros
    if zeros:
        assert np.abs(eval_family(fam, np.array(zeros), a)).max() < 1e-12
