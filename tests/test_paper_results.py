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
"""

import pytest

from zetazeros import Family, beta_zero, count_zeros_rectangle, scan_real_zeros
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
