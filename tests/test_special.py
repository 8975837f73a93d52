"""Kernel-level tests: Bernoulli data, complex gamma, Hurwitz (Euler-Maclaurin
plus continuation), periodic zeta paths, and the stated analytic invariants.

Reference constants were produced by tests/oracles/make_reference.py
(mpmath, 50 digits) and are frozen here.
"""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from zetazeros import (
    DEFAULT_SETTINGS,
    AccuracyWarning,
    Alpha,
    DomainError,
    EvalSettings,
    PoleError,
    UnsupportedError,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_exact,
    gamma,
    hurwitz_pair_diff,
    hurwitz_zeta,
    log_gamma,
    periodic_zeta,
    riemann_zeta,
    special,
)


# ---------------------------------------------------------------------------
# Bernoulli polynomials

def test_bernoulli_numbers_classical_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert bernoulli_number(60).denominator == 56786730


def test_bernoulli_poly_spec_examples():
    assert bernoulli_poly(0, 0.7) == 1.0
    assert bernoulli_poly(1, 0.5) == 0.0
    # B_2(x) = x^2 - x + 1/6 at 1/4: -1/48
    assert bernoulli_poly(2, 0.25) == pytest.approx(-1.0 / 48.0, abs=1e-15)


def test_bernoulli_poly_exact_signs():
    assert bernoulli_poly_exact(2, Fraction(1, 4)) == Fraction(-1, 48)
    assert bernoulli_poly_exact(1, Fraction(1, 2)) == 0
    # difference property B_n(x+1) - B_n(x) = n x^{n-1}
    x = Fraction(3, 7)
    for n in (1, 2, 5, 12):
        assert bernoulli_poly_exact(n, x + 1) - bernoulli_poly_exact(n, x) == n * x ** (n - 1)


def test_bernoulli_poly_order_cap():
    with pytest.raises(UnsupportedError):
        bernoulli_poly(61, 0.5)


# ---------------------------------------------------------------------------
# Gamma

def test_gamma_classical_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma(0.5).real == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma(5.0).real == pytest.approx(24.0, rel=1e-13)


def test_gamma_reference_values():
    # frozen mpmath values
    assert gamma(complex(0.5, 30.0)) == pytest.approx(
        complex(-8.373647696713258179e-21, 1.866537652294492119e-21), rel=1e-12
    )
    assert gamma(-5.5).real == pytest.approx(0.01091265478190986299, rel=1e-12)
    assert gamma(complex(20, -14)) == pytest.approx(
        complex(258693684080846.1233, 1118025569821780.944), rel=1e-12
    )


def test_gamma_recurrence_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        if abs(s) > 90 or (s.imag == 0 and s.real <= 0):
            continue
        lhs = gamma(s + 1.0)
        rhs = s * gamma(s)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs))


def test_gamma_pole():
    with pytest.raises(PoleError) as err:
        gamma(-3.0)
    assert err.value.location == -3.0


def test_gamma_at_the_edge_of_the_double_range():
    # frozen mpmath values; t^{z+1/2} and e^{-t} leave the range on their own here
    assert gamma(171.5) == pytest.approx(9.4833675668247993e307, rel=1e-12)
    assert gamma(-170.5) == pytest.approx(-3.3127395215386073e-308, rel=1e-12)
    with pytest.raises(DomainError):
        gamma(172.5)
    # mpmath: |Gamma(0.5+1000i)| = 1.6e-682 and |Gamma(3+700i)| = 9.6e-471, below a double
    # on the right of Re s = 1/2 as well: an error, not a silent 0
    with pytest.raises(DomainError):
        gamma(complex(0.5, 1000))
    with pytest.raises(DomainError):
        gamma(complex(3, 700))



def test_reflection_factor_beyond_the_double_range_is_a_domain_error():
    # Gamma(301 - 10i) overflows the reflection factor of zeta(-300 + 10i, 0.3)
    with pytest.raises(DomainError, match="double range"):
        hurwitz_zeta(complex(-300, 10), 0.3)

def test_gamma_left_of_one_half_in_log_space():
    # frozen mpmath values: sin(pi s) and Gamma(1-s) overflow on their own here
    assert gamma(complex(-1, 300)) == pytest.approx(
        complex(2.4191972690461815e-209, 1.0361601504670503e-208), rel=1e-12
    )
    assert gamma(-5.5).imag == 0.0
    # mpmath: |Gamma(-1+1000i)| = 1.1e-685 and Gamma(1e-310) = 1e310, beyond a double
    with pytest.raises(DomainError):
        gamma(complex(-1, 1000))
    with pytest.raises(DomainError):
        gamma(1e-310)


def test_log_gamma_exponentiates_to_gamma():
    rng = np.random.default_rng(12)
    for _ in range(40):
        s = complex(rng.uniform(-20, 20), rng.uniform(-50, 50))
        if s.imag == 0 and s.real <= 0:
            continue
        assert cmath.exp(log_gamma(s)) == pytest.approx(gamma(s), rel=1e-10)


# ---------------------------------------------------------------------------
# Hurwitz zeta

def test_hurwitz_spec_examples():
    assert hurwitz_zeta(2.0, 1.0).real == pytest.approx(math.pi**2 / 6.0, rel=1e-13)
    assert hurwitz_zeta(2.0, 0.5).real == pytest.approx(math.pi**2 / 2.0, rel=1e-13)
    # zeta(0, a) = 1/2 - a
    assert hurwitz_zeta(0.0, 0.3).real == pytest.approx(0.2, abs=1e-13)


def test_hurwitz_reference_values():
    # frozen mpmath values
    assert hurwitz_zeta(2.0, 0.3).real == pytest.approx(12.24536454610773046, rel=1e-13)
    assert hurwitz_zeta(-2.5, 0.3).real == pytest.approx(-0.009496380931514520017, rel=1e-11)
    assert hurwitz_zeta(complex(0.5, 14.1), 0.3) == pytest.approx(
        complex(-1.102617258348926578, -0.5526091838109273125), rel=1e-12
    )
    assert hurwitz_zeta(complex(-9, 30), 0.717) == pytest.approx(
        complex(3145345.156177179254, -943851.1985152938941), rel=1e-10
    )
    assert riemann_zeta(complex(3, -7)) == pytest.approx(
        complex(1.014200368971115932, -0.0961253958580224325), rel=1e-12
    )


def test_hurwitz_route_chosen_by_relative_bound():
    # frozen mpmath values.  Euler-Maclaurin's remainder is smaller in absolute
    # terms but misses the relative target; the reflection certifies it.
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        assert hurwitz_zeta(complex(-120, 3), 0.3) == pytest.approx(
            complex(-1.8297757942194366e104, -4.6532756876586174e103), rel=1e-12
        )
        assert hurwitz_zeta(-200.0, 0.3) == pytest.approx(5.5204111104114665e214, rel=1e-12)


def test_euler_maclaurin_round_off_counts_every_large_term():
    # frozen mpmath values at the zero layer's target, next to real zeros: at
    # Re s < 0 the corrections and the integral and boundary terms are large
    # and cancel, so a model that counted only the direct block and the first
    # correction certified Euler-Maclaurin values off by 1.1e-10 and 1.7e-10
    cfg = EvalSettings(target_abs_tol=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        assert hurwitz_zeta(-9.143401685496533, 2 / 7, cfg).real == pytest.approx(-1.1237378002318444729e-10, abs=1e-12)
        assert hurwitz_pair_diff(-13.0, 3 / 11, cfg).real == pytest.approx(0.0, abs=1e-12)


def test_settle_measures_a_bound_against_the_smallest_value_it_allows():
    # The two routes of L(-15, chi mod 12 #1): an Euler-Maclaurin value 5.78e7
    # with bound 5.51e7 may be as small as 2.7e6, so its bound is 21 times
    # that, worse than the reflected 2.27 with bound 6.07 (rem / max(1, |v| -
    # rem) = 6.07).  Against |v| alone the order flips (0.95 against 2.7).
    # Neither certifies, so it warns.
    pts = np.array([-15.0 + 0.0j, -15.0 + 0.0j])
    values = np.array([5.78e7 + 0.0j, 5.78e7 + 0.0j])
    rems = np.array([5.51e7, 1e-6])
    calls = []

    def reflect(idx):
        calls.append(idx.tolist())
        return np.full(idx.size, 2.27 + 0.0j), np.full(idx.size, 6.07)

    with pytest.warns(AccuracyWarning):
        special._settle(pts, values, rems, DEFAULT_SETTINGS, reflect)
    assert calls == [[0]]  # one call; the certified point is left alone
    assert values.tolist() == [2.27 + 0.0j, 5.78e7 + 0.0j]


def test_hurwitz_negative_integer_bernoulli_identity():
    # zeta(-n, a) = -B_{n+1}(a)/(n+1): the expansion terminates exactly there
    for n in (0, 1, 4, 9, 12):
        for a in (0.2, 0.5, 0.9):
            want = -bernoulli_poly(n + 1, a) / (n + 1)
            assert hurwitz_zeta(float(-n), a).real == pytest.approx(want, abs=1e-11)


def test_hurwitz_pole_and_domain():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 0.3)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, -0.5)


def test_riemann_classical_values():
    assert riemann_zeta(0.0).real == pytest.approx(-0.5, abs=1e-13)
    assert riemann_zeta(-1.0).real == pytest.approx(-1.0 / 12.0, abs=1e-13)
    assert riemann_zeta(2.0).real == pytest.approx(math.pi**2 / 6.0, rel=1e-13)


def test_hurwitz_recurrence_invariant():
    # zeta(s, a) = a^{-s} + zeta(s, a+1); tolerance scales with the magnitude
    # of the values (an absolute bound is below one ulp at the box corners)
    rng = np.random.default_rng(101)
    for _ in range(200):
        s = complex(rng.uniform(-10, 10), rng.uniform(-30, 30))
        if abs(s - 1.0) < 1e-3:
            continue
        for a in (0.1, 0.3, 0.5):
            za = hurwitz_zeta(s, a)
            res = za - cmath.exp(-s * math.log(a)) - hurwitz_zeta(s, a + 1.0)
            assert abs(res) < 1e-10 * max(1.0, abs(za))


def test_hurwitz_multiplication_theorem():
    # sum_{r=1}^{q} zeta(s, r/q) = q^s zeta(s).  For Re s < 0 the left side
    # cancels q huge terms down to a small value, so the residual scales with
    # the largest term, not with the result.
    rng = np.random.default_rng(102)
    for q in (2, 3, 4, 6):
        for _ in range(10):
            s = complex(rng.uniform(-8, 8), rng.uniform(-20, 20))
            if abs(s - 1.0) < 0.1:
                continue
            terms = [hurwitz_zeta(s, r / q) for r in range(1, q + 1)]
            total = sum(terms)
            rhs = cmath.exp(s * math.log(q)) * riemann_zeta(s)
            scale = max(1.0, abs(rhs), max(abs(t) for t in terms))
            assert abs(total - rhs) < 1e-9 * scale


def test_riemann_functional_equation():
    # zeta(1-s) = 2 Gamma(s) (2pi)^{-s} cos(pi s/2) zeta(s)
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 40:
        s = complex(rng.uniform(0.1, 8), rng.uniform(-25, 25))
        if abs(s - 1.0) < 0.1 or abs(1.0 - s - 1.0) < 0.1:
            continue
        lhs = riemann_zeta(1.0 - s)
        rhs = 2.0 * gamma(s) * (2 * math.pi) ** (-s) * cmath.cos(0.5 * math.pi * s) * riemann_zeta(s)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs), abs(rhs))
        checked += 1


def test_hurwitz_pole_structure():
    # h zeta(1+h, a) - a^{-h} = h f(1+h, a) with f the regular part, so the
    # residual is ~ h |f(1,a)| (|f(1,0.1)| is already 8.1): check the O(h)
    # magnitude and that it vanishes linearly, which pins residue = 1 and
    # pole coefficient a^{1-s}.
    for a in (0.1, 0.3, 0.717):
        res = lambda h: abs(h * hurwitz_zeta(1.0 + h, a).real - a ** (-h))
        assert res(1e-4) < 1e-2
        ratio = res(1e-4) / res(1e-5)
        assert ratio == pytest.approx(10.0, rel=0.05)


def test_pair_diff_matches_plain_difference():
    rng = np.random.default_rng(104)
    for _ in range(40):
        s = complex(rng.uniform(-6, 8), rng.uniform(-20, 20))
        if abs(s - 1.0) < 0.1:
            continue
        a = float(rng.uniform(0.05, 0.45))
        paired = hurwitz_pair_diff(s, a)
        plain = hurwitz_zeta(s, a) - hurwitz_zeta(s, 1.0 - a)
        assert abs(paired - plain) < 1e-9 * max(1.0, abs(paired))


def test_pair_diff_at_s_equal_one_is_digamma_reflection():
    # Y(1, a) = psi(1-a) - psi(a) = pi cot(pi a)
    for a in (0.1, 0.3, 0.49):
        want = math.pi / math.tan(math.pi * a)
        assert hurwitz_pair_diff(1.0, a).real == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("a", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_reflection_of_a_symmetric_pair_is_the_pair_kernel(a, sign):
    # bases a and 1 - a with weights 1 and +-1 take one series through the pair's factor c- +- c+
    rng = np.random.default_rng(2111)
    s = rng.uniform(-12.0, -1.0, 24) + 1j * rng.uniform(-60.0, 60.0, 24)
    value, bound = special._hurwitz_reflect(s, (a, 1.0 - a), np.array([1.0, sign], dtype=complex), DEFAULT_SETTINGS)
    pair, pair_bound = special._pair_diff_reflect(s, a, sign, DEFAULT_SETTINGS)
    assert np.array_equal(value, pair)
    assert np.array_equal(bound, pair_bound)


def test_pair_reflection_bound_counts_the_rounding_of_its_factor():
    # Y(-15, 0.3) = 0: at w = 16 the factor c- - c+ = -2i Gamma(w) (2pi)^{-w} sin(8 pi) is the
    # rounding of c-+ alone, and the bound must cover what that rounding leaves
    value, bound = special._pair_diff_reflect(np.array([-15.0 + 0.0j]), 0.3, -1.0, DEFAULT_SETTINGS)
    assert abs(value[0]) <= bound[0]


# ---------------------------------------------------------------------------
# Periodic zeta

def test_periodic_spec_value_at_one():
    # Li_1(e^{2 pi i a}) = -log(2 sin pi a) + i (pi/2 - pi a); at a = 1/6 this
    # is exactly i pi/3
    v = periodic_zeta(1.0, Alpha.parse("1/6"))
    assert v == pytest.approx(complex(0.0, math.pi / 3.0), abs=1e-12)
    for a in (0.1, 0.3, 0.45):
        want = complex(-math.log(2.0 * math.sin(math.pi * a)), math.pi / 2.0 - math.pi * a)
        assert periodic_zeta(1.0, a) == pytest.approx(want, abs=1e-11)


def test_periodic_value_at_zero():
    # s -> 0 limit of the continuation: -1/2 + (i/2) cot(pi a) (= z/(1-z));
    # verified against mpmath polylog and the functional-equation limit
    for a in (0.1, 0.25, 0.3, 0.49):
        want = complex(-0.5, 0.5 / math.tan(math.pi * a))
        assert periodic_zeta(0.0, a) == pytest.approx(want, abs=1e-13)
        z = cmath.exp(2j * math.pi * a)
        assert periodic_zeta(0.0, a) == pytest.approx(z / (1.0 - z), abs=1e-13)


def test_periodic_classical_dilogarithm():
    # Li_2(-1) = -pi^2/12
    assert periodic_zeta(2.0, 0.5).real == pytest.approx(-math.pi**2 / 12.0, rel=1e-13)


def test_periodic_reference_values():
    # frozen mpmath values
    assert periodic_zeta(0.9, 0.1) == pytest.approx(
        complex(0.4266984042384966081, 1.296766772653017996), abs=1e-11
    )
    assert periodic_zeta(2.0, 0.3) == pytest.approx(
        complex(-0.4276828573805388735, 0.784815780197750819), abs=1e-12
    )
    assert periodic_zeta(complex(1, 5), 0.45) == pytest.approx(
        complex(-1.521512830519468315, 0.5785006801129863318), abs=1e-11
    )
    assert periodic_zeta(-2.5, 0.3) == pytest.approx(
        complex(0.2713491319991517097, -0.2434356703447610973), abs=1e-11
    )
    assert periodic_zeta(complex(-7, 11), 0.05) == pytest.approx(
        complex(2798720454105.951964, 540286627654.9188504), rel=1e-10
    )


def test_periodic_domain():
    with pytest.raises(DomainError):
        periodic_zeta(2.0, 1.0)
    with pytest.raises(DomainError):
        periodic_zeta(2.0, 1.3)


def test_periodic_series_vs_functional_equation():
    # the two evaluation strategies agree across the overlap strip
    from zetazeros.special import _li_functional_equation, _li_series
    from zetazeros import DEFAULT_SETTINGS

    rng = np.random.default_rng(105)
    for _ in range(200):
        s = np.array([complex(rng.uniform(0.76, 3.0), rng.uniform(-20, 20))])
        a = float(rng.choice([0.1, 0.3, 0.45]))
        v1, _ = _li_series(s, a, DEFAULT_SETTINGS)
        v2 = _li_functional_equation(s, a, DEFAULT_SETTINGS)
        assert abs(v1[0] - v2[0]) < 1e-8


def test_periodic_rational_path_matches_series():
    rng = np.random.default_rng(106)
    for r, q in ((1, 6), (1, 4), (2, 5), (5, 12)):
        alpha = Alpha.parse(f"{r}/{q}")
        for _ in range(10):
            s = complex(rng.uniform(0.8, 5.0), rng.uniform(-25, 25))
            exact_path = periodic_zeta(s, alpha)
            float_path = periodic_zeta(s, r / q)
            assert abs(exact_path - float_path) < 1e-9


def test_uncertified_rational_periodic_value_warns():
    # zeta(300, 1/97) ~ 97^300 overflows before q^{-s} scales it back, so the
    # rational kernel cannot certify its value and must say so.
    from zetazeros.special import _li_rational

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.warns(AccuracyWarning):
            _li_rational(np.array([300.0 + 0j]), 1, 97, DEFAULT_SETTINGS)


def test_rational_periodic_value_at_large_sigma():
    # Li_s(z) = z + z^2 2^-s + ...: e^{2 pi i/97} to double precision.  Where
    # 97^{Re s} leaves the double range (s = 300) periodic_zeta sums the series.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (150.0, 300.0):
            value = periodic_zeta(s, Alpha.parse("1/97"))
            assert value == pytest.approx(cmath.exp(2j * math.pi / 97), rel=1e-14)


def test_periodic_positive_imaginary_part_on_real_axis():
    # Im Li_sigma(e^{2 pi i a}) > 0 for sigma > 0, 0 < a < 1/2
    for sigma in (0.5, 1.0, 2.0, 5.0):
        for a in (0.1, 0.25, 0.4):
            assert periodic_zeta(complex(sigma, 0.0), a).imag > 0.0


def test_eval_settings_validation():
    with pytest.raises(DomainError):
        EvalSettings(target_abs_tol=0.0)
