"""Kernel-level tests: Bernoulli data, complex gamma, Hurwitz (Euler-Maclaurin
plus continuation), periodic zeta paths, and the stated analytic invariants.

Reference constants were produced by tests/oracles/make_reference.py
(mpmath, 50 digits) and are frozen here.
"""

import cmath
import math
import warnings
from decimal import Decimal
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
from zetazeros.dirichlet import characters_mod


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


@pytest.mark.parametrize("make, error", [
    (lambda: bernoulli_number(-1), DomainError),
    (lambda: bernoulli_number(61), UnsupportedError),
    (lambda: hurwitz_pair_diff(2.0, 1.5), DomainError),
], ids=("bernoulli-negative-index", "bernoulli-past-the-table", "pair-difference-a-above-one"))
def test_refused_kernel_inputs_raise_typed_errors(make, error):
    with pytest.raises(error):
        make()


def test_bernoulli_poly_spec_examples():
    assert bernoulli_poly(0, 0.7) == 1.0
    assert bernoulli_poly(1, 0.5) == 0.0
    # B_2(x) = x^2 - x + 1/6 at 1/4: -1/48
    assert bernoulli_poly(2, 0.25) == pytest.approx(-1.0 / 48.0, abs=1e-15)


def test_bernoulli_poly_is_the_exact_value_rounded_once():
    # a float Horner loop lost 1.2e-4 relative at n = 40 and all digits by n = 50
    xs = [0.25, 0.5, 0.75, 0.1, 1.0 / 3.0] + np.random.default_rng(29).uniform(-1.0, 2.0, 5).tolist()
    for x in xs:
        for n in range(61):
            assert bernoulli_poly(n, x) == float(bernoulli_poly_exact(n, Fraction(x))), (n, x)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            bernoulli_poly(3, x)


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


# log Gamma(s), ten points per |t| band on both sides of Re s = 1/2, and Gamma(x) on [0.25, 20]
# (tests/oracles/make_reference.py, sections LOG_GAMMA and GAMMA_REAL; mpmath at 50 digits,
# printed to 25 and compared in exact decimal arithmetic).  Each band's bound is about 1.5 eps
# |s log s| at its largest |t|, the rounding of the leading term (s - 1/2) log s.
LOG_GAMMA = {
    (0, 1): [
        (0.9387, 0.5, '-0.1687566953893548208860173', '-0.2893607380903724919119703'),
        (-7.1915, 0.118, '-7.384184315434886811391915', '-24.41512734902890886473115'),
        (8.9879, -0.7361, '10.54686754042408565584917', '-1.575596259651674331007539'),
        (-3.0244, -0.3541, '-0.966621612136689930391824', '10.64288814008847262854023'),
        (1.0603, 0.9721, '-0.6158103859516363503596797', '-0.2412774798628255839873398'),
        (-7.3573, 0.5902, '-9.263259656275880770196735', '-23.48568629113437351771381'),
        (9.4974, -0.2082, '11.68121348432718179422364', '-0.4575274527033230484407044'),
        (-3.1902, -0.8262, '-2.700188521149173666488172', '10.5103580029887455609421'),
        (1.1967, 0.4443, '-0.2050728236988569231448872', '-0.1098851530540004127124037'),
        (-7.5232, 0.0623, '-8.469060909657465923623697', '-25.01708055975034951341053'),
    ],
    (1, 14): [
        (6.0183, 7.5, '0.687145650322814788552292', '14.40555784122471825604469'),
        (-1.9382, 2.5344, '-5.623295298915233295117533', '-5.036459007104932295781605'),
        (0.5339, -10.5689, '-15.60273002887362399624509', '-14.40881555666433676080007'),
        (-6.2711, -5.6033, '-20.75292177095393073324243', '10.01271202226890960874394'),
        (6.4305, 13.6378, '-4.831738115240298419681704', '30.06222291116922021407992'),
        (-2.104, 8.6722, '-18.36506954880437113079766', '5.589591455285944212292263'),
        (0.5731, -3.7067, '-4.807980627973729137831496', '-1.274993089379469939166606'),
        (-6.437, -11.7411, '-34.9760639095547677308318', '-4.340217342793273875455151'),
        (6.8576, 6.7755, '3.192800097124446219672768', '13.526300081328092329776'),
        (-2.2699, 1.81, '-4.253727715144991935703102', '-6.736027213103178835446456'),
    ],
    (14, 30): [
        (16.7878, 22.0, '17.998827326575571297828', '66.01625750189606489396535'),
        (-5.1849, 15.8885, '-39.87686418357418902840847', '18.12880218782206079274767'),
        (4.0005, -25.7771, '-28.18632358493498389579862', '-63.24844159453312806385492'),
        (-1.0178, -19.6656, '-34.49438554935074402640336', '-36.47512151514068325172787'),
        (17.4907, 29.5542, '12.88446421194772820936087', '92.56771568668184647644953'),
        (-5.3507, 23.4427, '-54.4203650587336431495697', '40.59740266108347735403021'),
        (4.3303, -17.3313, '-15.34879180216692799948746', '-37.70551421313396369949284'),
        (-1.1837, -27.2198, '-47.40165302807905628688388', '-60.01764775908891281603218'),
        (18.2084, 21.1084, '23.50971293962373416917922', '64.34563644146935053301688'),
        (-5.5166, 14.9969, '-39.08333919285023590592069', '14.98745477802894987410045'),
    ],
    (30, 100): [
        (2.2073, 65.0, '-94.05571187542608212649513', '208.9952141797298225533397'),
        (0.0684, 38.2624, '-60.7564479653067472750202', '100.5043795789590168646019'),
        (13.157, -81.5248, '-71.38722898648740850678103', '-296.161741574965531965502'),
        (-4.2645, -54.7871, '-104.2208233380113079079004', '-156.8603628553004741266508'),
        (2.4399, 98.0495, '-144.2013797584850040857803', '354.5822047687551774754101'),
        (-0.0974, 71.3119, '-113.6466777003141009234308', '232.0401734668413045805529'),
        (13.7775, -44.5743, '-18.49037331305075357800437', '-143.5891877422524137871004'),
        (-4.4304, -87.8367, '-159.1230909405589999695802', '-297.3921582110989333547144'),
        (2.6874, 61.099, '-86.05903087911789280875263', '193.5678563971232036050698'),
        (-0.2633, 34.3614, '-55.75559981073816626957173', '85.96634449214931043461901'),
    ],
    (100, 300): [
        (9.4602, 200.0, '-265.7633572955915426084853', '873.5376846021468267166093'),
        (-3.1783, 123.6068, '-210.9614609693449798094621', '465.987958677655652452301'),
        (1.1864, -247.2136, '-383.6210383856694186924763', '-1116.073227060741920389079'),
        (-7.5112, -170.8204, '-308.5905182542728586133208', '-694.5296122422564155212849'),
        (9.9835, 294.4272, '-407.6505921412736765239022', '1394.144870066954025325162'),
        (-3.3442, 218.034, '-362.2679389914471105463037', '949.9308478098628612144204'),
        (1.3366, -141.6408, '-217.4259807134953923391083', '-561.2597154944142602492105'),
        (-7.6771, -265.2476, '-461.3659526329310000095417', '-1202.039636332973156671013'),
        (10.5216, 188.8544, '-243.2052030285510912066059', '816.4033815107099252078883'),
        (-3.51, 112.4612, '-194.6731967126505247678371', '412.2789936741802685778984'),
    ],
    (300, 800): [
        (0.5698, 550.0, '-862.5786089175952221175401', '2920.564765936656300721489'),
        (-6.425, 359.017, '-603.7664089111600536283235', '1742.268322541278695695455'),
        (6.8264, -668.034, '-1007.277270175731095505046', '-3686.993239218872582293272'),
        (-2.2579, -477.051, '-765.4407234020668866851981', '-2460.879928508099323783277'),
        (0.6228, 786.068, '-1233.015075568017960543548', '4454.874332056063383453674'),
        (-6.5909, 595.085, '-979.1402235412453145096383', '3195.556534633719415352148'),
        (7.2672, -404.102, '-593.2282010770374037507693', '-2031.757103851071255172537'),
        (-2.4238, -713.119, '-1138.454112906169474387719', '-3967.223401303945184024474'),
        (0.6906, 522.136, '-818.0576112850524617886457', '2745.65298017371376970314'),
        (-6.7567, 331.153, '-561.3631413556777081686695', '1578.910766522307131791543'),
    ],
}
LOG_GAMMA_BOUNDS = {
    (0, 1): 3e-14, (1, 14): 3e-14, (14, 30): 3e-14, (30, 100): 1.2e-13, (100, 300): 5e-13, (300, 800): 2e-12
}
GAMMA_REAL = (
    (2.225, '1.117096618885904031559065'),
    (14.4312, '19261099742.73542992172157'),
    (6.8873, '583.5727898920679549600693'),
    (19.0935, '8412574716702238.752414956'),
    (11.5497, '13407234.30368651259803315'),
    (4.0059, '6.04466158985667921478623'),
    (16.212, '2341490844544.663813818893'),
    (8.6682, '19948.16082605934074146272'),
    (1.1244, '0.9419624769355473249497753'),
    (13.3305, '1108623271.077557400489934'),
    (5.7867, '83.74326404975187914567581'),
    (17.9929, '348532395419334.3187236546'),
)
_TWO_PI = Decimal("6.283185307179586476925286766559")


@pytest.mark.parametrize("band", list(LOG_GAMMA), ids=lambda band: f"t{band[0]}-{band[1]}")
def test_log_gamma_per_band_against_frozen_values(band):
    errors = []
    for sigma, t, re, im in LOG_GAMMA[band]:
        value = log_gamma(complex(sigma, t))
        d_im = Decimal(value.imag) - Decimal(im)
        d_im -= round(d_im / _TWO_PI) * _TWO_PI  # log_gamma's branch is not the principal one
        errors.append(abs(complex(float(Decimal(value.real) - Decimal(re)), float(d_im))))
    assert max(errors) <= LOG_GAMMA_BOUNDS[band]


def test_gamma_on_the_real_line_against_frozen_values():
    for x, want in GAMMA_REAL:
        assert abs((Decimal(gamma(x).real) - Decimal(want)) / Decimal(want)) <= Decimal("2e-14")


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


def test_settle_measures_a_bound_against_the_smallest_value_it_allows(monkeypatch):
    # The two routes of L(-15, chi mod 12 #1): an Euler-Maclaurin value 5.78e7
    # with bound 5.51e7 may be as small as 2.7e6, so its bound is 21 times
    # that, worse than the reflected 2.27 with bound 6.07 (rem / max(1, |v| -
    # rem) = 6.07).  Against |v| alone the order flips (0.95 against 2.7).
    # Neither certifies, so it warns.  The second point's pass certifies.
    pts = np.array([-15.0 + 0.0j, -16.0 + 0.0j])
    calls = []

    def combination(s, bases, weights, cfg, subtract_pole=False):
        return np.array([5.78e7 + 0.0j, 5.78e7 + 0.0j]), np.array([5.51e7, 1e-6])

    def reflect(s, bases, weights, cfg):
        calls.append(s.tolist())
        return np.full(s.size, 2.27 + 0.0j), np.full(s.size, 6.07)

    monkeypatch.setattr(special, "_hurwitz_combination", combination)
    monkeypatch.setattr(special, "_hurwitz_reflect", reflect)
    with pytest.warns(AccuracyWarning) as caught:
        values = special._zeta_sum(pts, (0.5,), (1.0,), DEFAULT_SETTINGS)
    assert calls == [[-15.0 + 0.0j]]  # one call, at the uncertified point only
    assert values.tolist() == [2.27 + 0.0j, 5.78e7 + 0.0j]  # its value is taken, the certified one kept
    assert len(caught) == 1 and caught[0].message.at == -15.0


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
    pair, pair_bound = special._pair_diff_reflect(s, a, sign, *special._fe_factor_columns(1.0 - s), DEFAULT_SETTINGS)
    assert np.array_equal(value, pair)
    assert np.array_equal(bound, pair_bound)


def test_reflection_forms_its_factors_once_per_point(monkeypatch):
    # L(s, chi mod 11 #3) pairs its ten bases into five pair kernels; the reflection forms c-+
    # once per point and hands them to every pair, which forms none of its own
    chi = characters_mod(11)[3]
    units = [r for r in range(1, 12) if chi(r) != 0.0]
    s = -10.5 + 1j * np.linspace(-40.0, 40.0, 5)
    calls = {"factors": 0, "pairs": 0, "factors_in_pairs": 0}
    fe_factors, pair_diff_reflect = special._fe_factors, special._pair_diff_reflect

    def counted_factors(w):
        calls["factors"] += 1
        return fe_factors(w)

    def counted_pair(*args):
        before = calls["factors"]
        out = pair_diff_reflect(*args)
        calls["pairs"] += 1
        calls["factors_in_pairs"] += calls["factors"] - before
        return out

    monkeypatch.setattr(special, "_fe_factors", counted_factors)
    monkeypatch.setattr(special, "_pair_diff_reflect", counted_pair)
    weights = np.array([chi(r) for r in units], dtype=complex)
    special._hurwitz_reflect(s, [r / 11 for r in units], weights, DEFAULT_SETTINGS)
    assert calls == {"factors": 5, "pairs": 5, "factors_in_pairs": 0}


def test_unpaired_reflection_bound_counts_the_rounding_of_its_sum():
    # zeta(-2n, 1/2) = 0: c- Li_w(-1) + c+ Li_w(-1) cancels to the rounding of its two terms,
    # and the bound must cover what that rounding leaves
    for sigma in (-14.0, -30.0):
        value, bound = special._hurwitz_reflect(np.array([complex(sigma)]), (0.5,), np.array([1.0]), DEFAULT_SETTINGS)
        assert abs(value[0]) <= bound[0]


def test_pair_reflection_bound_counts_the_rounding_of_its_factor():
    # Y(-15, 0.3) = 0: at w = 16 the factor c- - c+ = -2i Gamma(w) (2pi)^{-w} sin(8 pi) is the
    # rounding of c-+ alone, and the bound must cover what that rounding leaves
    s = np.array([-15.0 + 0.0j])
    value, bound = special._pair_diff_reflect(s, 0.3, -1.0, *special._fe_factor_columns(1.0 - s), DEFAULT_SETTINGS)
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
    # the two evaluation strategies agree across the overlap strip; the functional equation's
    # bound cannot certify draws 21, 38, 82 and 86 (sigma 2.5-2.9, where its pass at Re(1-s) < 0
    # charges the phase rounding of its terms; mpmath puts the errors of 38 and 86 at 1.2e-12
    # and 6.9e-13, ROADMAP item 4) and certifies every other draw
    from zetazeros.special import _li_functional_equation, _li_series
    from zetazeros import DEFAULT_SETTINGS

    tol = DEFAULT_SETTINGS.target_abs_tol
    rng = np.random.default_rng(105)
    for i in range(200):
        s = np.array([complex(rng.uniform(0.76, 3.0), rng.uniform(-20, 20))])
        a = float(rng.choice([0.1, 0.3, 0.45]))
        v1, _ = _li_series(s, a, DEFAULT_SETTINGS)
        v2, rem = _li_functional_equation(s, a, DEFAULT_SETTINGS)
        assert (rem[0] <= tol * max(1.0, abs(v2[0]))) == (i not in (21, 38, 82, 86)), i
        assert abs(v1[0] - v2[0]) < 1e-8


def test_periodic_settles_its_routes_in_one_call(monkeypatch):
    # a = 499/1000: a functional-equation point, a rational one and a series one, each route
    # called once (at 1.5+7000i the rational pass over 1000 bases does not fit, _em_fits)
    alpha = Alpha.parse("499/1000")
    pts = np.array([0.3 + 2.0j, 1.5 + 2.0j, 1.5 + 7000.0j])
    calls = []
    for name in ("_li_rational", "_li_series", "_li_functional_equation"):
        route = getattr(special, name)
        monkeypatch.setattr(special, name, lambda *args, _route=route, _name=name: calls.append(_name) or _route(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        block = special._periodic(pts, alpha, DEFAULT_SETTINGS)
        assert sorted(calls) == ["_li_functional_equation", "_li_rational", "_li_series"]
        for i in range(pts.size):
            assert np.array_equal(block[i:i + 1], special._periodic(pts[i:i + 1], alpha, DEFAULT_SETTINGS))
    flagged = []
    monkeypatch.setattr(special, "_warn_accuracy", lambda rem, tol, s: flagged.append(s))
    special._periodic(pts, alpha, EvalSettings(target_abs_tol=1e-17))
    assert sorted(flagged, key=abs) == sorted(pts.tolist(), key=abs)  # once per point, at its own s


def test_periodic_rational_route_runs_through_s_equal_one(monkeypatch):
    # the weighted Hurwitz sum at a = r/q is entire: within 5e-3 of s = 1, and at s = 1 itself,
    # every point takes the rational route, in one call, certified, and agrees with the series
    pts = np.array([1.0, 1.001, 0.999, 1.005, 0.995, 1.0 + 0.003j, 1.004 - 0.002j, 0.9975 + 0.004j])
    series, _ = special._li_series(pts, 2.0 / 7.0, DEFAULT_SETTINGS)
    calls = []
    route = special._li_rational
    monkeypatch.setattr(special, "_li_rational", lambda *args: calls.append(args[0]) or route(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = special._periodic(pts, Alpha.parse("2/7"), DEFAULT_SETTINGS)
    assert len(calls) == 1 and np.array_equal(calls[0], pts)
    assert np.abs(values - series).max() <= 1e-13


def test_periodic_rational_path_matches_series():
    rng = np.random.default_rng(106)
    for r, q in ((1, 6), (1, 4), (2, 5), (5, 12)):
        alpha = Alpha.parse(f"{r}/{q}")
        for _ in range(10):
            s = complex(rng.uniform(0.8, 5.0), rng.uniform(-25, 25))
            exact_path = periodic_zeta(s, alpha)
            float_path = periodic_zeta(s, r / q)
            assert abs(exact_path - float_path) < 1e-9


def test_rational_periodic_value_where_the_smallest_base_overflows():
    # zeta(300, 1/97) ~ 97^300 overflows a double; taking (q b)^{-s} out of each
    # base's sum leaves Li_300(z) = z + z^2 2^-300 + ... = e^{2 pi i/97}, certified
    from zetazeros.special import _li_rational

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _li_rational(np.array([300.0 + 0j]), 1, 97, DEFAULT_SETTINGS)
    assert abs(value[0] - cmath.exp(2j * math.pi / 97)) <= 1e-14


def test_rational_periodic_value_at_large_sigma():
    # Li_s(z) = z + z^2 2^-s + ...: e^{2 pi i/97} to double precision, from the
    # rational route at s = 150 and at s = 300, where 97^{Re s} leaves the double range.
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
