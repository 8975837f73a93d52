"""Tests for the composed families: evaluation paths, functional equations,
exact special values, a-derivatives, and the sign/monotonicity invariants."""

import math
import warnings

import numpy as np
import pytest

from zetazeros import (
    DEFAULT_SETTINGS,
    AccuracyWarning,
    Alpha,
    DomainError,
    Family,
    PoleError,
    UnsupportedError,
    eval_family,
    functional_equation_pair,
    hurwitz_pair_diff,
    hurwitz_zeta,
    monotone_kernel,
    partial_a,
    periodic_zeta,
    riemann_zeta,
    special_values,
)
from zetazeros import special
from zetazeros.special import _li_functional_equation, _li_series


def test_z_is_symmetric_sum():
    s = complex(2.3, -4.0)
    z = eval_family(Family.Z, s, 0.3)
    assert z == pytest.approx(hurwitz_zeta(s, 0.3) + hurwitz_zeta(s, 0.7), rel=1e-12)


def test_p_is_periodic_sum():
    s = complex(2.0, 1.5)
    p = eval_family(Family.P, s, 0.2)
    assert p == pytest.approx(periodic_zeta(s, 0.2) + periodic_zeta(s, 0.8), rel=1e-11)


def test_p_and_o_series_route_is_the_plain_periodic_sum():
    # Above the series threshold P and O are the periodic sums at a and at
    # 1 - a, for exact and float shifts alike.  They are formed in one
    # call with phases e^{2 pi i an} + lam e^{-2 pi i an}, so they agree with
    # the two separate sums to rounding, not to the last bit.
    for a, partner in ((Alpha.parse("2/7"), Alpha.parse("5/7")), (Alpha(0.2), 1.0 - 0.2)):
        for s in (complex(2.0, 1.5), complex(0.9, -12.0)):
            plus, minus = periodic_zeta(s, a), periodic_zeta(s, partner)
            p, o = eval_family(Family.P, s, a), eval_family(Family.O, s, a)
            assert abs(p - (plus + minus)) <= 1e-14 * max(1.0, abs(p))
            assert abs(o + 1j * (plus - minus)) <= 1e-14 * max(1.0, abs(o))


# each row of eval_family's table and the direct call it stands for, at a = 0.3
DIRECT_CALLS = {
    Family.Z: lambda s: special._zeta_sum(s, (0.3, 1.0 - 0.3), (1.0, 1.0), DEFAULT_SETTINGS),
    Family.Y: lambda s: hurwitz_pair_diff(s, 0.3),
    Family.P: lambda s: special._periodic(s, Alpha(0.3), DEFAULT_SETTINGS, 1.0),
    Family.O: lambda s: -1j * special._periodic(s, Alpha(0.3), DEFAULT_SETTINGS, -1.0),
    Family.X: lambda s: hurwitz_pair_diff(s, 0.3) - 1j * special._periodic(s, Alpha(0.3), DEFAULT_SETTINGS, -1.0),
    Family.HURWITZ: lambda s: hurwitz_zeta(s, 0.3),
    Family.PERIODIC: lambda s: periodic_zeta(s, 0.3),
    Family.RIEMANN: lambda s: riemann_zeta(s),
}


@pytest.mark.parametrize("fam", list(DIRECT_CALLS), ids=lambda f: f.value)
def test_each_family_is_its_direct_call_bit_for_bit(fam):
    # a block on both sides of Re s = 0 and of the series threshold, away from s = 1; no other
    # row's direct call gives these bits, so two swapped rows fail here
    s = np.array([complex(sigma, t) for sigma in (-3.0, 0.3, 1.5) for t in (0.0, 7.0)])
    value = eval_family(fam, s, 0.3)
    assert np.array_equal(value, DIRECT_CALLS[fam](s))
    assert not any(np.array_equal(value, call(s)) for other, call in DIRECT_CALLS.items() if other is not fam)


def test_spec_point_values():
    assert eval_family(Family.Z, 0.0, 0.37) == pytest.approx(0.0, abs=1e-12)
    assert eval_family(Family.P, 0.0, 0.2) == pytest.approx(-1.0, abs=1e-12)
    assert eval_family(Family.X, complex(2.3, 1.1), Alpha.parse("1/2")) == 0.0


def test_families_vanish_identically_at_half():
    rng = np.random.default_rng(21)
    for _ in range(10):
        s = complex(rng.uniform(-5, 5), rng.uniform(-10, 10))
        for fam in (Family.Y, Family.O, Family.X):
            assert eval_family(fam, s, 0.5) == 0.0


def test_composed_domain():
    with pytest.raises(DomainError):
        eval_family(Family.Z, 2.0, 0.7)
    with pytest.raises(DomainError):
        eval_family(Family.Y, 2.0, 0.0)


def test_z_pole_carries_limits():
    with pytest.raises(PoleError) as err:
        eval_family(Family.Z, 1.0, 0.3)
    assert err.value.limits == (-math.inf, math.inf)


def test_p_path_switch_is_seamless():
    # values on both sides of the series/functional-equation threshold agree
    for a in (0.1, 0.3, 0.49):
        for t in (0.0, 3.0, 17.0):
            below = eval_family(Family.P, complex(0.7499, t), a)
            above = eval_family(Family.P, complex(0.7501, t), a)
            assert abs(below - above) < 1e-3 * max(1.0, abs(below))  # continuity only
            # strict agreement of the two strategies at one point
            s = np.array([complex(0.7, t)])
            series = _li_series(s, a, DEFAULT_SETTINGS)[0] + _li_series(s, 1.0 - a, DEFAULT_SETTINGS)[0]
            assert _li_functional_equation(s, a, DEFAULT_SETTINGS, 1.0)[0][0] == pytest.approx(series[0], abs=1e-9)


# Frozen mpmath values (Hurwitz's formula; tests/oracles/make_reference.py,
# section SMALL_A) where the series routes meet small a: at a = 1e-4 the
# partial sum plus Boole's tail (sigma = 1.5, 3) and the plain partial sum
# (sigma = 8), at a = 1e-6 the plain partial sum.
SMALL_A = {
    ('periodic', 1e-4, 1.5, 0): complex(2.5495435366487886, 0.061914285273546881),
    ('P', 1e-4, 1.5, 0): complex(5.0990870732975771, 1.5443568590501468e-49),
    ('O', 1e-4, 1.5, 0): complex(0.12382857054709376, 1.5502035318534735e-49),
    ('periodic', 1e-4, 1.5, 40): complex(0.87896524030161907, -0.25650570088994077),
    ('P', 1e-4, 1.5, 40): complex(1.7552194924921476, -0.51471511119879495),
    ('O', 1e-4, 1.5, 40): complex(0.0017037094189134036, -0.0027109881110905415),
    ('periodic', 1e-4, 3, 0): complex(1.202055151805536, 0.0010332325139140421),
    ('P', 1e-4, 3, 0): complex(2.4041103036110719, 2.5657497168170198e-51),
    ('O', 1e-4, 3, 0): complex(0.0020664650278280843, 5.3455294201843913e-51),
    ('periodic', 1e-4, 3, 40): complex(0.93270322774264924, -0.063193750574419509),
    ('P', 1e-4, 3, 40): complex(1.8652179524552899, -0.12751481794747129),
    ('O', 1e-4, 3, 40): complex(0.0011273167986322682, -0.00018850303000858941),
    ('periodic', 1e-4, 8, 0): complex(1.0040771553824801, 0.00063356449354676757),
    ('P', 1e-4, 8, 0): complex(2.0081543107649603, 0.0),
    ('O', 1e-4, 8, 0): complex(0.0012671289870935351, 0.0),
    ('periodic', 1e-4, 8, 40): complex(0.99682771662018665, -0.0013958532165276274),
    ('P', 1e-4, 8, 40): complex(1.9936503846771467, -0.0040405707405533054),
    ('O', 1e-4, 8, 40): complex(0.0012488643074980505, -5.0485632265611949e-6),
    ('periodic', 1e-6, 6, 0): complex(1.0173430619630849, 6.5152092356738387e-6),
    ('P', 1e-6, 6, 0): complex(2.0346861239261699, 0.0),
    ('O', 1e-6, 6, 0): complex(1.3030418471347677e-5, 0.0),
    ('periodic', 1e-6, 6, 40): complex(0.98812782333378945, -0.0079555860919972856),
    ('P', 1e-6, 6, 40): complex(1.9762554490954289, -0.015923459088285594),
    ('O', 1e-6, 6, 40): complex(1.2286904291022354e-5, -1.9757214999158721e-7),
    ('periodic', 1e-6, 12, 0): complex(1.0002460865335492, 6.2862903857145408e-6),
    ('P', 1e-6, 12, 0): complex(2.0004921730670984, 0.0),
    ('O', 1e-6, 12, 0): complex(1.2572580771429082e-5, -2.6727647100921956e-51),
    ('periodic', 1e-6, 12, 40): complex(0.99979357494076926, -0.0001208853761312356),
    ('P', 1e-6, 12, 40): complex(1.9995871466875644, -0.00025433195910362221),
    ('O', 1e-6, 12, 40): complex(1.2561206841151014e-5, -3.193974079760426e-9),
}


@pytest.mark.parametrize("name, a, sigma, t", list(SMALL_A), ids=lambda v: str(v))
def test_small_a_series_values(name, a, sigma, t):
    want = SMALL_A[(name, a, sigma, t)]
    s = complex(sigma, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        got = periodic_zeta(s, a) if name == "periodic" else eval_family(Family[name], s, a)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


# Frozen mpmath values (Hurwitz's formula; tests/oracles/make_reference.py,
# section ROUTE_C): (Li_s(e^{2 pi i a}), Li_s(e^{-2 pi i a})) at points that
# take route (c) of the periodic series, the partial sum plus Boole's tail;
# the last two of each a at small |s|, where the tail gains least per order.
ROUTE_C = {
    (0.001, 0.5, 14.0): (complex(14.225632360833775, 28.145205762427153), complex(0.018947645898632276, -0.096359007628391196)),
    (0.001, 0.8, -25.0): (complex(0.32047572905433124, -0.098122749202724709), complex(2.2013519036790581, -1.9282265087923941)),
    (0.001, 1.7, 310.0): (complex(0.92089539813150203, -0.5172989360744823), complex(0.91290269350594802, -0.51743141092816265)),
    (0.001, 2.6, -800.0): (complex(1.0304609157183644, 0.11915781875895985), complex(1.0318319116651491, 0.10505425916770046)),
    (0.001, 4.0, -90.0): (complex(1.0596945502250774, -0.036102864414873238), complex(1.0583182837715236, -0.050246485764114624)),
    (0.001, 1.1, 0.0): (complex(4.2272669473172143, 1.0030899567373035), complex(4.2272669473172143, -1.0030899567373035)),
    (0.001, 0.3, 2.0): (complex(-77.757958600264268, -62.595540660787225), complex(0.37623082527665442, -0.097338147148271091)),
    (0.03, 0.5, 14.0): (complex(0.33164356718132544, -6.0368979871662463), complex(-0.012009259559715637, 0.12912230452208914)),
    (0.03, 0.8, -25.0): (complex(0.35459344495369446, -0.41662926989022248), complex(-0.17305964152600637, 1.1768090534058001)),
    (0.03, 1.7, 310.0): (complex(1.3283533739177029, -0.41446773902078199), complex(0.75354878270449335, -0.57005256892878742)),
    (0.03, 2.6, -800.0): (complex(0.97444635016001667, 0.32323384216380159), complex(1.0334506525142565, -0.090701241012387124)),
    (0.03, 4.0, -90.0): (complex(1.0557344855550085, 0.17249860133730989), complex(1.0170135838621578, -0.24811297650346447)),
    (0.03, 1.1, 0.0): (complex(1.6536674905909908, 1.3011154411570322), complex(1.6536674905909908, -1.3011154411570322)),
    (0.03, 0.3, 2.0): (complex(-3.0099293147403579, -8.8330969969892858), complex(0.35284740191027906, -0.30597820886056693)),
    (0.2, 0.5, 14.0): (complex(3.127121229372122, 0.40227670785615273), complex(1.6421299314361675, -0.51585148302681394)),
    (0.2, 0.8, -25.0): (complex(0.72151791823273768, 2.0687196703795442), complex(0.078029235922297327, -1.9966518748383197)),
    (0.2, 1.7, 310.0): (complex(0.15378742133454079, 1.3458305842977118), complex(0.063822697904040574, -0.78524800205531603)),
    (0.2, 2.6, -800.0): (complex(0.15593490214717949, 0.8555457735396734), complex(0.42061380754164265, -1.0513277087922011)),
    (0.2, 4.0, -90.0): (complex(0.27270409125181357, 1.0140100635139206), complex(0.25983116239602144, -0.95056347769197721)),
    (0.2, 1.1, 0.0): (complex(-0.13332344845154679, 0.95367473070808956), complex(-0.13332344845154679, -0.95367473070808956)),
    (0.2, 0.3, 2.0): (complex(-0.20845934401401606, 2.3185343868490442), complex(0.14636891049372646, -0.52048418817693647)),
    (0.49, 0.5, 14.0): (complex(0.0081569586546023919, -0.039618112399662443), complex(-0.13016440426969372, 0.51376847016041964)),
    (0.49, 0.8, -25.0): (complex(-0.30650233945928506, -0.52263268967788635), complex(-0.62561183510029673, -0.17846887473592221)),
    (0.49, 1.7, 310.0): (complex(-1.0167441583710578, -0.061274570139381597), complex(-1.0712812594943499, -0.23440917016577335)),
    (0.49, 2.6, -800.0): (complex(-1.0365725554050871, 0.29919755237603172), complex(-1.1131520202400504, 0.14378619704603759)),
    (0.49, 4.0, -90.0): (complex(-0.94288076709202127, 0.036603876275366699), complex(-0.93825432268527274, -0.074409141220260841)),
    (0.49, 1.1, 0.0): (complex(-0.70826303254705278, 0.032814304047380599), complex(-0.70826303254705278, -0.032814304047380599)),
    (0.49, 0.3, 2.0): (complex(-0.75935397461584177, -0.38783732502138546), complex(-0.68406218010743178, -0.44340100055558739)),
}


@pytest.mark.parametrize("a", (1e-3, 0.03, 0.2, 0.49))
@pytest.mark.parametrize("lam", (0.0, 1.0, -1.0))
def test_route_c_certifies_with_one_tail(a, lam, monkeypatch):
    # one tail call for all points, and each meets the default target
    tails = []
    original = special._li_euler_tail

    def recording(s, *args):
        tails.append(s.size)
        return original(s, *args)

    monkeypatch.setattr(special, "_li_euler_tail", recording)
    keys = [key for key in ROUTE_C if key[0] == a]
    s = np.array([complex(sigma, t) for _, sigma, t in keys])
    values, errs = _li_series(s, a, DEFAULT_SETTINGS, lam)
    assert tails == [len(keys)]
    assert (errs <= DEFAULT_SETTINGS.target_abs_tol).all()
    for key, value, err in zip(keys, values.tolist(), errs.tolist()):
        plus, minus = ROUTE_C[key]
        want = plus + lam * minus
        # 1e-14 for the phase rounding of the partial sum's terms, about eps |t| log n
        # each, which the estimate leaves out: 9e-15 at a = 0.49, s = 0.5+14i
        assert abs(value - want) <= err + 1e-14, (key, value, want, err)


def test_series_too_close_to_an_integer_is_refused():
    # At a = 1e-9 and s = 2 the tail route needs N ~ 6 (|s| + 4) / (2 pi a) =
    # 6e9 terms; at s = 3 the plain partial sum would take 2e8 terms (seconds),
    # at a = 1e-300 about 9e16.  Either route is refused at once instead.
    for s, a in [(2.0, 1e-9), (3.0, 1e-9), (2.0, 1e-300), (2.0, 1e-320)]:
        with pytest.raises(UnsupportedError):
            periodic_zeta(s, a)
    with pytest.raises(UnsupportedError):
        eval_family(Family.P, np.array([2.0, 3.0 + 1.0j]), 1e-9)



def test_exact_a_with_a_huge_denominator_takes_the_series():
    # the exact pass over 2 * 10^5 bases would exceed the Euler-Maclaurin term
    # cap, so the exact a gets the series value of the float a; the reference
    # is tests/oracles/make_reference.py's P(2+1j, 5e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        exact = eval_family(Family.P, 2 + 1j, "1/200000")
        approx = eval_family(Family.P, 2 + 1j, 5e-6)
    assert exact == approx
    assert abs(exact - complex(2.3007190390455169, -0.87511450918941221)) <= 1e-12

# Frozen mpmath values (Hurwitz's formula; tests/oracles/make_reference.py,
# section NEAR_ZERO) around s = 0, where the functional-equation route forms
# (c- + c+)/s as 2 g sin(pi s/2)/s for |s| < 0.25.
NEAR_ZERO = {
    ('P', 0.001, complex(1.0e-8, 0.0)): complex(-0.99999501837898348, 0.0),
    ('P', 0.001, complex(-1.0e-8, 1.0e-8)): complex(-1.0000049816212414, 4.9816216910240222e-6),
    ('P', 0.001, complex(0.2499, 0.0)): complex(40.400634026458488, 1.4539840022901544e-47),
    ('P', 0.001, complex(0.2501, 0.0)): complex(40.398342703560071, 1.4539840022901544e-47),
    ('P', 0.001, complex(-0.2501, 3.0)): complex(-1564.3812373674602, -2843.6487286342457),
    ('P', 0.3, complex(1.0e-8, 0.0)): complex(-1.0000000005381884, 0.0),
    ('P', 0.3, complex(-1.0e-8, 1.0e-8)): complex(-0.99999999946181157, -5.3818846001463585e-10),
    ('P', 0.3, complex(0.2499, 0.0)): complex(-1.0059138269159932, 2.0045735325691467e-51),
    ('P', 0.3, complex(0.2501, 0.0)): complex(-1.0059130721086744, 2.0045735325691467e-51),
    ('P', 0.3, complex(-0.2501, 3.0)): complex(-1.696232763223288, 1.1926034651163541),
    ('O', 0.001, complex(1.0e-8, 0.0)): complex(318.30882468494092, 0.0),
    ('O', 0.001, complex(-1.0e-8, 1.0e-8)): complex(318.30885328616028, -1.4300610445849576e-5),
    ('O', 0.001, complex(0.2499, 0.0)): complex(101.50520948420267, -5.9869929506065182e-48),
    ('O', 0.001, complex(0.2501, 0.0)): complex(101.41116243604727, -6.0725214213294685e-48),
    ('O', 0.001, complex(-0.2501, 3.0)): complex(-2843.7666673401022, 1565.6756483933762),
    ('O', 0.3, complex(1.0e-8, 0.0)): complex(0.72654253449746959, 0.0),
    ('O', 0.3, complex(-1.0e-8, 1.0e-8)): complex(0.72654252151325217, 6.4921087414433747e-9),
    ('O', 0.3, complex(0.2499, 0.0)): complex(0.88156254106391842, -1.3363823550460978e-51),
    ('O', 0.3, complex(0.2501, 0.0)): complex(0.88168067984720416, 0.0),
    ('O', 0.3, complex(-0.2501, 3.0)): complex(2.5067745915083143, 2.0485670275665827),
    ('periodic', 0.001, complex(1.0e-8, 0.0)): complex(-0.49999750918949174, 159.15441234247046),
    ('periodic', 0.001, complex(-1.0e-8, 1.0e-8)): complex(-0.49999534050539775, 159.15442913389098),
    ('periodic', 0.001, complex(0.2499, 0.0)): complex(20.200317013229244, 50.752604742101333),
    ('periodic', 0.001, complex(0.2501, 0.0)): complex(20.199171351780036, 50.705581218023637),
    ('periodic', 0.001, complex(-0.2501, 3.0)): complex(-1565.0284428804182, -2843.7076979871739),
    ('periodic', 0.3, complex(1.0e-8, 0.0)): complex(-0.50000000026909421, 0.3632712672487348),
    ('periodic', 0.3, complex(-1.0e-8, 1.0e-8)): complex(-0.50000000297696015, 0.36327126048753185),
    ('periodic', 0.3, complex(0.2499, 0.0)): complex(-0.5029569134579966, 0.44078127053195921),
    ('periodic', 0.3, complex(0.2501, 0.0)): complex(-0.50295653605433722, 0.44084033992360208),
    ('periodic', 0.3, complex(-0.2501, 3.0)): complex(-1.8723998953949354, 1.8496890283123342),
    ('periodic', 0.999, complex(1.0e-8, 0.0)): complex(-0.49999750918949174, -159.15441234247046),
    ('periodic', 0.999, complex(-1.0e-8, 1.0e-8)): complex(-0.5000096411158436, -159.15442415226929),
    ('periodic', 0.999, complex(0.2499, 0.0)): complex(20.200317013229244, -50.752604742101333),
    ('periodic', 0.999, complex(0.2501, 0.0)): complex(20.199171351780036, -50.705581218023637),
    ('periodic', 0.999, complex(-0.2501, 3.0)): complex(0.64720551295798425, 0.058969352928279398),
}


@pytest.mark.parametrize("key", sorted(NEAR_ZERO, key=str), ids=str)
def test_functional_equation_route_near_zero(key):
    name, a, s = key
    fam = {"P": Family.P, "O": Family.O, "periodic": Family.PERIODIC}[name]
    want = NEAR_ZERO[key]
    assert abs(eval_family(fam, s, a) - want) <= 1e-12 * max(1.0, abs(want))


def test_functional_equation_terms_beyond_double_range_raise():
    # (1/a)^{-s} = e^{1381} at s = -200, a = 0.001: a typed error, not an OverflowError
    for fam in (Family.P, Family.O, Family.PERIODIC):
        with pytest.raises(DomainError):
            eval_family(fam, -200.0, 0.001)


def test_functional_equation_pairs_random_sweep():
    rng = np.random.default_rng(22)
    for fam in (Family.Z, Family.P, Family.Y, Family.O, Family.X):
        for _ in range(25):
            s = complex(rng.uniform(0.05, 10.0), rng.uniform(-30.0, 30.0))
            if abs(s - 1.0) < 0.05:
                continue
            for a in (0.1, 0.3, 1.0 / 3.0, 0.49):
                lhs, rhs = functional_equation_pair(fam, s, a)
                assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1.0)


def test_functional_equation_trivial_zero():
    # sin(pi s/2) = 0 at s = 2 forces both sides of the Y pair to zero
    lhs, rhs = functional_equation_pair(Family.Y, 2.0, 0.3)
    assert abs(rhs) < 1e-13
    assert abs(lhs) < 1e-10  # Y(-1, 0.3), a trivial zero


def test_functional_equation_domain():
    with pytest.raises(DomainError):
        functional_equation_pair(Family.Z, complex(-0.5, 3.0), 0.3)
    with pytest.raises(DomainError):
        functional_equation_pair(Family.Z, 1.0, 0.3)
    with pytest.raises(DomainError):
        functional_equation_pair(Family.HURWITZ, 2.0, 0.3)  # no partner: a typed error, not a KeyError


@pytest.mark.parametrize("a", [0.1, 0.3, "1/3", 0.49])
def test_functional_equation_pair_array_matches_point_by_point(a):
    rng = np.random.default_rng(23)
    pts = rng.uniform(0.05, 10.0, 12) + 1j * rng.uniform(-30.0, 30.0, 12)
    pts = pts[np.abs(pts - 1.0) >= 0.05].reshape(-1, 1)  # an (n, 1) array keeps its shape
    for fam in (Family.Z, Family.P, Family.Y, Family.O, Family.X):
        lhs, rhs = functional_equation_pair(fam, pts, a)
        assert lhs.shape == rhs.shape == pts.shape
        reversed_pair = functional_equation_pair(fam, pts[::-1], a)
        alone = [functional_equation_pair(fam, s, a) for s in pts.ravel().tolist()]
        assert all(isinstance(v, complex) for pair in alone for v in pair)
        for side, got, back in zip((0, 1), (lhs, rhs), reversed_pair):
            assert np.array_equal(back[::-1], got), (fam, a, side)
            assert np.array_equal(np.array([pair[side] for pair in alone]), got.ravel()), (fam, a, side)


@pytest.mark.parametrize("bad", [complex(-0.5, 3.0), 0.0, 1.0])
def test_functional_equation_pair_array_with_a_bad_point_raises_like_the_point(bad):
    with pytest.raises(DomainError) as scalar:
        functional_equation_pair(Family.Z, bad, 0.3)
    with pytest.raises(DomainError) as array:
        functional_equation_pair(Family.Z, np.array([2.0 + 1.0j, bad, 3.0]), 0.3)
    assert str(array.value) == str(scalar.value)


def test_hurwitz_zeta_parses_text_a_like_the_families():
    assert hurwitz_zeta(-9.14, "2/7") == hurwitz_zeta(-9.14, Alpha.parse("2/7"))
    assert hurwitz_zeta(2.5, "0.3") == hurwitz_zeta(2.5, 0.3)
    # a number above 1 is still the shifted value: zeta(2, 3/2) = zeta(2, 1/2) - 4
    assert abs(hurwitz_zeta(2.0, 1.5) - (hurwitz_zeta(2.0, 0.5) - 4.0)) < 1e-13
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, "1/x")


@pytest.mark.parametrize("make", [
    lambda: Alpha(0.5, (2, 4)),
    lambda: Alpha(0.3, (1, 3)),
    lambda: Alpha.parse("1/0"),
    lambda: eval_family(Family.Z, np.array([2.0, np.nan]), 0.3),
], ids=("unreduced-fraction", "fraction-disagrees-with-value", "zero-denominator", "nan-point"))
def test_refused_shifts_and_points_are_domain_errors(make):
    with pytest.raises(DomainError):
        make()


def test_integer_shift_one_is_exact():
    assert Alpha.coerce(1).exact == (1, 1)


@pytest.mark.parametrize("text", ["abc", "1/x", "0.3.1", "", "1/", "/3"])
def test_malformed_alpha_text_is_a_domain_error(text):
    with pytest.raises(DomainError):
        Alpha.parse(text)


def test_special_values_exact_forms():
    sv = special_values("1/6")
    assert sv.z_at_0 == 0.0
    assert sv.p_at_0 == -1.0
    assert abs(sv.p_at_1) < 1e-15  # 2 sin(pi/6) = 1
    sv_half = special_values(0.5)
    assert sv_half.p_at_1.real == pytest.approx(-2.0 * math.log(2.0), rel=1e-14)
    sv_q = special_values("1/4")
    assert sv_q.li_at_0 == pytest.approx(complex(-0.5, 0.5), abs=1e-14)


def test_special_values_match_kernel():
    rng = np.random.default_rng(23)
    for a in rng.uniform(0.02, 0.49, size=8):
        sv = special_values(float(a))
        assert eval_family(Family.Z, 0.0, float(a)) == pytest.approx(sv.z_at_0, abs=1e-11)
        assert eval_family(Family.P, 0.0, float(a)) == pytest.approx(sv.p_at_0, abs=1e-11)
        assert eval_family(Family.P, 1.0, float(a)) == pytest.approx(sv.p_at_1, abs=1e-10)
        assert periodic_zeta(0.0, float(a)) == pytest.approx(sv.li_at_0, abs=1e-12)


def test_partial_a_identities_against_finite_differences():
    rng = np.random.default_rng(24)
    h = 1e-5
    for _ in range(50):
        sigma = float(rng.uniform(0.2, 4.0))
        a = float(rng.uniform(0.08, 0.42))
        s = complex(sigma, 0.0)
        for fam in (Family.Z, Family.P):
            d = partial_a(fam, s, a)
            fd = (eval_family(fam, s, a + h) - eval_family(fam, s, a - h)) / (2.0 * h)
            assert abs(d - fd) < 1e-6 * max(1.0, abs(d))


def test_partial_a_hurwitz():
    d = partial_a(Family.HURWITZ, 2.0, 1.0)
    from zetazeros import riemann_zeta

    assert d == pytest.approx(-2.0 * riemann_zeta(3.0), rel=1e-12)
    h = 1e-6
    fd = (hurwitz_zeta(2.0, 0.9 + h) - hurwitz_zeta(2.0, 0.9 - h)) / (2.0 * h)
    assert partial_a(Family.HURWITZ, 2.0, 0.9) == pytest.approx(fd, rel=1e-8)


def test_partial_a_z_is_negative_on_real_axis():
    # d/da Z(sigma, a) < 0 for 0 < a < 1/2, sigma > 0 (sigma != 1)
    for sigma in (0.5, 2.0, 3.7):
        for a in (0.1, 0.3, 0.45):
            d = partial_a(Family.Z, complex(sigma, 0.0), a)
            assert d.real < 0.0
            assert abs(d.imag) < 1e-10


def test_partial_a_pole():
    with pytest.raises(PoleError):
        partial_a(Family.Z, 0.0, 0.3)


# Frozen mpmath values (tests/oracles/make_reference.py, section O_AT_A_005) of
# O(sigma, 0.05) where the series' tail used to miss the target
O_AT_A_005 = {
    0.75: 3.5050885933499461,
    0.8: 3.3568849263205448,
    0.85: 3.2151051981346377,
    0.9: 3.0796786526677444,
    1.0: 2.8274333882308139,
    1.05: 2.7103235196049395,
    1.15: 2.4932607685031507,
    1.2: 2.3929223301469864,
}


def test_positivity_y_and_o():
    # Y(sigma, a) > 0 and O(sigma, a) > 0 on sigma in (0, 5], a in (0, 1/2)
    sigmas = np.arange(0.05, 5.0 + 1e-9, 0.05)
    a_grid = np.arange(0.05, 0.46, 0.05)
    for a in a_grid:
        for sigma in sigmas:
            assert eval_family(Family.Y, complex(sigma, 0.0), float(a)).real > 0.0
            assert eval_family(Family.O, complex(sigma, 0.0), float(a)).real > 0.0
    for sigma, want in O_AT_A_005.items():
        assert abs(eval_family(Family.O, sigma, 0.05) - want) <= 1e-12 * want


def test_negativity_p_for_large_a():
    # P(sigma, a) < 0 for 1/4 <= a <= 1/2, sigma > 0
    sigmas = np.arange(0.05, 5.0 + 1e-9, 0.05)
    for a in (0.25, 0.3, 0.35, 0.4, 0.45, 0.5):
        for sigma in sigmas:
            assert eval_family(Family.P, complex(sigma, 0.0), float(a)).real < 0.0


def test_hurwitz_ordering():
    # zeta(sigma, a) > zeta(sigma, 1-a) > 0 for sigma > 1, 0 < a < 1/2
    for sigma in np.arange(1.1, 6.0, 0.35):
        for a in np.arange(0.05, 0.5, 0.06):
            za = hurwitz_zeta(complex(float(sigma), 0.0), float(a)).real
            zb = hurwitz_zeta(complex(float(sigma), 0.0), 1.0 - float(a)).real
            assert za > zb > 0.0


def test_monotone_kernel_strictly_increasing():
    # alpha^{-sigma} Gamma(sigma) P(sigma, a) strictly increasing on sigma > 0
    sigmas = np.arange(0.1, 6.0 + 1e-9, 0.05)
    for a in (0.05, 0.15, 0.25):
        vals = [monotone_kernel(float(sg), a) for sg in sigmas]
        diffs = np.diff(vals)
        assert np.all(diffs > 0.0), f"kernel not increasing at a={a}"
