"""The far field of the functional-equation routes: |Im s| from 455 to 800,
where e^{pi |t|/2} and Gamma(1-s) leave the double range on their own and
only their log-space product (special._fe_factors) stays finite; and the
line Re s = 0 up to |Im s| = 800, where an Euler-Maclaurin pass is sized
closest to its target.

Expected values are mpmath numbers frozen from tests/oracles/make_reference.py
(50 digits; Li through Hurwitz's formula in zeta(1-s, .), since mp.polylog is
wrong at large |Im s|).  The tolerance 1e-11 max(1, |v|) leaves room for the
phase rounding of exp(log Gamma) at |t| = 800, about |log Gamma| eps.
"""

import cmath

import pytest

from zetazeros import Family, eval_family

FAMILIES = {
    "Z": Family.Z,
    "P": Family.P,
    "Y": Family.Y,
    "O": Family.O,
    "X": Family.X,
    "hurwitz": Family.HURWITZ,
    "periodic": Family.PERIODIC,
}

# (family, sigma, t): value at s = sigma + i t, a = 3/10
BAND = {
    ('Z', -12.3, 455): complex(3.8060777949773872e+23, -1.0910704355696763e+23),
    ('P', -12.3, 455): complex(-6.9526754163426972e+29, 5.7237241437757665e+30),
    ('Y', -12.3, 455): complex(3.3611349119119477e+23, 1.1711596433299003e+24),
    ('O', -12.3, 455): complex(5.7238293329552399e+30, 6.9516462191676837e+29),
    ('X', -12.3, 455): complex(5.723829669068731e+30, 6.951657930764117e+29),
    ('hurwitz', -12.3, 455): complex(3.5836063534446674e+23, 5.3102629988646635e+23),
    ('periodic', -12.3, 455): complex(-6.9521608177551904e+29, 5.7237767383655032e+30),
    ('Z', -12.3, 500): complex(1.2288397293288452e+24, -4.9210620437639547e+23),
    ('P', -12.3, 500): complex(-1.3174426766393239e+31, -1.4070307283812915e+31),
    ('Y', -12.3, 500): complex(1.5153008239705044e+24, 3.7809115758766282e+24),
    ('O', -12.3, 500): complex(-1.4070476988426776e+31, 1.3174888545754094e+31),
    ('X', -12.3, 500): complex(-1.4070475473125952e+31, 1.317489232666567e+31),
    ('hurwitz', -12.3, 500): complex(1.3720702766496748e+24, 1.6444026857501164e+24),
    ('periodic', -12.3, 500): complex(-1.3174657656073666e+31, -1.4070392136119846e+31),
    ('Z', -12.3, 600): complex(2.7484426353086498e+24, -1.3369633650644093e+25),
    ('P', -12.3, 600): complex(-7.4672662012834701e+31, 1.8420843119445795e+32),
    ('Y', -12.3, 600): complex(4.1145253127592254e+25, 8.4455408873814553e+24),
    ('O', -12.3, 600): complex(1.8420343476455925e+32, 7.4673541132222437e+31),
    ('X', -12.3, 600): complex(1.8420347590981238e+32, 7.4673549577763325e+31),
    ('hurwitz', -12.3, 600): complex(2.1946847881450452e+25, -2.4620463816313191e+24),
    ('periodic', -12.3, 600): complex(-7.4673101572528569e+31, 1.842059329795086e+32),
    ('Z', -12.3, 800): complex(3.4519534478626601e+26, -4.1801211196726868e+26),
    ('P', -12.3, 800): complex(7.241368646905806e+33, 3.1465767578763223e+33),
    ('Y', -12.3, 800): complex(1.2868621279837958e+27, 1.0619982476462421e+27),
    ('O', -12.3, 800): complex(3.1466431640963773e+33, -7.2411783838049699e+33),
    ('X', -12.3, 800): complex(3.1466444509585052e+33, -7.2411773218067222e+33),
    ('hurwitz', -12.3, 800): complex(8.160287363850309e+26, 3.2199306783948671e+26),
    ('periodic', -12.3, 800): complex(7.241273515355388e+33, 3.1466099609863498e+33),
    ('Z', 0.3, 455): complex(4.5348781071698454, 2.9507015414332861),
    ('P', 0.3, 455): complex(-3.003888924702079, 6.4114505869380733),
    ('Y', 0.3, 455): complex(0.14810251234357058, 3.9117150570305699),
    ('O', 0.3, 455): complex(6.0635935464800815, -2.9270165402975157),
    ('X', 0.3, 455): complex(6.2116960588236521, 0.98469851673305419),
    ('hurwitz', 0.3, 455): complex(2.341490309756708, 3.431208299231928),
    ('periodic', 0.3, 455): complex(-0.038436192202281653, 6.2375220667090774),
    ('Z', 0.3, 500): complex(6.5097604359898314, -4.7747270605253601),
    ('P', 0.3, 500): complex(-9.1975386225652203, -3.6665666218757019),
    ('Y', 0.3, 500): complex(4.0514582982725569, 4.0668537222995577),
    ('O', 0.3, 500): complex(1.513297739944628, 5.7699225898607933),
    ('X', 0.3, 500): complex(5.5647560382171849, 9.836776312160351),
    ('hurwitz', 0.3, 500): complex(5.2806093671311942, -0.35393666911290119),
    ('periodic', 0.3, 500): complex(-7.4837306062130068, -1.076634440965537),
    ('Z', 0.3, 600): complex(6.614245282831565, 3.574476186347916),
    ('P', 0.3, 600): complex(4.1284910057328761, 13.182995453598815),
    ('Y', 0.3, 600): complex(1.200346297139678, -4.3336138542248304),
    ('O', 0.3, 600): complex(2.1796838459473036, 7.7779344517682952),
    ('X', 0.3, 600): complex(3.3800301430869816, 3.4443205975434648),
    ('hurwitz', 0.3, 600): complex(3.9072957899856215, -0.37956883393845722),
    ('periodic', 0.3, 600): complex(-1.8247217230177095, 7.6813396497730593),
    ('Z', 0.3, 800): complex(-0.14802230334548498, 1.0266694422299057),
    ('P', 0.3, 800): complex(8.7922966018608727, -2.4917369349050767),
    ('Y', 0.3, 800): complex(5.0133374468078024, -1.401103286159271),
    ('O', 0.3, 800): complex(4.3733402048696843, 2.565305972570786),
    ('X', 0.3, 800): complex(9.3866776516774867, 1.1642026864115151),
    ('hurwitz', 0.3, 800): complex(2.4326575717311587, -0.18721692196468262),
    ('periodic', 0.3, 800): complex(3.1134953146450433, 0.94080163498230385),
}


@pytest.mark.parametrize("key", list(BAND), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_band_matches_mpmath(key):
    name, sigma, t = key
    expected = BAND[key]
    for a in (0.3, "3/10"):
        value = eval_family(FAMILIES[name], complex(sigma, t), a)
        assert abs(value - expected) <= 1e-11 * max(1.0, abs(expected)), (a, value)


@pytest.mark.parametrize("t", [455.0, 500.0, 600.0, 800.0])
def test_band_at_sigma_minus_3_1_is_finite(t):
    # No frozen values here: Euler-Maclaurin's own misses at this sigma are
    # not covered by its remainder model yet.
    for fam in FAMILIES.values():
        for a in (0.3, "3/10"):
            assert cmath.isfinite(eval_family(fam, complex(-3.1, t), a))


# (family, t): value at s = i t, a = 3/10.  On Re s = 0 an Euler-Maclaurin pass at
# Re s >= 0 needs its largest shift for its height, about (|t| + 12)/pi
SIGMA_ZERO = {
    ('hurwitz', 20): complex(0.062897023686773014, 1.9950426524825719),
    ('Z', 20): complex(1.7654713421068687, 2.4574944502487304),
    ('hurwitz', 40): complex(-4.3655082680568505, 0.58190550651929129),
    ('Z', 40): complex(-3.2121085130174102, -0.55288464433040762),
    ('hurwitz', 60): complex(0.92042641281027807, -1.8810938993749785),
    ('Z', 60): complex(-4.1649393912395365, 0.71833826384227873),
    ('hurwitz', 100): complex(-2.0027373030892537, -5.183255401542101),
    ('Z', 100): complex(-6.3433857123266975, -0.94682308613787025),
    ('hurwitz', 200): complex(-6.9345528114212962, -0.82865650750771905),
    ('Z', 200): complex(-7.9306723665839224, 3.8352243960443124),
    ('hurwitz', 400): complex(7.1548660411718449, 4.2014934152894585),
    ('Z', 400): complex(7.765928704717628, 3.2793574925250509),
    ('hurwitz', 800): complex(12.396093649918016, -0.24142999365496211),
    ('Z', 800): complex(8.1795061051584986, -0.048985986054592969),
}


@pytest.mark.parametrize("key", list(SIGMA_ZERO), ids=lambda k: f"{k[0]}-{k[1]}")
def test_sigma_zero_matches_mpmath(key):
    name, t = key
    expected = SIGMA_ZERO[key]
    value = eval_family(FAMILIES[name], complex(0.0, t), 0.3)
    assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected)), value
