"""L(s, chi) against a frozen map of mpmath values, and L over arrays.

Expected values are frozen from tests/oracles/make_reference.py: 50-digit
Hurwitz sums q^{-s} sum_r chi(r) zeta(s, r/q) (not mp.polylog, which is wrong
at large |Im s|), for characters 1 and phi(q) - 1 of each modulus (one and the
same character at q = 3, 4), sigma in {-5, -9, -15} and t in {0, 40, 300, 550}.
A value may miss 1e-10 max(1, |v|) only where the call raised an
AccuracyWarning.
"""

import io
import warnings

import numpy as np
import pytest

from zetazeros import DEFAULT_SETTINGS, AccuracyWarning, DomainError, characters_mod, l_function, special
from zetazeros.cli import EXIT_USAGE, run

# (q, character index, sigma, t): L(sigma + i t, chi)
L_MAP = {
    (3, 1, -5, 0): complex(-2.5370383771578263e-51, 0.0),
    (3, 1, -5, 40): complex(-11340375.922626953, -1568464.9792432458),
    (3, 1, -5, 300): complex(-602078902615.64568, -381286909056.60275),
    (3, 1, -5, 550): complex(4876153777735.4818, -19790097770848.043),
    (3, 1, -9, 0): complex(-5.1375027137445983e-49, 0.0),
    (3, 1, -9, 40): complex(-1020811537960.9611, -1250259234558.4561),
    (3, 1, -9, 300): complex(-2.3782019381527745e+20, -1.8942689549556876e+20),
    (3, 1, -9, 550): complex(2.6894134113508728e+22, -9.2505277640081271e+22),
    (3, 1, -15, 0): complex(2.3969532661246798e-44, 0.0),
    (3, 1, -15, 40): complex(9.4009457347793006e+19, -4.4318102179784261e+19),
    (3, 1, -15, 300): complex(-1.5943446187698394e+33, -2.1068789015919725e+33),
    (3, 1, -15, 550): complex(1.2851841800561261e+37, -2.890188423322945e+37),
    (4, 1, -5, 0): complex(0.0, 0.0),
    (4, 1, -5, 40): complex(-19636814.567582055, -51258523.917337827),
    (4, 1, -5, 300): complex(2161945389848.1153, -2774579680841.9372),
    (4, 1, -5, 550): complex(-78260200873921.176, -59687724553687.176),
    (4, 1, -9, 0): complex(0.0, 0.0),
    (4, 1, -9, 40): complex(9081369001479.6423, -23078546975806.168),
    (4, 1, -9, 300): complex(3.2317719036439943e+21, -3.3844042872925929e+21),
    (4, 1, -9, 550): complex(-1.1255790429897609e+24, -9.6226512081297574e+23),
    (4, 1, -15, 0): complex(0.0, 0.0),
    (4, 1, -15, 40): complex(7.3163797063123843e+21, 5.2074608350252961e+21),
    (4, 1, -15, 300): complex(1.9359871820988425e+35, -1.2100246136832731e+35),
    (4, 1, -15, 550): complex(-1.8167131916140882e+39, -2.0418910987889695e+39),
    (5, 1, -5, 0): complex(4.8939783509988934e-50, 0.0),
    (5, 1, -5, 40): complex(-122018968.88340614, 144433800.55196785),
    (5, 1, -5, 300): complex(-2778539630433.4568, 11762271655599.392),
    (5, 1, -5, 550): complex(176829447581731.52, 279832365685697.01),
    (5, 1, -9, 0): complex(6.1174729387486167e-47, 0.0),
    (5, 1, -9, 40): complex(-204607785613934.56, 29344551088727.531),
    (5, 1, -9, 300): complex(-1.3207429221120981e+22, 3.6697277100737974e+22),
    (5, 1, -9, 550): complex(6.083785553599068e+24, 1.0718353157504798e+25),
    (5, 1, -15, 0): complex(-5.0978941156238473e-41, 0.0),
    (5, 1, -15, 40): complex(2.8602087995762255e+22, -2.8392946452552473e+23),
    (5, 1, -15, 300): complex(-4.0730934045194344e+36, 6.0033859617187115e+36),
    (5, 1, -15, 550): complex(3.2242641853047968e+40, 8.0639588284130593e+40),
    (5, 3, -5, 0): complex(4.8939783509988934e-50, 0.0),
    (5, 3, -5, 40): complex(78398590.469764102, 168669912.06844336),
    (5, 3, -5, 300): complex(8902548849153.6926, 7872600370328.4333),
    (5, 3, -5, 550): complex(338894183901492.3, -39318697597667.55),
    (5, 3, -9, 0): complex(6.1174729387486167e-47, 0.0),
    (5, 3, -9, 40): complex(-64857041377764.886, 196040756980790.84),
    (5, 3, -9, 300): complex(2.684069832383459e+22, 2.8238012956972868e+22),
    (5, 3, -9, 550): complex(1.2328729667334627e+25, -6.604250697235546e+23),
    (5, 3, -15, 0): complex(-5.0978941156238473e-41, 0.0),
    (5, 3, -15, 40): complex(-2.4116313317105823e+23, -1.5255088289056503e+23),
    (5, 3, -15, 300): complex(3.5478281230089505e+36, 6.3278620899678781e+36),
    (5, 3, -15, 550): complex(8.6548043966588852e+40, 7.2234170402616118e+39),
    (7, 1, -5, 0): complex(2.6320990126476288e-49, -1.3160495063238144e-49),
    (7, 1, -5, 40): complex(-494684987.73968464, 1105052022.4416946),
    (7, 1, -5, 300): complex(-32630653291003.972, 69003517887028.288),
    (7, 1, -5, 550): complex(740774620307908.4, -1989816079387308.0),
    (7, 1, -9, 0): complex(8.4262263058226091e-46, -6.3196697293669568e-46),
    (7, 1, -9, 40): complex(-4625859347914669.1, 2038049155252301.3),
    (7, 1, -9, 300): complex(-5.0217783586289895e+23, 8.0995234213147329e+23),
    (7, 1, -9, 550): complex(1.1701646509810189e+26, -2.7776201877680319e+26),
    (7, 1, -15, 0): complex(-6.3445574313838345e-39, 3.9653483946148966e-39),
    (7, 1, -15, 40): complex(-8.9775363039427312e+24, -5.1755017618378878e+25),
    (7, 1, -15, 300): complex(-9.6330697443185995e+38, 9.2479612015626014e+38),
    (7, 1, -15, 550): complex(8.1400071835460624e+42, -1.3758354350518962e+43),
    (7, 5, -5, 0): complex(5.2641980252952577e-49, 3.2901237658095361e-49),
    (7, 5, -5, 40): complex(1109936658.7917993, -439482571.40946095),
    (7, 5, -5, 300): complex(71424781919933.326, -23308986622211.253),
    (7, 5, -5, 550): complex(-1971489263198657.1, 908491139324236.25),
    (7, 5, -9, 0): complex(1.6852452611645218e-45, 1.5799174323417392e-45),
    (7, 5, -9, 40): complex(4695246553305041.0, 1860612715246035.7),
    (7, 5, -9, 300): complex(9.2898310723855809e+23, -2.0844977085300839e+23),
    (7, 5, -9, 550): complex(-2.8041506817744466e+26, 1.1172060850629307e+26),
    (7, 5, -15, 0): complex(-9.5168361470757518e-39, -1.110297550492171e-38),
    (7, 5, -15, 40): complex(-3.0602196429153032e+25, 4.2692008047166621e+25),
    (7, 5, -15, 300): complex(1.3347978109573986e+39, 3.8338093005465507e+37),
    (7, 5, -15, 550): complex(-1.5517233205103771e+43, 3.8444134977516637e+42),
    (9, 1, -5, 0): complex(1.8495009769480554e-48, 1.0788755698863656e-48),
    (9, 1, -5, 40): complex(-2275382668.4709967, -4175726661.055573),
    (9, 1, -5, 300): complex(-46585921266986.472, 304650375445740.14),
    (9, 1, -5, 550): complex(406188436494816.09, -8378550585524955.8),
    (9, 1, -9, 0): complex(2.0224293182926986e-44, 1.5168219887195239e-44),
    (9, 1, -9, 40): complex(12387251625078685.0, -53568500695614040.0),
    (9, 1, -9, 300): complex(-2.6506438425609527e+24, 1.0038814301249154e+25),
    (9, 1, -9, 550): complex(3.395089622302106e+26, -3.2619871295002565e+27),
    (9, 1, -15, 0): complex(-9.6302246597113986e-37, -4.1272391398763137e-37),
    (9, 1, -15, 40): complex(2.3029525875237138e+27, 1.169730655748145e+27),
    (9, 1, -15, 300): complex(-3.1966004342360053e+40, 5.7361151206212406e+40),
    (9, 1, -15, 550): complex(1.8692963451807044e+44, -7.6354775758708277e+44),
    (9, 5, -5, 0): complex(3.082501628246759e-49, -5.3943778494318282e-49),
    (9, 5, -5, 40): complex(-3598004727.349797, 3008769259.2632446),
    (9, 5, -5, 300): complex(303434439430130.24, -133646625343.90234),
    (9, 5, -5, 550): complex(-8508591150556653.9, 1186964627123822.0),
    (9, 5, -9, 0): complex(0.0, -8.0897172731707943e-45),
    (9, 5, -9, 40): complex(-54861470419874292.0, -2815275691668838.4),
    (9, 5, -9, 300): complex(1.0335488569547509e+25, 8.8076626293384255e+23),
    (9, 5, -9, 550): complex(-3.2761333877692237e+27, 2.3496102986112765e+26),
    (9, 5, -15, 0): complex(0.0, 1.3757463799587712e-37),
    (9, 5, -15, 40): complex(7.5199020707770315e+26, -2.4710700711766783e+27),
    (9, 5, -15, 300): complex(6.2039150576882085e+40, 2.152074299099217e+40),
    (9, 5, -15, 550): complex(-7.8442682055866878e+44, -5.1492852220321397e+43),
    (12, 1, -5, 0): complex(-2.5979272982096142e-48, 0.0),
    (12, 1, -5, 40): complex(272160606.57443773, 230459426.41269975),
    (12, 1, -5, 300): complex(-23393499677629.838, 405440576720.29902),
    (12, 1, -5, 550): complex(497733157771556.85, 407394891839900.55),
    (12, 1, -9, 0): complex(-1.6161186136702368e-43, 0.0),
    (12, 1, -9, 40): complex(111238541202703.26, 817490558578025.68),
    (12, 1, -9, 300): complex(-1.5548574863198682e+23, -1.1631999570919453e+22),
    (12, 1, -9, 550): complex(3.5931431481429756e+25, 3.3726085071664247e+25),
    (12, 1, -15, 0): complex(3.0884507664137653e-35, 0.0),
    (12, 1, -15, 40): complex(-3.3857378298107741e+24, -3.6687502877645788e+23),
    (12, 1, -15, 300): complex(-8.2075461059746043e+37, -2.7561791466104186e+37),
    (12, 1, -15, 550): complex(6.515953621634663e+41, 8.0601504694827289e+41),
    (12, 3, -5, 0): complex(-3362.0, 0.0),
    (12, 3, -5, 40): complex(21899658967.653788, -7457662850.0286903),
    (12, 3, -5, 300): complex(-864804790070573.47, -1199058141450934.7),
    (12, 3, -5, 550): complex(-16069736385672837.0, -38208063236346502.0),
    (12, 3, -9, 0): complex(-135274562.0, 0.0),
    (12, 3, -9, 40): complex(7.745421100839729e+17, 3.3912358275825437e+17),
    (12, 3, -9, 300): complex(-7.9948862225049205e+25, -1.3805498001201224e+26),
    (12, 3, -9, 550): complex(-1.7008246393674013e+28, -4.7533822849634954e+28),
    (12, 3, -15, 0): complex(23657073914466766.0, 0.0),
    (12, 3, -15, 40): complex(-1.3620145293895074e+29, 1.7681264151631737e+29),
    (12, 3, -15, 300): complex(-1.5411394573096587e+42, -5.4607048223128437e+42),
    (12, 3, -15, 550): complex(-1.3978986605258121e+46, -6.6471526414698496e+46),
}


@pytest.mark.parametrize("key", sorted(L_MAP), ids=lambda k: "q{}-chi{}-s{}{:+}j".format(*k))
def test_l_function_map(key):
    q, index, sigma, t = key
    want = L_MAP[key]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = l_function(characters_mod(q)[index], complex(sigma, t))
    warned = any(issubclass(w.category, AccuracyWarning) for w in caught)
    assert warned or abs(got - want) <= 1e-10 * max(1.0, abs(want)), (got, want)


def test_l_function_keeps_the_route_whose_bound_says_more():
    # L(-15, chi mod 12 #1) ~ 0.  Euler-Maclaurin gives 2.52e6 with bound
    # 1.11e8, a value inside its own bound; the reflection gives -3.5e-4 with
    # bound 79.3.  Neither certifies; the reflected value is kept, and it is
    # within its bound of the true one.
    with pytest.warns(AccuracyWarning):
        got = l_function(characters_mod(12)[1], -15.0)
    assert abs(got - L_MAP[(12, 1, -15, 0)]) < 6.07


@pytest.mark.parametrize("q", [5, 7, 12])
def test_l_reflection_takes_one_series_per_pair_of_units(q, monkeypatch):
    # r/q and (q - r)/q pair up, since chi(q - r) = chi(-1) chi(r): phi(q)/2 series, not phi(q)
    calls = []
    series = special._li_series
    monkeypatch.setattr(special, "_li_series", lambda *args, **kw: calls.append(args[1]) or series(*args, **kw))
    s = np.array([-9.5 + 30.0j, -4.0 - 2.0j])
    for chi in characters_mod(q):
        units = [r for r in range(1, q) if chi(r) != 0.0]
        weights = np.array([chi(r) for r in units], dtype=complex)
        calls.clear()
        special._hurwitz_reflect(s, [r / q for r in units], weights, DEFAULT_SETTINGS)
        assert len(calls) == len(units) // 2


def test_l_function_takes_arrays():
    chi = characters_mod(9)[5]
    grid = np.array([[2.0 + 1.0j, -3.0 + 20.0j], [0.5 + 0.0j, -9.0 + 300.0j]])
    values = l_function(chi, grid)
    assert values.shape == grid.shape
    assert values[1, 1] == l_function(chi, -9.0 + 300.0j)


@pytest.mark.parametrize("q", [3, 12, 49, 97])
def test_l_function_far_right_is_one(q):
    # zeta(s, 1/q) ~ q^s overflows a double at these sigma, where L(s, chi) =
    # 1 + chi(2) 2^-s + ... is 1 to double precision.  49 * (1/49) != 1 in doubles:
    # (q b)^{-s} must take q b = 1, or L(1e5, chi mod 49) is off by 1.1e-11.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for chi in characters_mod(q)[:2]:
            for sigma in (300.0, 1000.0, 1e5):
                assert abs(l_function(chi, sigma) - 1.0) <= 1e-15


def test_l_function_beyond_the_double_range_raises():
    # L(-200, chi) for chi mod 7 is about 6e383 + 1.5e384 i
    with pytest.raises(DomainError):
        l_function(characters_mod(7)[1], -200.0)


def test_cli_l_function_beyond_the_double_range_exits_one():
    out, err = io.StringIO(), io.StringIO()
    code = run(["eval", "--family", "L", "--char-modulus", "7", "--char-index", "1", "--sigma", "-200"], out, err)
    assert code == EXIT_USAGE
    assert out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
