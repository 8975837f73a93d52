"""Character construction, Gauss sums, L-functions, the two-way linear
relations, the rational closed forms, and the f/g modulus factors."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from zetazeros import (
    Alpha,
    DomainError,
    Family,
    PoleError,
    UnsupportedError,
    characters_mod,
    chi_minus3,
    chi_minus4,
    chi_minus6,
    closed_form_identity,
    euler_phi,
    eval_family,
    f_factor,
    g_factor,
    gauss_sum,
    l_function,
    linear_relation_residual,
    riemann_zeta,
)


# The moduli q <= 16 with no primitive character of the family's parity:
# l_from_family checks P and O on primitive characters only, so it raises there.
NO_PRIMITIVE = {Family.P: {2, 3, 4, 6, 10, 14}, Family.O: {2, 6, 10, 12, 14}}


def vacuous(fam, q):
    return q in NO_PRIMITIVE.get(fam, ())


def test_character_counts_and_principal_first():
    for q in (1, 2, 3, 4, 5, 6, 8, 12, 24, 30, 100):
        chars = characters_mod(q)
        assert len(chars) == euler_phi(q)
        assert chars[0].is_principal


def test_character_table_mod4_is_the_odd_one():
    chars = characters_mod(4)
    assert len(chars) == 2
    chi = chars[1]
    assert chi(1) == 1.0
    assert chi(3) == -1.0
    assert chi(0) == 0.0 and chi(2) == 0.0
    assert chi.parity == -1
    assert chi_minus4().values == chi.values


def test_character_tables_mod3_and_mod6():
    assert [chi_minus3()(n) for n in range(3)] == [0.0, 1.0, -1.0]
    assert [chi_minus6()(n) for n in range(6)] == [0.0, 1.0, 0.0, 0.0, 0.0, -1.0]


def test_character_multiplicativity_and_unit_modulus():
    rng = np.random.default_rng(31)
    for q in (5, 8, 9, 12, 21):
        for chi in characters_mod(q):
            for _ in range(20):
                m, n = rng.integers(0, 4 * q, size=2)
                assert chi(m * n) == pytest.approx(chi(m) * chi(n), abs=1e-12)
            for n in range(q):
                if math.gcd(n, q) == 1:
                    assert abs(chi(n)) == pytest.approx(1.0, abs=1e-12)
                else:
                    assert chi(n) == 0.0


def test_character_orthogonality():
    for q in range(1, 31):
        chars = characters_mod(q)
        phi = len(chars)
        for i, chi in enumerate(chars):
            for j, psi in enumerate(chars):
                total = sum(chi(r) * psi(r).conjugate() for r in range(q))
                want = phi if i == j else 0.0
                assert total == pytest.approx(want, abs=1e-9)


def test_modulus_cap():
    with pytest.raises(UnsupportedError):
        characters_mod(101)


@pytest.mark.parametrize("q", [0, -3])
def test_modulus_below_one_is_a_domain_error(q):
    with pytest.raises(DomainError):
        characters_mod(q)


def test_gauss_sums_exact_small_cases():
    assert gauss_sum(chi_minus4()) == pytest.approx(2j, abs=1e-14)
    assert gauss_sum(chi_minus3()) == pytest.approx(1j * math.sqrt(3.0), abs=1e-14)
    assert gauss_sum(characters_mod(1)[0]) == pytest.approx(1.0, abs=1e-14)


def test_conductors_and_primitivity():
    # the odd characters mod 3 and 4 are primitive; the odd character mod 6 is
    # induced from conductor 3; the principal character always has conductor 1
    assert chi_minus3().is_primitive and chi_minus3().conductor == 3
    assert chi_minus4().is_primitive and chi_minus4().conductor == 4
    assert not chi_minus6().is_primitive and chi_minus6().conductor == 3
    for q in (3, 4, 5, 8, 12):
        chars = characters_mod(q)
        assert chars[0].conductor == 1 and not (q > 1 and chars[0].is_primitive)
        assert any(c.is_primitive for c in chars)  # primitive chars exist for these q


def test_gauss_sum_modulus_for_primitive_characters():
    seen = 0
    for q in range(2, 31):
        for chi in characters_mod(q):
            if chi.is_primitive:
                seen += 1
                assert abs(gauss_sum(chi)) == pytest.approx(math.sqrt(q), abs=1e-10)
    assert seen > 100  # the sweep must not be vacuous


def test_l_function_catalan():
    # L(2, chi_{-4}) is Catalan's constant; oracle = direct alternating series
    n = np.arange(0, 2_000_000, dtype=float)
    catalan_oracle = float(np.sum((-1.0) ** n / (2.0 * n + 1.0) ** 2))
    val = l_function(chi_minus4(), 2.0)
    assert val.real == pytest.approx(catalan_oracle, abs=1e-12)
    assert val.real == pytest.approx(0.915965594177219015, abs=1e-9)
    assert abs(val.imag) < 1e-14


def test_l_function_mod1_is_riemann():
    chi = characters_mod(1)[0]
    assert l_function(chi, 2.0) == pytest.approx(riemann_zeta(2.0), rel=1e-13)


def test_l_function_principal_pole():
    with pytest.raises(PoleError):
        l_function(characters_mod(4)[0], 1.0)


def test_y_at_third_is_scaled_l():
    # Y(s, 1/3) = 3^s L(s, chi_{-3}); at s = -1 both sides vanish
    for s in (complex(-1.0, 0.0), complex(2.0, 3.0), complex(0.5, -7.0)):
        lhs = eval_family(Family.Y, s, Alpha.parse("1/3"))
        rhs = cmath.exp(s * math.log(3.0)) * l_function(chi_minus3(), s)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
    assert abs(eval_family(Family.Y, -1.0, Alpha.parse("1/3"))) < 1e-12


def test_linear_relations_both_directions():
    # one array call per (q, family, r) over the q's points; the scalar path is tested elsewhere
    rng = np.random.default_rng(32)
    for q in (3, 4, 5, 6, 8, 12):
        drawn = [complex(rng.uniform(0.3, 4.0), rng.uniform(-8.0, 8.0)) for _ in range(10)]
        s = np.array([x for x in drawn if abs(x - 1.0) >= 0.1])
        for r in range(1, q):
            if math.gcd(r, q) != 1:
                continue
            assert linear_relation_residual(Family.Z, r, q, s).max() < 1e-9
            assert linear_relation_residual(Family.P, r, q, s).max() < 1e-9
            if 2 * r < q:
                assert linear_relation_residual(Family.Y, r, q, s).max() < 1e-9
                assert linear_relation_residual(Family.O, r, q, s).max() < 1e-9
        for fam in (Family.Z, Family.P, Family.Y, Family.O):
            if vacuous(fam, q):
                with pytest.raises(UnsupportedError):
                    linear_relation_residual(fam, 1, q, s, direction="l_from_family")
            else:
                assert linear_relation_residual(fam, 1, q, s, direction="l_from_family").max() < 1e-9


def test_l_from_family_raises_where_no_primitive_character_of_the_parity_exists():
    s = np.array([2.5 + 1.0j, 1.5 - 3.0j])
    for fam, parity in ((Family.P, "even"), (Family.O, "odd")):
        for q in range(3, 17):
            if vacuous(fam, q):
                with pytest.raises(UnsupportedError, match=f"no primitive {parity} character mod {q}:"):
                    linear_relation_residual(fam, 1, q, s, direction="l_from_family")
            else:
                assert linear_relation_residual(fam, 1, q, s, direction="l_from_family").max() < 1e-9
    with pytest.raises(UnsupportedError, match="no primitive even character mod 2:"):
        linear_relation_residual(Family.P, 1, 2, s, direction="l_from_family")
    with pytest.raises(DomainError):  # no odd-family relation has 0 < 2r < 2
        linear_relation_residual(Family.O, 1, 2, s, direction="l_from_family")


def test_linear_relation_spec_examples():
    # Z(s, 1/3) = (3^s - 1) zeta(s): both the relation and the closed form
    s = 2.5
    assert linear_relation_residual(Family.Z, 1, 3, s) < 1e-9
    direct, closed = closed_form_identity(Family.Z, "1/3", s)
    want = (3.0**s - 1.0) * riemann_zeta(s).real
    assert direct.real == pytest.approx(want, rel=1e-11)
    assert closed.real == pytest.approx(want, rel=1e-13)
    # Y at 1/4 against 4^s L(s, chi_{-4})
    assert linear_relation_residual(Family.Y, 1, 4, complex(3, 2)) < 1e-9
    # q = 5: genuinely multi-character
    assert linear_relation_residual(Family.P, 1, 5, 2.0) < 1e-9


def test_linear_relation_preconditions():
    with pytest.raises(DomainError):
        linear_relation_residual(Family.Z, 2, 4, 2.0)
    with pytest.raises(DomainError):
        linear_relation_residual(Family.Y, 3, 4, 2.0)  # needs 2r < q
    with pytest.raises(DomainError):
        linear_relation_residual(Family.Z, [1, 2], 6, 2.0)  # every r of a sequence is checked


def test_linear_relations_cover_z_p_y_o_in_two_directions():
    with pytest.raises(DomainError):
        linear_relation_residual(Family.X, 1, 4, 2.0)  # X = Y + O has no relation of its own
    with pytest.raises(DomainError):
        linear_relation_residual(Family.Z, 1, 4, 2.0, direction="both")


def test_closed_forms_all_pairs():
    rng = np.random.default_rng(33)
    fams = (Family.Z, Family.P, Family.Y, Family.O, Family.X)
    for a_txt in ("1/2", "1/3", "1/4", "1/6"):
        for fam in fams:
            for _ in range(8):
                s = complex(rng.uniform(0.2, 5.0), rng.uniform(-12.0, 12.0))
                if abs(s - 1.0) < 0.05:
                    continue
                direct, closed = closed_form_identity(fam, a_txt, s)
                assert abs(direct - closed) < 1e-8 * max(1.0, abs(closed)), (fam, a_txt, s)


def test_closed_form_spec_examples():
    # Z at 1/6, s = 3: (2^3-1)(3^3-1) zeta(3) = 7 * 26 * zeta(3)
    direct, closed = closed_form_identity(Family.Z, "1/6", 3.0)
    assert closed.real == pytest.approx(7.0 * 26.0 * riemann_zeta(3.0).real, rel=1e-13)
    assert abs(direct - closed) < 1e-8
    # P at 1/4, s = 2: 2^{-1}(2^{-1}-1) zeta(2) = -pi^2/24
    direct, closed = closed_form_identity(Family.P, "1/4", 2.0)
    assert closed.real == pytest.approx(-math.pi**2 / 24.0, rel=1e-13)
    assert abs(direct - closed) < 1e-10
    # X at 1/6 against (6^s + 3^s + sqrt3 (1 + 2^{1-s})) L(s, chi_{-3})
    s = complex(0.5, 7.0)
    direct, closed = closed_form_identity(Family.X, "1/6", s)
    assert abs(direct - closed) < 1e-8


def test_closed_form_requires_exact_rational():
    with pytest.raises(UnsupportedError):
        closed_form_identity(Family.Z, 0.25, 2.0)
    with pytest.raises(UnsupportedError):
        closed_form_identity(Family.Z, "1/5", 2.0)


def _array_points(seed, sigma, t, n=6):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(*sigma, n) + 1j * rng.uniform(*t, n)
    return pts[np.abs(pts - 1.0) >= 0.05]


@pytest.mark.parametrize("a_txt", ["1/2", "1/3", "1/4", "1/6"])
def test_closed_form_identity_array_matches_point_by_point(a_txt):
    pts = _array_points(36, (0.1, 6.0), (-20.0, 20.0))
    for fam in (Family.Z, Family.P, Family.Y, Family.O, Family.X):
        direct, closed = closed_form_identity(fam, a_txt, pts)
        assert direct.shape == closed.shape == pts.shape
        reversed_pair = closed_form_identity(fam, a_txt, pts[::-1])
        alone = [closed_form_identity(fam, a_txt, s) for s in pts.tolist()]
        assert all(isinstance(v, complex) for pair in alone for v in pair)
        for side, got, back in zip((0, 1), (direct, closed), reversed_pair):
            assert np.array_equal(back[::-1], got), (fam, a_txt, side)
            assert np.array_equal(np.array([pair[side] for pair in alone]), got), (fam, a_txt, side)


@pytest.mark.parametrize("q", [5, 8, 12])
@pytest.mark.parametrize("direction", ["family_from_l", "l_from_family"])
def test_linear_relation_residual_array_matches_point_by_point(q, direction):
    pts = _array_points(37, (0.3, 4.0), (-8.0, 8.0)).reshape(2, -1)
    for fam in (Family.Z, Family.P, Family.Y, Family.O):
        for r in range(1, q):
            if math.gcd(r, q) != 1 or (fam.odd_symmetric and 2 * r > q):
                continue
            if direction == "l_from_family" and vacuous(fam, q):
                with pytest.raises(UnsupportedError):
                    linear_relation_residual(fam, r, q, pts, direction=direction)
                continue
            got = linear_relation_residual(fam, r, q, pts, direction=direction)
            assert got.shape == pts.shape
            reversed_block = linear_relation_residual(fam, r, q, pts[:, ::-1], direction=direction)
            assert np.array_equal(reversed_block[:, ::-1], got), (fam, r, q)
            alone = [linear_relation_residual(fam, r, q, s, direction=direction) for s in pts.ravel().tolist()]
            assert all(isinstance(v, float) for v in alone)
            assert np.array_equal(np.array(alone), got.ravel()), (fam, r, q)


@pytest.mark.parametrize("q", [5, 8, 12])
@pytest.mark.parametrize("direction", ["family_from_l", "l_from_family"])
def test_linear_relation_residual_takes_every_r_in_one_call(q, direction):
    pts = _array_points(37, (0.3, 4.0), (-8.0, 8.0)).reshape(2, -1)
    for fam in (Family.Z, Family.P, Family.Y, Family.O):
        rs = [r for r in range(1, q) if math.gcd(r, q) == 1 and (2 * r < q or not fam.odd_symmetric)]
        if direction == "l_from_family" and vacuous(fam, q):
            with pytest.raises(UnsupportedError):
                linear_relation_residual(fam, rs, q, pts, direction=direction)
            continue
        got = linear_relation_residual(fam, rs, q, pts, direction=direction)
        assert got.shape == (len(rs),) + pts.shape
        each = [linear_relation_residual(fam, r, q, pts, direction=direction) for r in rs]
        assert np.array_equal(got, np.array(each)), (fam, q)
        # r's shape goes in front of s's shape, also for a number s
        grid = np.array(rs[::-1]).reshape(1, -1)
        at_point = linear_relation_residual(fam, grid, q, complex(pts[1, 2]), direction=direction)
        assert at_point.shape == grid.shape
        assert at_point[0].tolist() == [row[1, 2] for row in each[::-1]], (fam, q)


def test_linear_relation_far_right():
    # zeta(400, 1/12) ~ 12^400 overflows a double; the relation's rational sums take
    # (q b)^{-s} out of every base and still close to double precision
    assert linear_relation_residual(Family.P, 1, 12, 400.0) <= 1e-14


def test_linear_relations_evaluate_each_family_value_once_per_pair_of_units(monkeypatch):
    import zetazeros.dirichlet as dirichlet

    calls = []
    original = dirichlet.eval_family

    def recording(fam, s, a, cfg):
        calls.append(Fraction(*a.exact))
        return original(fam, s, a, cfg)

    monkeypatch.setattr(dirichlet, "eval_family", recording)
    s = np.array([2.5 + 1.0j, 1.5 - 3.0j])
    for q in (5, 8, 12):
        units = [n for n in range(1, q) if math.gcd(n, q) == 1]
        pairs = {Fraction(min(n, q - n), q) for n in units}
        for fam in (Family.Z, Family.P, Family.Y, Family.O):
            rs = [r for r in units if 2 * r < q or not fam.odd_symmetric]
            for direction in ("family_from_l", "l_from_family"):
                calls.clear()
                if direction == "l_from_family" and vacuous(fam, q):
                    with pytest.raises(UnsupportedError):
                        linear_relation_residual(fam, rs, q, s, direction=direction)
                    assert not calls, (fam, q)
                    continue
                linear_relation_residual(fam, rs, q, s, direction=direction)
                assert len(calls) == len(set(calls)), (fam, q, direction)
                assert set(calls) == pairs, (fam, q, direction)


def test_identity_arrays_with_a_pole_raise_like_the_point():
    for fam in (Family.Z, Family.P):
        with pytest.raises(PoleError) as scalar:
            closed_form_identity(fam, "1/3", 1.0)
        with pytest.raises(PoleError) as array:
            closed_form_identity(fam, "1/3", np.array([2.0 + 1.0j, 1.0, 3.0]))
        assert str(array.value) == str(scalar.value)
    # L(s, principal) leaves the max at its pole, point by point; Z(1, r/q) itself is a pole
    assert linear_relation_residual(Family.Z, 1, 2, 1.0, direction="l_from_family") == 0.0
    pair = linear_relation_residual(Family.Z, 1, 2, np.array([1.0, 2.5]), direction="l_from_family")
    assert pair.tolist() == [0.0, linear_relation_residual(Family.Z, 1, 2, 2.5, direction="l_from_family")]
    with pytest.raises(PoleError):
        linear_relation_residual(Family.Z, 1, 5, np.array([2.5, 1.0]), direction="l_from_family")


def test_f_g_factors():
    s = complex(0.5, 5.0)
    assert abs(g_factor(s)) == pytest.approx(1.0, abs=1e-12)
    assert abs(f_factor(s)) == pytest.approx(1.0, abs=1e-12)
    assert abs(g_factor(0.8)) < 1.0
    rng = np.random.default_rng(34)
    for _ in range(30):
        s = complex(rng.uniform(-4, 4), rng.uniform(-20, 20))
        assert g_factor(1.0 - s) * g_factor(s) == pytest.approx(1.0, abs=1e-12)


def test_large_powers_raise_a_typed_error():
    with pytest.raises(DomainError, match="overflows"):
        f_factor(700.0)
    with pytest.raises(DomainError, match="overflows"):
        closed_form_identity(Family.Y, "1/6", 800 + 1j)


def test_f_g_separation_off_critical_line():
    # |f| > 1 > |g| for sigma > 1/2 and the mirror image for sigma < 1/2, so
    # the X(s, 1/6) prefactor 3^s(1+2^s) + sqrt3 (1+2^{1-s}) cannot vanish there
    rng = np.random.default_rng(35)
    for _ in range(500):
        s = complex(rng.uniform(0.5 + 1e-6, 6.0), rng.uniform(-40.0, 40.0))
        assert abs(f_factor(s)) > 1.0
        assert abs(g_factor(s)) < 1.0
        mirror = 1.0 - s
        assert abs(f_factor(mirror)) < 1.0
        assert abs(g_factor(mirror)) > 1.0


def test_g_factor_pole():
    t = math.pi / math.log(2.0)
    with pytest.raises(DomainError):
        g_factor(complex(0.0, t))
