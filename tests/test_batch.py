"""Array evaluation against point-by-point evaluation.

Every kernel takes an array of points and runs its Euler-Maclaurin work in
blocks; a single number is a block of one.  These tests hold the two forms to
the same values, the same errors and the same warnings, and hold the zero
counts to the figures the point-by-point implementation produced.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from zetazeros import (
    AccuracyWarning,
    Alpha,
    EvalSettings,
    Family,
    PoleError,
    UnsupportedError,
    characters_mod,
    count_zeros_rectangle,
    eval_family,
    hurwitz_zeta,
    l_function,
    periodic_zeta,
)
from zetazeros import special, zeros

FAMILIES = (Family.Z, Family.P, Family.Y, Family.O, Family.X, Family.HURWITZ, Family.PERIODIC)
SHIFTS = (Alpha.parse("2/7"), Alpha(0.31))


def census_points(rng, n):
    """Points on and inside count tiles like the census ones: sigma in [-1, 2], t <= 60."""
    t_lo = rng.uniform(0.5, 55.0, n)
    return rng.uniform(-1.0, 2.0, n) + 1j * (t_lo + rng.uniform(0.0, 5.0, n))


def real_points(rng, n):
    return rng.uniform(-16.0, 3.0, n) + 0j


def assert_same_bits_alone_and_in_a_block(fn, pts):
    # a number in, a Python complex out; an array in, an array of its shape out;
    # and the same bits for a point alone, in the block and in the reversed block
    block = fn(pts)
    assert isinstance(block, np.ndarray) and block.shape == pts.shape
    assert np.array_equal(fn(pts[::-1])[::-1], block)
    alone = [fn(s) for s in pts.tolist()]
    assert all(isinstance(v, complex) for v in alone)
    assert np.array_equal(np.array(alone), block)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("alpha", SHIFTS, ids=str)
def test_family_array_matches_point_by_point(fam, alpha):
    rng = np.random.default_rng(20261018)
    pts = np.concatenate((census_points(rng, 40), real_points(rng, 24)))
    assert_same_bits_alone_and_in_a_block(lambda s: eval_family(fam, s, alpha), pts)


@pytest.mark.parametrize("fam", FAMILIES + (Family.RIEMANN,), ids=lambda f: f.value)
def test_far_field_family_is_the_same_alone_as_in_a_block(fam):
    # |Re s| <= 15 and |t| <= 700 at a small float a: long periodic series on
    # both sides, directly and behind the reflections
    rng = np.random.default_rng(20261019)
    pts = rng.uniform(-15.0, 15.0, 40) + 1j * rng.uniform(-700.0, 700.0, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        assert_same_bits_alone_and_in_a_block(lambda s: eval_family(fam, s, Alpha(0.0123)), pts)


@pytest.mark.parametrize("alpha", SHIFTS, ids=str)
def test_kernel_array_matches_point_by_point(alpha):
    rng = np.random.default_rng(7)
    pts = np.concatenate((census_points(rng, 40), real_points(rng, 24)))
    assert_same_bits_alone_and_in_a_block(lambda s: hurwitz_zeta(s, alpha), pts)
    assert_same_bits_alone_and_in_a_block(lambda s: periodic_zeta(s, alpha), pts)


@pytest.mark.parametrize("fam", (Family.P, Family.O, Family.PERIODIC), ids=lambda f: f.value)
@pytest.mark.parametrize("alpha", SHIFTS, ids=str)
def test_functional_equation_block_across_small_s(fam, alpha):
    # one block on the functional-equation route, with points on both sides of
    # |s| = 0.25 (where (c- + c+)/s changes form) and s = 0 itself
    pts = np.array([0.0, 1e-8, -1e-8 + 1e-8j, 0.1 - 0.2j, 0.2499, 0.2501, -0.2501 + 3j, 0.7 + 0.1j, -3.3, -1.0 + 20j])
    assert_same_bits_alone_and_in_a_block(lambda s: eval_family(fam, s, alpha), pts)


@pytest.mark.parametrize("q, index", [(5, 1), (9, 5), (12, 3)])
def test_l_function_array_matches_point_by_point(q, index):
    chi = characters_mod(q)[index]
    rng = np.random.default_rng(11)
    pts = np.concatenate((census_points(rng, 40), real_points(rng, 24)))
    assert_same_bits_alone_and_in_a_block(lambda s: l_function(chi, s), pts)


@pytest.mark.parametrize("q", (5, 8, 12))
def test_l_function_is_the_same_alone_as_in_a_block(q):
    # the q^{-s} scale of a weighted sum is applied out of place; numpy's
    # in-place complex multiply rounds a one-point array differently
    rng = np.random.default_rng(q)
    pts = rng.uniform(0.6, 3.0, 40) + 1j * rng.uniform(-30.0, 30.0, 40)
    for chi in characters_mod(q):
        assert_same_bits_alone_and_in_a_block(lambda s: l_function(chi, s), pts)


def test_exact_rational_route_is_the_same_alone_as_in_a_block():
    rng = np.random.default_rng(27)
    pts = rng.uniform(0.6, 3.0, 40) + 1j * rng.uniform(-30.0, 30.0, 40)
    alpha = Alpha.parse("2/7")
    assert_same_bits_alone_and_in_a_block(lambda s: periodic_zeta(s, alpha), pts)
    for fam in FAMILIES[:5]:
        assert_same_bits_alone_and_in_a_block(lambda s: eval_family(fam, s, alpha), pts)


def test_array_shape_is_kept():
    grid = np.array([[2.0 + 1.0j, 0.5 + 3.0j], [-1.5 + 0.0j, 3.0 + 20.0j]])
    values = eval_family(Family.X, grid, Alpha.parse("1/5"))
    assert values.shape == (2, 2)
    assert values[1, 0] == eval_family(Family.X, -1.5, Alpha.parse("1/5"))


def test_array_containing_the_pole_raises():
    pts = np.array([0.5 + 1.0j, 1.0 + 0.0j, 2.0 + 0.0j])
    with pytest.raises(PoleError):
        eval_family(Family.Z, pts, Alpha.parse("1/3"))
    with pytest.raises(PoleError):
        hurwitz_zeta(pts, 0.3)


def test_uncertified_point_in_a_block_still_warns(monkeypatch):
    # Deep in the left half-plane with t != 0 the entire part has no reflection
    # route, so only that point of the block stays uncertified.
    flagged = []
    monkeypatch.setattr(special, "_warn_accuracy", lambda rem, tol, s: flagged.append(s))
    pts = np.array([2.0 + 1.0j, 0.5 + 10.0j, -12.0 + 40.0j, 3.0 + 0.0j, -0.5 + 5.0j])
    cfg = special.DEFAULT_SETTINGS
    values, rems = special._hurwitz_combination(pts, (0.3,), (1.0,), cfg, subtract_pole=True)
    special._settle(pts, values, rems, cfg)
    assert flagged == [-12.0 + 40.0j]


def test_value_that_is_not_finite_is_not_certified():
    # zeta(300, 0.001) overflows a double; the value that comes out must carry a warning,
    # and no numpy RuntimeWarning may escape on the way
    with pytest.warns(AccuracyWarning):
        value = eval_family(Family.Y, np.array([300.0, 2.0]), 0.001)
    assert not np.isfinite(value[0]) and np.isfinite(value[1])


def test_far_point_in_a_block_gets_its_bits_alone():
    # at 300 + 40i the smallest base's power overflows and the sum takes (q b)^{-s} out
    # of every base; 2 + i takes the plain pass.  Neither route depends on the block.
    chi = characters_mod(12)[1]
    pts = np.array([300.0 + 40.0j, 2.0 + 1.0j, 300.0 + 0.0j])
    block = l_function(chi, pts)
    for i in range(pts.size):
        assert np.array_equal(block[i:i + 1], l_function(chi, pts[i:i + 1]))
    assert np.array_equal(block[::-1], l_function(chi, pts[::-1]))


# (bases, one row of weights): one base, a pair with opposite weights, and the
# nine bases n/9 with weights e^{2 pi i n/9}
EM_BASES = [
    ((0.3,), (1.0,)),
    ((0.3, 0.7), (1.0, -1.0)),
    (tuple(n / 9 for n in range(1, 10)), tuple(np.exp(2j * np.pi * np.arange(1, 10) / 9))),
]


@pytest.mark.parametrize("bases, weights", EM_BASES, ids=lambda x: str(len(x)))
@pytest.mark.parametrize("m", (2, 25, 40))
@pytest.mark.parametrize("subtract_pole", (False, True))
def test_em_pass_is_the_same_alone_as_in_a_block(bases, weights, m, subtract_pole):
    # every reduction of a pass runs along one point's own row, so the block
    # size cannot move a value, a remainder or a round-off estimate
    rng = np.random.default_rng(12)
    pts = np.concatenate((census_points(rng, 40), real_points(rng, 24)))
    w = np.array([weights])
    tol = special.DEFAULT_SETTINGS.target_abs_tol
    with np.errstate(all="ignore"):
        block = special._em_once(pts, bases, w, m, subtract_pole, tol)
        for i in range(pts.size):
            alone = special._em_once(pts[i:i + 1], bases, w, m, subtract_pole, tol)
            for got, want in zip(block, alone):
                assert np.array_equal(got[i:i + 1], want, equal_nan=True), (pts[i], got[i], want[0])


def em_blocks_within_the_cap(blocks):
    """Asserts that each block holds at most the cap, a point nb (m+1) powers
    and nb K corrections; returns whether some block of several points is full."""
    terms = special._EM_MAX_HALF_ORDER + 1
    most = [special._BLOCK_TERMS // (nb * max(m + 1, terms)) for _, nb, m in blocks]
    for (size, nb, m), cap in zip(blocks, most):
        assert size == 1 or size <= cap, (size, nb, m)
    return any(size == cap > 1 for (size, _, _), cap in zip(blocks, most))


def test_em_blocks_hold_at_most_the_term_cap(monkeypatch):
    blocks = []  # (points, bases, shift m) of every pass
    original = special._em_once

    def recording(s, base_key, w, m, *args):
        blocks.append((s.size, len(base_key), m))
        return original(s, base_key, w, m, *args)

    monkeypatch.setattr(special, "_em_once", recording)
    pts = census_points(np.random.default_rng(5), 2000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        eval_family(Family.Z, pts, Alpha.parse("2/7"))
        eval_family(Family.Y, pts, Alpha(0.31))
    em_blocks_within_the_cap(blocks)
    del blocks[:]
    special._li_rational(pts, 2, 9, special.DEFAULT_SETTINGS)  # nine bases n/9
    assert {nb for _, nb, _ in blocks} == {9}
    assert em_blocks_within_the_cap(blocks)  # the 514 points of shift 25 take full blocks of 121


def test_em_memory_is_bounded_by_the_term_cap():
    # q = 9: nine bases a point.  Run as one block, these points' temporaries
    # would peak at about 7.5 MB; in capped blocks they stay near 1.3 MB.
    pts = census_points(np.random.default_rng(6), 2000)
    cfg = special.DEFAULT_SETTINGS
    special._li_rational(pts[:1], 2, 9, cfg)  # constants cached outside the measurement
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            special._li_rational(pts, 2, 9, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * special._BLOCK_TERMS * 16  # a few complex temporaries of the cap


# At a = 0.05: route (a), the plain partial sum, at sigma = 17.3 and 9; route
# (c), the partial sum plus Boole's tail, at the other five, which take one
# tail call together.
MIXED_SERIES = np.array([17.3, 9.0 + 5.0j, 3.0 + 60.0j, 2.0 + 20.0j, 1.2 + 5.0j, 0.8 - 40.0j, 1.1])


def check_li_series_block(lam, tol):
    tails = []
    original = special._li_euler_tail

    def recording(s, *args):
        tails.append(s.size)
        return original(s, *args)

    cfg = EvalSettings(target_abs_tol=tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(special, "_li_euler_tail", recording)
        values, errs = special._li_series(MIXED_SERIES, 0.05, cfg, lam)
    assert tails == [5]
    alone = [special._li_series(MIXED_SERIES[i:i + 1], 0.05, cfg, lam) for i in range(MIXED_SERIES.size)]
    assert np.array_equal(np.concatenate([v for v, _ in alone]), values)
    assert np.array_equal(np.concatenate([e for _, e in alone]), errs)
    reverse = special._li_series(MIXED_SERIES[::-1], 0.05, cfg, lam)
    assert np.array_equal(reverse[0][::-1], values) and np.array_equal(reverse[1][::-1], errs)


@pytest.mark.parametrize("lam", (0.0, 1.0, -1.0))
def test_li_series_array_matches_point_by_point(lam):
    # at 1e-14 too: from N = 6(|s|+4)/|1-z|, 19 orders would leave s = 1.1 short of it
    for tol in (1e-12, 1e-14):
        check_li_series_block(lam, tol)


@pytest.mark.parametrize("a", (0.3, 0.05))
@pytest.mark.parametrize("lam", (0.0, 1.0, -1.0))
def test_plain_and_euler_routes_agree(a, lam):
    # For Re s > 1 both routes apply: the plain partial sum to 10^5 (tail below
    # 10^{-15} at sigma >= 4) against the partial sum to 1023 plus the tail from 1024.
    pts = np.array([4.0, 5.0 + 10.0j, 6.5 - 30.0j, 9.0 + 2.0j, 14.0 + 50.0j])
    plain = special._li_partial_sums(pts, [10**5] * pts.size, a, lam)
    tail, err = special._li_euler_tail(pts, np.full(pts.size, 1024), a, lam, 1e-14)
    euler = special._li_partial_sums(pts, [1023] * pts.size, a, lam) + tail
    assert (err <= 1e-14).all()
    chosen = special._li_series(pts, a, special.DEFAULT_SETTINGS, lam)[0]
    for p, e, c in zip(plain.tolist(), euler.tolist(), chosen.tolist()):
        assert abs(p - e) <= 1e-13 * max(1.0, abs(p))
        assert abs(c - p) <= 1e-13 * max(1.0, abs(p))


class RecordingExp:
    """Stands in for numpy in ``special``, recording the shape of every array
    that np.exp is given."""

    def __init__(self):
        self.shapes = []

    def exp(self, x, *args, **kwargs):
        self.shapes.append(np.shape(x))
        return np.exp(x, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("lam", (0.0, 1.0))
def test_series_terms_stay_within_the_term_cap_and_the_rounded_spans(lam, monkeypatch):
    # 300 short sums, so that many rows share a span, 100 of spread lengths,
    # and 20 longer than a chunk.  Only the partial sums' terms are
    # exponentiated as 2-D arrays.
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.76, 3.0, 420) + 1j * rng.uniform(-60.0, 60.0, 420)
    short, spread = rng.integers(1, 100, 300), rng.integers(100, 3000, 100)
    long = rng.integers(3 * 10**4, 8 * 10**4, 20)
    last = short.tolist() + spread.tolist() + (2 * long - 1).tolist()
    recorder = RecordingExp()
    monkeypatch.setattr(special, "np", recorder)
    special._li_partial_sums(pts, last, 0.3, lam)
    terms = [shape for shape in recorder.shapes if len(shape) == 2]
    assert all(rows == 1 or rows * n <= special._BLOCK_TERMS for rows, n in terms)
    assert all(n <= special._BLOCK_TERMS for _, n in terms)
    grid = special._LI_GRID
    spans = sum(-(-hi // grid) * grid for hi in last)
    assert sum(rows * n for rows, n in terms) <= spans
    assert max(rows for rows, _ in terms) > 32 and any(n == special._BLOCK_TERMS for _, n in terms)


def test_series_memory_is_bounded_by_the_term_cap():
    # s = 1.2 + 800i at a = 0.001 sums about 7.7e5 terms; in chunks of
    # _BLOCK_TERMS no temporary grows with them.
    tracemalloc.start()
    try:
        special._li_series(np.array([1.2 + 800.0j]), 0.001, special.DEFAULT_SETTINGS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * special._BLOCK_TERMS * 16  # a few complex temporaries of the cap


@pytest.mark.parametrize("sigma, t", [(0.5, 4e6), (0.5, 1e8), (-1.0, 1e8), (0.5, 1e308), (-1.0, 1.7e308)])
def test_euler_maclaurin_passes_beyond_the_term_cap_are_refused_before_any_pass(monkeypatch, sigma, t):
    # the shift m grows like |t| and a block holds one point at least, so only the
    # cap bounds a point's pass: Z's two bases times 4m + 1 exceed 2^23 here
    def refuse(*args):
        raise AssertionError("a pass ran before the term cap was checked")

    monkeypatch.setattr(special, "_em_once", refuse)
    with pytest.raises(UnsupportedError, match="terms"):
        eval_family(Family.Z, np.array([2.0 + 1.0j, complex(sigma, t)]), Alpha(0.3))


# (family, a, corners, initial samples) -> (count, samples_used).  The counts
# are those the point-by-point implementation produced.  samples_used is the
# number of segments of the last pass: pass 1 evaluates the n1 starts of its
# segments once, pass 2 only the n1 midpoints of the segments it halves, and
# no point is evaluated again, so a count that settles in two passes without
# refinement uses exactly 2 n1 points.
RECTANGLES = [
    (Family.Z, "1/6", (-1 + 1j, 2 + 30j), 512, 11, 1024),
    (Family.Z, "1/6", (-1 + 1j, 2 + 30j), 1024, 11, 2048),
    (Family.Z, "1/6", (-1 + 1j, 2 + 16j), 512, 4, 1028),
    (Family.Z, "1/6", (-1 + 16j, 2 + 30j), 512, 7, 1028),
    (Family.Z, "0.3", (2 + 1j, 3 + 10j), 256, 0, 516),
    (Family.Z, "0.3", (2 + 1j, 3 + 10j), 512, 0, 1028),
    (Family.P, "2/5", (0.55 + 1j, 0.95 + 50j), 500, 8, 1006),
    (Family.P, "2/5", (0.55 + 1j, 0.95 + 100j), 1000, 20, 2015),
]


@pytest.mark.parametrize("fam, a, corners, samples, count, used", RECTANGLES)
def test_rectangle_counts_and_samples_unchanged(fam, a, corners, samples, count, used):
    rc = count_zeros_rectangle(fam, Alpha.parse(a), corners, samples)
    assert (rc.count, rc.samples_used) == (count, used)


@pytest.mark.parametrize("fam, a, corners, samples, count, used",
                         [r for r in RECTANGLES if (r[0], r[1]) in ((Family.Z, "1/6"), (Family.P, "2/5"))])
def test_rectangle_count_evaluates_each_point_once(monkeypatch, fam, a, corners, samples, count, used):
    evaluated, passes = [], []
    evaluate, winding_pass = zeros.eval_family, zeros._winding_pass

    def record_points(fam, s, *args):
        evaluated.extend(np.atleast_1d(s).tolist())
        return evaluate(fam, s, *args)

    def record_segments(*args):
        winding, segments = winding_pass(*args)
        passes.append(segments)
        return winding, segments

    monkeypatch.setattr(zeros, "eval_family", record_points)
    monkeypatch.setattr(zeros, "_winding_pass", record_segments)
    rc = count_zeros_rectangle(fam, Alpha.parse(a), corners, samples)
    assert len(set(evaluated)) == len(evaluated) == rc.samples_used == passes[-1][0].size
    assert len(passes) >= 2
    # a closed path: the segments' starts and ends are the same points, each once
    points = [set(start.tolist()) for start, *_ in passes]
    for (start, end, *_), pts in zip(passes, points):
        assert len(pts) == start.size and set(end.tolist()) == pts
    # each pass keeps every point of the pass before, and the last pass holds every point evaluated
    for before, after in zip(points, points[1:]):
        assert before <= after
    assert points[-1] == set(evaluated)


# Census-like tiles (sigma in [-1, 2] or [0.05, 0.95], about 5 high, t <= 60),
# exact and float shifts.
CENSUS_TILES = [
    (Family.Z, "1/3", (-1 + 3.2j, 2 + 8.1j)),
    (Family.P, "0.2731", (0.05 + 11.7j, 0.95 + 16.5j)),
    (Family.Y, "2/9", (-1 + 19.4j, 2 + 24.2j)),
    (Family.O, "0.4117", (-1 + 27.9j, 2 + 32.6j)),
    (Family.X, "3/7", (0.05 + 33.1j, 0.95 + 38.3j)),
    (Family.Z, "0.1432", (0.05 + 39.8j, 0.95 + 44.7j)),
    (Family.P, "2/5", (-1 + 44.2j, 2 + 49.0j)),
    (Family.Y, "0.3618", (0.05 + 48.6j, 0.95 + 53.9j)),
    (Family.O, "1/4", (0.05 + 52.3j, 0.95 + 57.1j)),
    (Family.X, "0.0871", (-1 + 54.6j, 2 + 59.9j)),
]


@pytest.mark.parametrize("fam, a, corners", CENSUS_TILES, ids=[f"{f.value}-{a}" for f, a, _ in CENSUS_TILES])
def test_default_start_counts_as_512_samples_do(fam, a, corners):
    rc = count_zeros_rectangle(fam, Alpha.parse(a), corners)
    assert rc.count == count_zeros_rectangle(fam, Alpha.parse(a), corners, 512).count
    assert rc.samples_used < 512


# Per CENSUS_TILES entry: (count, samples_used, repr(boundary_min_abs),
# repr(winding_error)) as the count made them with one kernel call per
# halving round (the two reprs as Euler-Maclaurin passes of shift about
# (|t| + 12)/pi round them), and the number of eval_family calls it makes now.  The path
# and the midpoints pass 1 halves at are one call, which the first rounds of
# passes 0 and 1 both read: a count that pass 0 does not refine makes one
# call, and Z at 0.1432, whose pass 0 halves some path segments and then
# some of their halves, makes four (six with a call per round).
CENSUS_COUNTS = [
    (1, 132, "0.40075605595939456", "0.0", 1),
    (1, 132, "0.33100786593849996", "0.0", 1),
    (2, 132, "2.2703475371924338", "0.0", 1),
    (2, 132, "0.8594382726860986", "0.0", 1),
    (3, 132, "1.5506800937244618", "0.0", 1),
    (4, 136, "0.07102841759950566", "8.881784197001252e-16", 4),
    (2, 132, "1.126388922659229", "0.0", 1),
    (2, 132, "1.8763379474255304", "4.440892098500626e-16", 1),
    (3, 132, "0.769920610689618", "0.0", 1),
    (6, 132, "2.6037466553794473", "0.0", 1),
]


@pytest.mark.parametrize("tile, frozen", zip(CENSUS_TILES, CENSUS_COUNTS),
                         ids=[f"{f.value}-{a}" for f, a, _ in CENSUS_TILES])
def test_census_counts_keep_their_bytes_in_fewer_calls(monkeypatch, tile, frozen):
    fam, a, corners = tile
    calls = []
    evaluate = zeros.eval_family

    def record(*args):
        calls.append(args[1].size)
        return evaluate(*args)

    monkeypatch.setattr(zeros, "eval_family", record)
    rc = count_zeros_rectangle(fam, Alpha.parse(a), corners)
    assert (rc.count, rc.samples_used, repr(rc.boundary_min_abs), repr(rc.winding_error), len(calls)) == frozen


def test_count_takes_one_em_pass_per_shift_on_an_edge(monkeypatch):
    # every point of [0.5, 1.5] x [30, 35] has the shift 16, so the one
    # evaluation this count makes is at most two passes, not one per unit of t
    em_calls, per_evaluation = [], []
    em_once, evaluate = special._em_once, zeros.eval_family

    def record_pass(*args):
        em_calls.append(args[0].size)
        return em_once(*args)

    def record_evaluation(*args):
        before = len(em_calls)
        values = evaluate(*args)
        per_evaluation.append(len(em_calls) - before)
        return values

    monkeypatch.setattr(special, "_em_once", record_pass)
    monkeypatch.setattr(zeros, "eval_family", record_evaluation)
    count_zeros_rectangle(Family.Z, Alpha(0.31), (0.5 + 30j, 1.5 + 35j))
    # the path and the midpoints pass 1 reads are one evaluation
    assert len(per_evaluation) == 1
    assert max(per_evaluation) <= 2, per_evaluation


def right_half_points(rng, n):
    """sigma in [0, 20] and |t| <= 800, most of them low: the far-field workload's range at Re s >= 0."""
    t = 800.0 * rng.uniform(-1.0, 1.0, n) * rng.uniform(0.0, 1.0, n)
    return rng.uniform(0.0, 20.0, n) + 1j * t


@pytest.mark.parametrize("bases, weights", EM_BASES[1:], ids=lambda x: str(len(x)))
@pytest.mark.parametrize("tol", (1e-10, 1e-12))
def test_em_pass_at_re_s_nonnegative_certifies_at_its_first_shift(monkeypatch, bases, weights, tol):
    # the shift at Re s >= 0 is about (|t| + 12)/pi, 12 at the least, a quarter of
    # |t| and less higher up, and still certifies every point on its first pass:
    # no point is passed twice
    passes = []
    original = special._em_once

    def recording(s, base_key, w, m, *args):
        passes.append((s, m))
        return original(s, base_key, w, m, *args)

    monkeypatch.setattr(special, "_em_once", recording)
    pts = right_half_points(np.random.default_rng(35), 120)
    values, rems = special._hurwitz_combination(pts, bases, weights, EvalSettings(target_abs_tol=tol), True)
    assert special._certified(values, rems, tol).all()
    seen = np.concatenate([s for s, _ in passes])
    assert seen.size == pts.size and set(seen.tolist()) == set(pts.tolist())
    for s, m in passes:
        assert (m <= np.maximum(12.0, (np.abs(s.imag) + 12.0) / np.pi + 4.0)).all(), (m, s)


def test_em_orders_past_the_first_stage_round_as_all_of_them(monkeypatch):
    # a block at Re s >= 0 forms _EM_FIRST_ORDERS orders, and all K only if a point
    # needs more; the orders both share round alike, so staged and unstaged passes
    # give the same bits, alone, in a block and in a reversed block
    stages = []
    first_stop = special._first_stop
    monkeypatch.setattr(special, "_first_stop", lambda mag, *args: stages.append(mag.shape[1]) or first_stop(mag, *args))
    rng = np.random.default_rng(36)
    pts = np.concatenate((right_half_points(rng, 40), census_points(rng, 20)))
    bases, weights = EM_BASES[2]
    cfg = EvalSettings(target_abs_tol=1e-12)

    def forms():
        block = special._hurwitz_combination(pts, bases, weights, cfg, True)
        reverse = special._hurwitz_combination(pts[::-1], bases, weights, cfg, True)
        alone = [special._hurwitz_combination(pts[i:i + 1], bases, weights, cfg, True) for i in range(pts.size)]
        return block, [x[::-1] for x in reverse], [np.concatenate(x) for x in zip(*alone)]

    staged = forms()
    assert {special._EM_FIRST_ORDERS, special._EM_MAX_HALF_ORDER} <= set(stages)
    monkeypatch.setattr(special, "_EM_FIRST_ORDERS", special._EM_MAX_HALF_ORDER)
    unstaged = forms()
    for got in staged + unstaged:
        for x, y in zip(got, staged[0]):
            assert np.array_equal(x, y)
