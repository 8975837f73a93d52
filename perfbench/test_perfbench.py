"""Tests of the benchmark itself: its job generator, its tracer and its reference.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WARMUP, WORKLOADS, draw_pass  # noqa: E402

mpmath = pytest.importorskip("mpmath")
import reference  # noqa: E402

PASSES = 40  # more than any run of up to 16 s makes


def _argvs(workload, seed, passes=PASSES):
    return [job.argv for p in [WARMUP] + list(range(passes)) for job in draw_pass(workload, seed, p)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_argv(workload):
    assert _argvs(workload, 7, 6) == _argvs(workload, 7, 6)
    assert _argvs(workload, 7, 6) != _argvs(workload, 8, 6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_argv_repeats_across_passes(workload):
    for seed in (1, 2, 3):
        argvs = _argvs(workload, seed)
        assert len(set(argvs)) == len(argvs)


def _alpha(text):
    return Fraction(text) if "/" in text else float(text)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_inputs_are_valid(workload):
    from zetazeros import cli
    from zetazeros.dirichlet import euler_phi

    parser = cli.build_parser()
    for seed in (1, 2):
        for p in [WARMUP] + list(range(PASSES)):
            for job in draw_pass(workload, seed, p):
                args = parser.parse_args(list(job.argv))
                assert args.command == job.kind
                fam = job.option("family")
                a = job.option("a")
                if a is not None:
                    value = _alpha(a)
                    if fam in workloads.COMPOSED:
                        assert 0 < value <= 0.5
                        if fam in ("Y", "O", "X") and job.kind != "verify":
                            assert value != Fraction(1, 2)  # Y, O and X vanish there
                    else:
                        assert 0 < value < 1
                if job.kind == "count" and fam == "Z":
                    sigma = (float(job.option("re-from")), float(job.option("re-to")))
                    t = (float(job.option("im-from")), float(job.option("im-to")))
                    dx = max(sigma[0] - 1.0, 0.0, 1.0 - sigma[1])
                    dy = max(t[0], 0.0, -t[1])
                    assert math.hypot(dx, dy) >= 0.01
                if job.kind == "count":
                    assert float(job.option("im-to")) <= workloads.CENSUS_T_MAX
                if job.kind == "beta":
                    for key in ("a", "a-from", "a-to"):
                        if job.option(key) is not None:
                            assert 0 < float(job.option(key)) < 0.25
                if job.kind == "scan":
                    assert float(job.option("from")) < float(job.option("to"))
                if job.kind == "eval":
                    lo, hi, step = (float(x) for x in job.option("t").split(":"))
                    assert int(round((hi - lo) / step)) + 1 == 5
                    assert min(abs(lo), abs(hi)) >= workloads.FAR_T[0]
                    assert -20.0 <= float(job.option("sigma")) <= 20.0
                    if fam == "L":
                        q = int(job.option("char-modulus"))
                        assert q <= 12 and 0 <= int(job.option("char-index")) < euler_phi(q)
                    else:
                        assert workloads.FAR_A[0] <= float(a) <= workloads.FAR_A[1]


def test_far_field_keeps_the_known_defects_in_range():
    """|t| reaches past 460, where the seed overflows, and a reaches 1e-3."""
    evals = [job for p in range(20) for job in draw_pass("far-field", 1, p) if job.kind == "eval"]
    heights = [max(abs(float(x)) for x in job.option("t").split(":")[:2]) for job in evals]
    shifts = [float(job.option("a")) for job in evals if job.option("a")]
    assert max(heights) > 700 and sum(h >= 460 for h in heights) >= 10
    assert min(shifts) < 1.2e-3


def test_span_self_times_add_up_to_traced_wall_time():
    runner = bench.Runner()
    tracer = spans.Tracer()
    tracer.install()
    try:
        records = runner.run_passes("real-axis", 3, 1, tracer)
    finally:
        tracer.uninstall()
    wall = sum(r.latency for r in records)
    covered = sum(tracer.self_s.values())
    assert covered <= wall
    assert covered >= 0.97 * wall
    metrics = tracer.metrics(0)
    assert metrics["cli.run.calls"] == len(records)
    assert metrics["zeros.scan.calls"] >= 6 and metrics["zeros.scan.evals"] > 0
    assert metrics["special.em.passes"] >= metrics["special.em.calls"] > 0


def test_tracer_rebinds_imported_names_and_restores_them():
    from zetazeros import families, special, zeros

    original = special.gamma
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert families.gamma is not original and zeros.gamma is families.gamma
        assert special.gamma is families.gamma
    finally:
        tracer.uninstall()
    assert families.gamma is original and zeros.gamma is original and special.gamma is original


def test_missing_entry_point_is_named_not_zero(monkeypatch):
    from zetazeros import special

    monkeypatch.delattr(special, "_em_once")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "special._em_once" in tracer.missing
    metrics = tracer.metrics(0)
    assert "special.em.passes" not in metrics and "special.em.us_per_pass" not in metrics
    assert "special.li_series.calls" in metrics


def test_reference_periodic_matches_hurwitz_sum_at_rational_a():
    mp = mpmath.mp
    with mp.workdps(25):
        s, r, q = mp.mpc(0.3, 40.0), 2, 7
        direct = mp.fsum(mp.expjpi(2 * mp.mpf(r * n) / q) * mp.zeta(s, mp.mpf(n) / q)
                         for n in range(1, q + 1)) / mp.power(q, s)
        assert abs(reference.family_value(mp, "periodic", s, mp.mpf(r) / q) - direct) < 1e-18


def test_reference_l_value_matches_mpmath_dirichlet_left_of_zero():
    mp = mpmath.mp
    chi = [0, 1, 0, -1]  # the odd character mod 4
    with mp.workdps(20):
        for s in (mp.mpc(-3.5, 12.0), mp.mpc(-11.0, -40.0), mp.mpc(0.5, 7.0)):
            ref = mp.dirichlet(s, chi)
            assert abs(reference.l_value(s, chi) - ref) <= 1e-15 * max(1, abs(ref))


def test_reference_winding_counts_polynomial_zeros():
    def f(z):
        return (z - 0.5j) * (z - (1 + 2j)) * (z + 3)

    assert reference.winding_count(f, -1 - 1j, 2 + 3j) == 2
    assert reference.winding_count(f, 0.5 + 1j, 2 + 3j) == 1
    assert reference.winding_count(f, -4 + 1j, -2 + 3j) == 0


def test_reference_flags_a_wrong_value_unless_warned():
    from zetazeros import cli

    job = workloads.Job("eval", ("eval", "--family", "Y", "--a", "0.3", "--sigma", "2.5",
                                 "--t=10:12:0.5", "--format", "json"))
    out = io.StringIO()
    assert cli.run(list(job.argv), out=out) == 0
    assert reference.check(job, out.getvalue(), False).ok
    payload = json.loads(out.getvalue())
    payload["rows"][2]["re"] += 1e-9
    broken = json.dumps(payload)
    assert not reference.check(job, broken, False).ok
    assert reference.check(job, broken, True).ok


def test_check_workers_keep_order_and_leave_no_child():
    import os

    from zetazeros import cli

    argvs = [("eval", "--family", "Y", "--a", a, "--sigma", "2.5", "--t=10:12:0.5", "--format", "csv")
             for a in ("0.3", "0.2")]
    argvs.append(("eval", "--family", "L", "--char-modulus", "4", "--char-index", "1", "--sigma", "2.5",
                  "--t=10:12:0.5", "--format", "csv"))
    tasks = []
    for argv in argvs:
        out = io.StringIO()
        assert cli.run(list(argv), out=out) == 0
        tasks.append((workloads.Job("eval", argv), out.getvalue(), False))
    tasks.insert(1, (tasks[0][0], tasks[1][1], False))  # the a = 0.3 job with the a = 0.2 values
    verdicts = bench.check_in_workers(tasks)
    assert [v.ok for v in verdicts] == [True, False, True, True]
    assert all(v.checked for v in verdicts)
    with pytest.raises(ChildProcessError):  # no child, running or unreaped, is left
        os.waitpid(-1, os.WNOHANG)
