"""Seeded job generators for the three benchmark workloads.

A job is the argv of one ``zetazeros`` CLI call; the program sees nothing
else.  Jobs come in passes.  Pass ``p`` of a run with seed ``n`` is a pure
function of ``(workload, n, p)``, and the warm-up pass has a draw of its own,
so two runs with the same seed do identical work.

Each job slot (a family, an exact or float shift, ...) draws its continuous
inputs from its own Halton sequence, jittered by the seed.  Pass ``p`` takes
the next unused points of that sequence, so the jobs of any number of
consecutive passes spread evenly over the input ranges.  That matters for
far-field, whose job cost grows like |t|/a: independent uniform draws would
let a handful of jobs decide a run's throughput.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

WORKLOADS = ("census", "real-axis", "far-field")
WARMUP = -1

COMPOSED = ("Z", "P", "Y", "O", "X")
EVAL_FAMILIES = COMPOSED + ("hurwitz", "periodic")
# One verify job per pass, in this order.  The relations suite runs a fixed
# ~0.2 s of Dirichlet sums; once in seven passes keeps it from setting the
# far-field tail, which belongs to the small-a periodic series.
VERIFY_CYCLE = ("special-values", "functional-equations", "closed-forms") * 2 + ("relations",)
CLOSED_FORM_ALPHAS = ("1/2", "1/3", "1/4", "1/6")

# Input ranges; README.md gives the reason for each.
CENSUS_T_MAX = 60.0
CENSUS_SIGMA = (("-1", "2"), ("0.05", "0.95"))
SCAN_FROM = -16.0
SCAN_TO = (0.9, 3.0)
BETA_A = (0.005, 0.245)
FAR_SIGMA = (-20.0, 20.0)
FAR_T = (1.0, 800.0)
FAR_A = (1e-3, 0.5)
L_MODULI = tuple(range(3, 13))

_PRIMES = (2, 3, 5, 7, 11, 13)
# Seeds move each point by up to 1/JITTER of every range, so all seeds put
# their points in the same small cells of the input box and a run's cost
# barely depends on the seed, while no input ever repeats.
JITTER = 32
# The warm-up pass takes points this far along each sequence, past any timed pass.
WARMUP_INDEX = 1000


@dataclass(frozen=True)
class Job:
    """One CLI call: ``kind`` is the subcommand, ``argv`` the full argument list."""

    kind: str
    argv: Tuple[str, ...]

    def option(self, name: str, default: str = None) -> str:
        """The value given for ``--name`` (or ``default`` if absent)."""
        flag = "--" + name
        for i, arg in enumerate(self.argv):
            if arg == flag and i + 1 < len(self.argv):
                return self.argv[i + 1]
            if arg.startswith(flag + "="):
                return arg[len(flag) + 1:]
        return default


def _fractions(limit: Fraction) -> Tuple[str, ...]:
    """Reduced r/q with 3 <= q <= 12 and 0 < r/q < limit."""
    out = set()
    for q in range(3, 13):
        for r in range(1, q):
            if math.gcd(r, q) == 1 and Fraction(r, q) < limit:
                out.add(Fraction(r, q))
    return tuple(f"{f.numerator}/{f.denominator}" for f in sorted(out))


# Y, O and X vanish identically at a = 1/2, so exact shifts stay below it.
HALF_FRACTIONS = _fractions(Fraction(1, 2))
UNIT_FRACTIONS = _fractions(Fraction(1))


def _radical_inverse(i: int, base: int) -> float:
    inv, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        inv += digit * scale
        scale /= base
    return inv


def _point(key: str, i: int) -> List[float]:
    """Point i of the Halton sequence, each coordinate moved by up to 1/JITTER at random."""
    rng = random.Random(f"{key}:{i}")
    return [(_radical_inverse(i + 1, b) + rng.random() / JITTER) % 1.0 for b in _PRIMES]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _pick(u: float, choices: Sequence[str]) -> str:
    return choices[min(int(u * len(choices)), len(choices) - 1)]


def _num(x: float, digits: int = 4) -> str:
    return f"{x:.{digits}f}"


class _Draw:
    """One pass: its points, and a random source for the discrete choices."""

    def __init__(self, workload: str, seed: int, pass_index: int):
        self._key = f"{workload}:{seed}"
        self.index = WARMUP_INDEX if pass_index == WARMUP else pass_index
        self.rng = random.Random(f"{self._key}:{self.index}")

    def point(self, slot: str, index: int) -> List[float]:
        return _point(f"{self._key}:{slot}", index)

    def fmt(self) -> List[str]:
        return ["--format", self.rng.choice(("csv", "json"))]


def _census(d: _Draw) -> List[Job]:
    """One count tile per composed family; exact and float shifts alternate by pass."""
    jobs = []
    for k, fam in enumerate(COMPOSED):
        exact = (d.index + k) % 2 == 0
        u_t, u_h, u_sigma, u_a = d.point(f"{fam}:{'exact' if exact else 'float'}", d.index // 2)[:4]
        a = _pick(u_a, HALF_FRACTIONS) if exact else f"{0.05 + 0.40 * u_a:.6f}"
        sigma_lo, sigma_hi = CENSUS_SIGMA[0 if u_sigma < 0.5 else 1]
        t_lo = 0.5 + (CENSUS_T_MAX - 6.0) * u_t
        t_hi = t_lo + 4.5 + u_h
        argv = ["count", "--family", fam, "--a", a, "--re-from", sigma_lo, "--re-to", sigma_hi,
                "--im-from", _num(t_lo), "--im-to", _num(t_hi)] + d.fmt()
        jobs.append(Job("count", tuple(argv)))
    return jobs


def _real_axis(d: _Draw) -> List[Job]:
    """One scan per family plus two beta jobs each for Z and P."""
    jobs = []
    for k, fam in enumerate(("Z", "Y", "O", "X", "P", "hurwitz")):
        exact = (d.index + k) % 2 == 0
        u_a, u_to, u_lo, u_hi = d.point(f"scan:{fam}:{'exact' if exact else 'float'}", d.index // 2)[:4]
        if exact:
            a = _pick(u_a, UNIT_FRACTIONS if fam == "hurwitz" else HALF_FRACTIONS)
        else:
            a = f"{0.02 + (0.96 if fam == 'hurwitz' else 0.46) * u_a:.6f}"
        # Endpoints are jittered by up to 0.1 so that exact shifts never repeat an argv.
        lo = SCAN_FROM - 0.1 + 0.2 * u_lo
        hi = SCAN_TO[0 if u_to < 0.5 else 1] - 0.05 + 0.1 * u_hi
        argv = ["scan", "--family", fam, "--a", a, "--from", _num(lo), "--to", _num(hi)] + d.fmt()
        jobs.append(Job("scan", tuple(argv)))
    for fam in ("Z", "P"):
        for j in range(2):
            u_a, u_w, u_n = d.point(f"beta:{fam}", 2 * d.index + j)[:3]
            a_lo = BETA_A[0] + (BETA_A[1] - BETA_A[0]) * u_a
            if u_n < 1.0 / 3.0:
                argv = ["beta", "--family", fam, "--a", f"{a_lo:.6f}"]
            else:
                a_hi = min(a_lo + 0.01 + 0.05 * u_w, BETA_A[1])
                points = "2" if u_n < 2.0 / 3.0 else "3"
                argv = ["beta", "--family", fam, "--a-from", f"{a_lo:.6f}", "--a-to", f"{a_hi:.6f}",
                        "--a-points", points]
            jobs.append(Job("beta", tuple(argv + d.fmt())))
    return jobs


def _line(d: _Draw, t: float, u_step: float) -> List[str]:
    """--t for five points along t at height |t|, with either sign."""
    step = 0.05 + 0.45 * u_step
    lo = t if d.rng.random() < 0.5 else -t - 4.0 * step
    lo_s, step_s = _num(lo), f"{step:.3f}"
    hi = float(lo_s) + 4.0 * float(step_s)
    # "--t=" keeps argparse from reading a negative grid as an option.
    return [f"--t={lo_s}:{hi:.6f}:{step_s}"]


def _far_field(d: _Draw) -> List[Job]:
    """Two eval lines per family, two L lines and one verify job (see VERIFY_CYCLE).

    The first timed pass adds one periodic-zeta line at the far corner of the
    box (smallest a, largest |t|, Re s just above the series threshold), the
    costliest input there is, so that every run meets it once.
    """
    jobs = []
    if d.index == 0:
        u_a, u_t, u_sigma, u_step = d.point("corner", 0)[:4]
        a = FAR_A[0] * (1.0 + 0.05 * u_a)
        t = FAR_T[1] * (1.0 - 0.05 * u_t)
        argv = ["eval", "--family", "periodic", "--a", f"{a:.6g}", "--sigma", _num(0.8 + 1.2 * u_sigma)]
        jobs.append(Job("eval", tuple(argv + _line(d, t, u_step) + d.fmt())))
    for fam in EVAL_FAMILIES:
        for j in range(2):
            u_a, u_t, u_sigma, u_step = d.point(f"eval:{fam}", 2 * d.index + j)[:4]
            a = _log_uniform(u_a, *FAR_A)
            sigma = FAR_SIGMA[0] + (FAR_SIGMA[1] - FAR_SIGMA[0]) * u_sigma
            argv = ["eval", "--family", fam, "--a", f"{a:.6g}", "--sigma", _num(sigma)]
            jobs.append(Job("eval", tuple(argv + _line(d, _log_uniform(u_t, *FAR_T), u_step) + d.fmt())))
    for j in range(2):
        u_t, u_sigma, u_step = d.point("eval:L", 2 * d.index + j)[:3]
        q = d.rng.choice(L_MODULI)
        index = d.rng.randrange(sum(1 for r in range(1, q) if math.gcd(r, q) == 1))
        sigma = FAR_SIGMA[0] + (FAR_SIGMA[1] - FAR_SIGMA[0]) * u_sigma
        argv = ["eval", "--family", "L", "--char-modulus", str(q), "--char-index", str(index),
                "--sigma", _num(sigma)]
        jobs.append(Job("eval", tuple(argv + _line(d, _log_uniform(u_t, *FAR_T), u_step) + d.fmt())))
    cycle, pos = divmod(d.index, len(VERIFY_CYCLE))
    suite = VERIFY_CYCLE[pos]
    earlier = cycle * VERIFY_CYCLE.count(suite) + VERIFY_CYCLE[:pos].count(suite)
    u_a, u_tol = d.point(f"verify:{suite}", earlier)[:2]
    argv = ["verify", "--suite", suite]
    if suite in ("special-values", "functional-equations"):
        argv += ["--a", f"{_log_uniform(u_a, *FAR_A):.6g}"]
    else:
        # These suites take few distinct inputs; a drawn --tol keeps every argv fresh.
        if suite == "closed-forms":
            argv += ["--a", d.rng.choice(CLOSED_FORM_ALPHAS)]
            if d.rng.random() < 0.5:
                argv += ["--family", d.rng.choice(COMPOSED)]
        argv += ["--tol", f"{_log_uniform(u_tol, 1e-12, 1e-11):.6g}"]
    jobs.append(Job("verify", tuple(argv + d.fmt())))
    return jobs


_GENERATORS = {"census": _census, "real-axis": _real_axis, "far-field": _far_field}


def draw_pass(workload: str, seed: int, pass_index: int) -> List[Job]:
    """The jobs of one pass, in the order they run (``pass_index`` WARMUP for the warm-up)."""
    d = _Draw(workload, seed, pass_index)
    jobs = _GENERATORS[workload](d)
    d.rng.shuffle(jobs)
    return jobs
