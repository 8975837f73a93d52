"""Independent mpmath reference for every output the CLI prints.

Values are recomputed at 20 significant digits from ``mpmath.zeta`` alone:
Z and Y as sums of Hurwitz zetas, the periodic zeta (and so P, O, X) from
Hurwitz's formula in zeta(1-s, a) and zeta(1-s, 1-a), and L(s, chi) as a sum
of Hurwitz zetas at r/q.  ``mpmath.polylog`` is not used: it is far off at
large |t|.  Zero counts come from a winding number of the same formulas in
mpmath's double-precision ``fp`` context, which is plenty for argument
increments.  Zeros and beta values are checked with a secant step in mp, and
the sign of the family between reported zeros checks that none is missing.

``check(job, stdout, warned)`` returns a ``Verdict``: ``ok`` and, when
not ok, the reason; ``err_ratio`` is the largest error divided by the
tolerance the output promises.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from mpmath import fp, mp
from mpmath.libmp import NoConvergence

DPS = 20
BRACKET = 1e-10  # width every zero location and beta value is bisected to
TOUCH_TOL = 1e-6  # |f| below which the CLI reports an even touch
DEFAULT_TOL = 1e-12
SCAN_TOL = 1e-10  # per-evaluation target the CLI certifies during sweeps
POLE_GAP = 0.01


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    err_ratio: float = 0.0
    checked: bool = True  # False when the reference itself failed


def parse_rows(stdout: str) -> List[Dict[str, str]]:
    """Rows of a CSV or JSON result, every field as the text it was printed as."""
    text = stdout.strip()
    if text.startswith("{"):
        return [{k: str(v) if not isinstance(v, float) else repr(v) for k, v in row.items()}
                for row in json.loads(text)["rows"]]
    return list(csv.DictReader(io.StringIO(text)))


def _alpha(ctx, text: str):
    if "/" in text:
        r, q = text.split("/")
        return ctx.mpf(int(r)) / int(q)
    return ctx.mpf(float(text))


# ---------------------------------------------------------------------------
# Family values, in either context (mp for values, fp for contours).

def _nudge(ctx, s):
    """Step off the removable singularities of Hurwitz's formula (s = 0, 1, 2, ...)."""
    if ctx.im(s) == 0 and ctx.re(s) >= 0 and ctx.re(s) == int(ctx.re(s)):
        return s + (ctx.mpf(10) ** (-(ctx.dps + 5)) if ctx is mp else 1e-9)
    return s


def _periodic_pair(ctx, s, a):
    """(Li_s(e^{2 pi i a}), Li_s(e^{-2 pi i a})) from zeta(1-s, a) and zeta(1-s, 1-a)."""
    s = _nudge(ctx, s)
    w = 1 - s
    g = ctx.gamma(w) * (2 * ctx.pi) ** (-w)
    h = ctx.exp(0.5j * ctx.pi * w)
    za, zb = ctx.zeta(w, a), ctx.zeta(w, 1 - a)
    return g * (h * za + zb / h), g * (h * zb + za / h)


def family_value(ctx, fam: str, s, a):
    if fam == "hurwitz":
        return ctx.zeta(s, a)
    if fam in ("Z", "Y", "X"):
        za, zb = ctx.zeta(s, a), ctx.zeta(s, 1 - a)
        if fam == "Z":
            return za + zb
        if fam == "Y":
            return za - zb
        return za - zb + family_value(ctx, "O", s, a)
    la, lb = _periodic_pair(ctx, s, a)
    if fam == "periodic":
        return la
    if fam == "P":
        return la + lb
    if fam == "O":
        return -1j * (la - lb)
    raise ValueError(f"no reference for family {fam!r}")


def _real_section(ctx, fam: str, a) -> Callable:
    def f(x):
        return ctx.re(family_value(ctx, fam, ctx.mpc(x, 0), a))

    return f


def _fp_function(fam: str, a_text: str) -> Callable[[complex], complex]:
    """The family in fp, falling back to mp where fp.zeta gives up on cancellation."""
    a_fp = _alpha(fp, a_text)

    def f(s: complex) -> complex:
        try:
            return complex(family_value(fp, fam, s, a_fp))
        except NoConvergence:
            with mp.workdps(DPS):
                return complex(family_value(mp, fam, mp.mpc(s), _alpha(mp, a_text)))

    return f


# ---------------------------------------------------------------------------
# Checks per subcommand.

def _check_eval(job, rows: List[Dict[str, str]], warned: bool) -> Verdict:
    fam = job.option("family")
    tol = float(job.option("tol", repr(DEFAULT_TOL)))
    lo, _, step = (float(x) for x in job.option("t").split(":"))
    sigma = float(job.option("sigma"))
    if len(rows) != 5:
        return Verdict(False, f"expected 5 rows, got {len(rows)}")
    if fam == "L":
        values = _character(int(job.option("char-modulus")), int(job.option("char-index")))
        if values is None:
            return Verdict(False, "character table is not a Dirichlet character")
    worst = 0.0
    with mp.workdps(DPS):
        a = None if fam == "L" else _alpha(mp, job.option("a"))
        for i, row in enumerate(rows):
            x, t = float(row["sigma"]), float(row["t"])
            if x != sigma or abs(t - (lo + i * step)) > 1e-9 * max(1.0, abs(t)):
                return Verdict(False, f"row {i} is at ({x}, {t}), not on the requested line")
            s = mp.mpc(x, t)
            ref = l_value(s, values) if fam == "L" else family_value(mp, fam, s, a)
            got = complex(float(row["re"]), float(row["im"]))
            ratio = float(abs(mp.mpc(got) - ref) / (tol * max(1, abs(ref))))
            if not math.isfinite(ratio):
                ratio = math.inf
            worst = max(worst, ratio)
    if worst > 1.0 and not warned:
        return Verdict(False, f"value off by {worst:.3g} x tolerance with no AccuracyWarning", worst)
    return Verdict(True, err_ratio=0.0 if warned else worst)


def l_value(s, chi: List[complex]):
    """L(s, chi) = q^-s sum_r chi(r) zeta(s, r/q), in mp.

    For Re s < 0 mpmath reflects each zeta(s, r/q) on its own, through q
    values zeta(1-s, k/q); those values are shared here, by the same formula
    zeta(s, r/q) = 2 Gamma(t) (2 pi q)^-t sum_k cos(pi t/2 - 2 pi k r/q) zeta(t, k/q)
    with t = 1 - s.
    """
    q = len(chi)
    if mp.re(s) >= 0:
        return mp.dirichlet(s, chi)
    t = 1 - s
    zk = [mp.zeta(t, (k, q)) for k in range(1, q + 1)]
    pref = 2 * mp.gamma(t) / (2 * mp.pi * q) ** t
    total = mp.mpc(0)
    for r in range(1, q + 1):
        if chi[r % q]:
            total += chi[r % q] * mp.fsum(mp.cospi(t / 2 - mp.mpf(2 * k * r) / q) * zk[k - 1]
                                          for k in range(1, q + 1))
    return pref * total / mp.power(q, s)


def _character(q: int, index: int) -> Optional[List[complex]]:
    """chi(0..q-1) as the program defines character ``index``, if it is a character."""
    from zetazeros.dirichlet import characters_mod

    chars = characters_mod(q)
    if not 0 <= index < len(chars):
        return None
    values = list(chars[index].values)
    for m in range(q):
        coprime = math.gcd(m, q) == 1
        if abs(abs(values[m]) - (1.0 if coprime else 0.0)) > 1e-12:
            return None
        for n in range(q):
            if abs(values[m * n % q] - values[m] * values[n]) > 1e-12:
                return None
    return values


def _check_count(job, rows: List[Dict[str, str]]) -> Verdict:
    if len(rows) != 1:
        return Verdict(False, f"expected 1 row, got {len(rows)}")
    fam = job.option("family")
    f = _fp_function(fam, job.option("a"))
    c0 = complex(float(job.option("re-from")), float(job.option("im-from")))
    c1 = complex(float(job.option("re-to")), float(job.option("im-to")))
    expected = winding_count(f, c0, c1)
    got = int(rows[0]["count"])
    if expected is None:
        return Verdict(False, "reference winding number did not settle")
    if got != expected:
        return Verdict(False, f"count {got}, reference {expected}")
    return Verdict(True)


def winding_count(f: Callable[[complex], complex], c0: complex, c1: complex) -> Optional[int]:
    """Zeros of f in the rectangle with corners c0, c1, by the argument principle.

    Segments are halved until each argument increment is below pi/4; the
    boundary sampling is doubled once if the total is not near an integer.
    """
    corners = [c0, complex(c1.real, c0.imag), c1, complex(c0.real, c1.imag)]
    for per_unit in (8.0, 32.0):
        total = 0.0
        for k in range(4):
            p, q = corners[k], corners[(k + 1) % 4]
            n = max(4, math.ceil(abs(q - p) * per_unit))
            pts = [p + (q - p) * i / n for i in range(n + 1)]
            vals = [complex(f(z)) for z in pts]
            for i in range(n):
                total += _arg_increment(f, pts[i], pts[i + 1], vals[i], vals[i + 1], 0)
        winding = total / (2.0 * math.pi)
        if abs(winding - round(winding)) < 0.05:
            return int(round(winding))
    return None


def _arg_increment(f, za, zb, va, vb, depth) -> float:
    d = math.atan2((vb / va).imag, (vb / va).real)
    if abs(d) < math.pi / 4 or depth >= 30:
        return d
    zm = 0.5 * (za + zb)
    vm = complex(f(zm))
    return _arg_increment(f, za, zm, va, vm, depth + 1) + _arg_increment(f, zm, zb, vm, vb, depth + 1)


def _zero_error(f: Callable, x: float) -> Optional[Tuple[float, float]]:
    """(zero of f next to x, error ratio of x as that zero's location).

    One secant step in mp from x finds the zero to far better than the
    tolerance, since x is within about 1e-8 of it.  The tolerance is what a
    bisection on values certified to SCAN_TOL can promise: BRACKET plus
    SCAN_TOL / |f'|.
    """
    x0 = mp.mpf(x)
    h = mp.mpf("1e-9") * max(1, abs(x0))
    f0, f1 = f(x0), f(x0 + h)
    slope = abs(f1 - f0) / h
    if slope == 0:
        return None
    root = x0 - f0 * h / (f1 - f0)
    return float(root), float(abs(f0) / (BRACKET * slope + SCAN_TOL))


def _check_scan(job, rows: List[Dict[str, str]]) -> Verdict:
    fam = job.option("family")
    lo, hi = float(job.option("from")), float(job.option("to"))
    worst = 0.0
    records = sorted((float(row["location"]), row["multiplicity_class"]) for row in rows)
    with mp.workdps(DPS):
        f = _real_section(mp, fam, _alpha(mp, job.option("a")))
        roots = []
        for x, kind in records:
            if kind == "even-touch":
                if abs(f(x)) > TOUCH_TOL:
                    return Verdict(False, f"even touch at {x} where |f| = {float(abs(f(x))):.3g}")
                continue
            polished = _zero_error(f, x)
            if polished is None:
                return Verdict(False, f"no zero near reported location {x}")
            root, ratio = polished
            if roots and root - roots[-1] < BRACKET:
                return Verdict(False, f"zero at {root} reported twice")
            roots.append(root)
            worst = max(worst, ratio)
        if worst > 1.0:
            return Verdict(False, f"zero off by {worst:.3g} x tolerance", worst)
        # Completeness: between neighbouring reported zeros (and the ends of
        # the interval, split at the pole) the sign of f must flip exactly
        # where a simple zero is reported and nowhere else.
        pieces = [(lo, hi)]
        if fam in ("Z", "hurwitz") and lo < 1.0 < hi:
            pieces = [(lo, 1.0 - POLE_GAP), (1.0 + POLE_GAP, hi)]
        for p0, p1 in pieces:
            inside = [(x, kind) for x, kind in records if p0 <= x <= p1]
            probes = [p0] + [0.5 * (u[0] + v[0]) for u, v in zip(inside, inside[1:])] + [p1]
            signs = [f(x) > 0 for x in probes]
            for k, (x, kind) in enumerate(inside):
                if (signs[k] != signs[k + 1]) != (kind != "even-touch"):
                    what = "no sign change across" if kind != "even-touch" else "sign change across even touch"
                    return Verdict(False, f"zero set differs from the reference: {what} {x}", worst)
            if not inside and signs[0] != signs[1]:
                return Verdict(False, f"zero set differs from the reference: missed zero in [{p0}, {p1}]", worst)
    return Verdict(True, err_ratio=worst)


def _check_beta(job, rows: List[Dict[str, str]]) -> Verdict:
    fam = job.option("family")
    expected = 1 if job.option("a") is not None else int(job.option("a-points"))
    if len(rows) != expected:
        return Verdict(False, f"expected {expected} rows, got {len(rows)}")
    worst = 0.0
    with mp.workdps(DPS):
        for row in rows:
            a = float(row["a"])
            beta_p = float(row["beta"]) if fam == "P" else 1.0 - float(row["beta"])
            polished = _zero_error(_real_section(mp, "P", mp.mpf(a)), beta_p)
            if polished is None or (polished[0] < 1.0) != (a < 1.0 / 6.0) or polished[0] <= 0.0:
                return Verdict(False, f"beta_P({a}) = {beta_p} is not the extra zero")
            worst = max(worst, polished[1])
    if worst > 1.0:
        return Verdict(False, f"beta off by {worst:.3g} x tolerance", worst)
    return Verdict(True, err_ratio=worst)


_VERIFY_ROWS = {"special-values": 3, "functional-equations": 5, "relations": 6}


def _check_verify(job, rows: List[Dict[str, str]]) -> Verdict:
    suite = job.option("suite")
    expected = _VERIFY_ROWS.get(suite, 1 if job.option("family") else 5)
    if len(rows) != expected:
        return Verdict(False, f"expected {expected} rows, got {len(rows)}")
    for row in rows:
        if row["suite"] != suite or row["status"] != "PASS":
            return Verdict(False, f"check {row['check']} reported {row['status']}")
        if not float(row["residual"]) < float(row["tolerance"]):
            return Verdict(False, f"check {row['check']} residual {row['residual']} over tolerance")
    return Verdict(True)


def check_task(task: Tuple) -> Verdict:
    """``check(*task)`` for a worker process; a failure of the reference is reported, not raised."""
    try:
        return check(*task)
    except Exception as exc:  # mpmath can give up (NoConvergence); that is not the program's fault
        return Verdict(False, f"reference failed: {type(exc).__name__}: {exc}", checked=False)


def check(job, stdout: str, warned: bool) -> Verdict:
    """Verdict on the output of a job that exited with code 0."""
    try:
        rows = parse_rows(stdout)
    except (ValueError, KeyError) as exc:
        return Verdict(False, f"unparsable output: {exc}")
    if job.kind == "eval":
        return _check_eval(job, rows, warned)
    if job.kind == "count":
        return _check_count(job, rows)
    if job.kind == "scan":
        return _check_scan(job, rows)
    if job.kind == "beta":
        return _check_beta(job, rows)
    return _check_verify(job, rows)


def _worker() -> None:
    """Check a pickled list of tasks from stdin; write the verdicts' fields, pickled, to stdout.

    Run as ``reference.py --worker SRC``, where SRC holds the zetazeros
    package, whose character tables the L-function checks use.
    """
    import dataclasses
    import pickle
    import sys

    sys.path.insert(0, sys.argv[2])
    tasks = pickle.load(sys.stdin.buffer)
    verdicts = [dataclasses.astuple(check_task(task)) for task in tasks]
    sys.stdout.buffer.write(pickle.dumps(verdicts))
    sys.stdout.buffer.flush()


if __name__ == "__main__":
    _worker()
