"""Command-line front end: evaluation grids, zero scans, beta sweeps,
verification suites, and rectangle counting, with CSV or JSON output.

Each command has one column table, which serves CSV and JSON alike: the CSV
header is the table, and each JSON row has the header's names as its keys
and the values of the matching CSV row.

Exit status: 0 = success (and, for `verify`, every check passed);
1 = usage or domain error, or an internal error (reported on one line);
2 = verification failure or non-convergence.
Diagnostics go to stderr only; results go to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
import warnings
from typing import List, Optional, Sequence

import numpy as np

from .core import (
    MAX_GRID_POINTS,
    AccuracyWarning,
    Alpha,
    ConvergenceError,
    DomainError,
    EvalSettings,
    Family,
    UnsupportedError,
    ZetaError,
    parse_family,
)
from .dirichlet import (
    _closed_form_covers,
    characters_mod,
    closed_form_identity,
    l_function,
    linear_relation_residual,
)
from .families import eval_family, functional_equation_pair, special_values
from .zeros import beta_zero, count_zeros_rectangle, scan_real_zeros

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

# each command's columns in CSV order: the CSV header and the JSON keys of every row
_COLUMNS = {
    "eval": ("sigma", "t", "re", "im"),
    "scan": ("family", "a", "location", "multiplicity_class", "residual"),
    "beta": ("a", "family", "beta", "prediction", "deviation"),
    "verify": ("suite", "check", "residual", "tolerance", "status"),
    "count": ("family", "a", "re_lo", "im_lo", "re_hi", "im_hi", "count", "boundary_min_abs", "samples_used"),
}


def _settings_from(args: argparse.Namespace) -> EvalSettings:
    return EvalSettings() if args.tol is None else EvalSettings(target_abs_tol=args.tol)


def _parse_grid(text: str) -> List[float]:
    """"lo:hi:step" -> inclusive grid; a bare number -> [number]."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"grid syntax is lo:hi:step, got {text!r}")
        lo, hi, step = (float(p) for p in parts)
        if not (step > 0 and lo <= hi):
            raise DomainError(f"bad grid {text!r}")
        span = (hi - lo) / step  # the grid has round(span) + 1 points; inf fails the check too
        if not span <= MAX_GRID_POINTS - 1:
            raise DomainError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        return [lo + i * step for i in range(int(round(span)) + 1)]
    return [float(text)]


def _emit(command: str, rows: List[tuple], fmt: str, out: io.TextIOBase) -> None:
    cols = _COLUMNS[command]
    if fmt == "json":
        payload = {"command": command, "rows": [dict(zip(cols, row)) for row in rows]}
        # dumps runs the C encoder; dump streams through the pure-Python one
        out.write(json.dumps(payload, sort_keys=True))
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows(rows)


def _shift(args: argparse.Namespace, fam: Family) -> Alpha:
    """--a, which every family but riemann needs; riemann takes a = 1 without it."""
    if args.a is not None:
        return Alpha.parse(args.a)
    if fam is Family.RIEMANN:
        return Alpha(1.0)
    raise DomainError("--a is required for this family")


def _cmd_eval(args: argparse.Namespace, out: io.TextIOBase) -> int:
    cfg = _settings_from(args)
    fam = parse_family(args.family)
    alpha = None if fam is Family.L_CHI else _shift(args, fam)  # L takes a character instead
    sigmas = _parse_grid(args.sigma)
    ts = _parse_grid(args.t)
    chi = None
    if fam is Family.L_CHI:
        if args.char_modulus is None:
            raise DomainError("--char-modulus is required for family L")
        chars = characters_mod(args.char_modulus)
        if not 0 <= args.char_index < len(chars):
            raise DomainError(f"char index out of range (phi(q) = {len(chars)})")
        chi = chars[args.char_index]
    if len(sigmas) * len(ts) > MAX_GRID_POINTS:
        raise DomainError(f"the sigma x t grid has more than {MAX_GRID_POINTS} points")
    points = [complex(sigma, t) for sigma in sigmas for t in ts]
    grid = np.array(points)  # the whole grid in one call
    values = l_function(chi, grid, cfg) if chi is not None else eval_family(fam, grid, alpha, cfg)
    finite = np.isfinite(values)
    if not finite.all():  # refused, as count refuses it, rather than printed as inf or nan
        raise DomainError(f"{fam.value}(s, {alpha or 'chi'}) is not finite at s = {grid[~finite][0]}")
    rows = [(s.real, s.imag, v.real, v.imag) for s, v in zip(points, values.tolist())]
    _emit("eval", rows, args.format, out)
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace, out: io.TextIOBase) -> int:
    fam = parse_family(args.family)
    alpha = _shift(args, fam)
    records = scan_real_zeros(fam, alpha, args.lo, args.hi, args.step)
    rows = [(fam.name, str(alpha), rec.location, rec.multiplicity_class, rec.residual) for rec in records]
    _emit("scan", rows, args.format, out)
    return EXIT_OK


def _cmd_beta(args: argparse.Namespace, out: io.TextIOBase) -> int:
    fam = parse_family(args.family)
    if args.a is not None:
        alphas = [Alpha.parse(args.a)]
    else:
        if args.a_points > MAX_GRID_POINTS:
            raise DomainError(f"--a-points {args.a_points} is more than {MAX_GRID_POINTS} points")
        if args.a_points < 1:
            raise DomainError(f"--a-points {args.a_points} is less than one point")
        grid = np.linspace(args.a_from, args.a_to, args.a_points)
        alphas = [Alpha(float(x)) for x in grid]
    points = [beta_zero(fam, alpha) for alpha in alphas]
    rows = [(pt.a, pt.family.name, pt.beta, pt.asymptotic_prediction, pt.deviation) for pt in points]
    _emit("beta", rows, args.format, out)
    return EXIT_OK


def _cmd_count(args: argparse.Namespace, out: io.TextIOBase) -> int:
    fam = parse_family(args.family)
    alpha = _shift(args, fam)
    result = count_zeros_rectangle(
        fam,
        alpha,
        (complex(args.re_lo, args.im_lo), complex(args.re_hi, args.im_hi)),
        initial_samples=args.samples,
    )
    lo, hi = result.corners
    rows = [
        (fam.name, str(alpha), lo.real, lo.imag, hi.real, hi.imag, result.count, result.boundary_min_abs,
         result.samples_used)
    ]
    _emit("count", rows, args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites

def _draw_points(rng: np.random.Generator, sigma, t) -> np.ndarray:
    """20 points drawn uniformly from the sigma x t box, less those within 0.05 of s = 1."""
    points = [complex(rng.uniform(*sigma), rng.uniform(*t)) for _ in range(20)]
    return np.array([s for s in points if abs(s - 1.0) >= 0.05], dtype=complex)


def _verify_functional_equations(alpha: Alpha, fam: Optional[Family], cfg: EvalSettings, rng: np.random.Generator):
    # a family with no functional equation pair (hurwitz, periodic, riemann, L) is skipped, as in closed-forms
    tol = 1e-8
    for f in [fam] if fam else [g for g in Family if g.is_composed]:
        if not f.is_composed:
            continue
        lhs, rhs = functional_equation_pair(f, _draw_points(rng, (0.05, 10.0), (-30.0, 30.0)), alpha, cfg)
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
        yield f"fe-{f.name}-a={alpha}", float(np.max(np.abs(lhs - rhs) / scale)), tol


def _verify_closed_forms(alpha: Alpha, fam: Optional[Family], cfg: EvalSettings, rng: np.random.Generator):
    # a family with no closed form at alpha is skipped; its table says so before any evaluation
    tol = 1e-8
    for f in [fam] if fam else [g for g in Family if g.is_composed]:
        if not _closed_form_covers(f, alpha):
            continue
        direct, closed = closed_form_identity(f, alpha, _draw_points(rng, (0.1, 6.0), (-20.0, 20.0)), cfg)
        worst = np.max(np.abs(direct - closed) / np.maximum(1.0, np.abs(closed)))
        yield f"closed-form-{f.name}-a={alpha}", float(worst), tol


def _verify_relations(cfg: EvalSettings, rng: np.random.Generator):
    tol = 1e-8
    for q in (3, 4, 5, 6, 8, 12):
        points = np.array([complex(rng.uniform(1.1, 4.0), rng.uniform(-10.0, 10.0)) for _ in range(4)])
        worst = 0.0
        for f in (Family.Z, Family.P, Family.Y, Family.O):
            rs = [r for r in range(1, q) if math.gcd(r, q) == 1 and (2 * r < q or not f.odd_symmetric)]
            worst = max(worst, float(linear_relation_residual(f, rs, q, points, cfg).max()))
        yield f"relations-q={q}", worst, tol


def _verify_special_values(alpha: Alpha, cfg: EvalSettings):
    tol = 1e-10
    sv = special_values(alpha)
    z0 = eval_family(Family.Z, 0.0, alpha, cfg)
    p0 = eval_family(Family.P, 0.0, alpha, cfg)
    p1 = eval_family(Family.P, 1.0, alpha, cfg)
    yield f"Z(0,{alpha})=0", abs(z0 - sv.z_at_0), tol
    yield f"P(0,{alpha})=-1", abs(p0 - sv.p_at_0), tol
    yield f"P(1,{alpha})=-2log(2 sin pi a)", abs(p1 - sv.p_at_1), tol


def _cmd_verify(args: argparse.Namespace, out: io.TextIOBase) -> int:
    cfg = _settings_from(args)
    fam = parse_family(args.family) if args.family else None
    alpha = Alpha.parse(args.a) if args.a else Alpha.parse("0.3")

    def rng() -> np.random.Generator:  # one per suite, so its points do not depend on the suites before it
        return np.random.default_rng(20240801)

    suites = {
        "functional-equations": lambda: _verify_functional_equations(alpha, fam, cfg, rng()),
        "closed-forms": lambda: _verify_closed_forms(alpha, fam, cfg, rng()),
        "relations": lambda: _verify_relations(cfg, rng()),
        "special-values": lambda: _verify_special_values(alpha, cfg),
    }
    if args.suite == "all":
        selected = list(suites)
    elif args.suite in suites:
        selected = [args.suite]
    else:
        raise DomainError(f"unknown suite {args.suite!r}; choices: {', '.join(suites)}, all")
    rows = [
        (name, check, residual, tol, "PASS" if residual < tol else "FAIL")
        for name in selected
        for check, residual, tol in suites[name]()
    ]
    if not rows and args.suite in ("closed-forms", "functional-equations"):
        what = "closed form" if args.suite == "closed-forms" else "functional equation pair"
        raise UnsupportedError(f"no {what} for {fam.name if fam else 'Z, P, Y, O or X'} at a = {alpha}")
    _emit("verify", rows, args.format, out)
    return EXIT_OK if all(row[-1] == "PASS" for row in rows) else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # the raw formatter keeps the docstring's paragraphs and its exit status list as written
    parser = _Parser(prog="zetazeros", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, need_family: bool = True, tol: bool = False):
        if need_family:
            p.add_argument("--family", required=True, help="Z P Y O X hurwitz periodic riemann L")
        p.add_argument("--a", help='shift parameter; "r/q" is exact, decimals are not')
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if tol:  # the zero layer (scan, beta, count) certifies its own fixed tolerance
            p.add_argument("--tol", type=float, default=None, help="evaluation tolerance")

    p_eval = sub.add_parser("eval", help="evaluate on a sigma/t grid")
    common(p_eval, tol=True)
    p_eval.add_argument("--sigma", required=True, help="value or lo:hi:step")
    p_eval.add_argument("--t", default="0", help="value or lo:hi:step")
    p_eval.add_argument("--char-modulus", type=int, default=None)
    p_eval.add_argument("--char-index", type=int, default=0)
    p_eval.set_defaults(func=_cmd_eval)

    p_scan = sub.add_parser("scan", help="scan for real zeros")
    common(p_scan)
    p_scan.add_argument("--from", dest="lo", type=float, required=True)
    p_scan.add_argument("--to", dest="hi", type=float, required=True)
    p_scan.add_argument("--step", type=float, default=0.05)
    p_scan.set_defaults(func=_cmd_scan)

    p_beta = sub.add_parser("beta", help="extra real zero sweep for Z or P")
    common(p_beta)
    p_beta.add_argument("--a-from", type=float, default=0.01)
    p_beta.add_argument("--a-to", type=float, default=0.16)
    p_beta.add_argument("--a-points", type=int, default=16)
    p_beta.set_defaults(func=_cmd_beta)

    p_verify = sub.add_parser("verify", help="run identity/relation suites")
    common(p_verify, need_family=False, tol=True)
    p_verify.add_argument("--family", default=None)
    p_verify.add_argument("--suite", default="all")
    p_verify.set_defaults(func=_cmd_verify)

    p_count = sub.add_parser("count", help="argument-principle zero count in a rectangle")
    common(p_count)
    p_count.add_argument("--re-from", dest="re_lo", type=float, required=True)
    p_count.add_argument("--re-to", dest="re_hi", type=float, required=True)
    p_count.add_argument("--im-from", dest="im_lo", type=float, required=True)
    p_count.add_argument("--im-to", dest="im_hi", type=float, required=True)
    p_count.add_argument(
        "--samples", type=int, default=64,
        help="boundary segments of the first pass (default 64, at least 64); each later pass "
        "doubles them, and the count is returned once two passes in a row agree",
    )
    p_count.set_defaults(func=_cmd_count)

    return parser


_PARSER = build_parser()  # built once, at import: every call of run parses with it


def run(argv: Sequence[str], out: io.TextIOBase = sys.stdout, err: io.TextIOBase = sys.stderr) -> int:
    try:
        # argparse prints usage errors to sys.stderr and --help to sys.stdout
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _PARSER.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():  # the caller's filters are back in place after the command
            warnings.simplefilter("once", AccuracyWarning)
            return args.func(args, out)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_VERIFY
    except (ZetaError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except Exception as exc:  # a defect, reported on one line rather than as a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=err)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
