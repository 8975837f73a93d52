"""Front-end behavior: parsing, output formats, schema validity, exit codes,
and byte-stability of repeated runs."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from importlib import resources

import jsonschema
import numpy as np
import pytest

import zetazeros
from zetazeros import DomainError
from zetazeros.cli import _COLUMNS, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, run
from zetazeros.zeros import EVEN_TOUCH, SIMPLE


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def load_schema():
    with resources.files("zetazeros").joinpath("schema.json").open("r") as fh:
        return json.load(fh)


def test_scan_finds_a_zero_beside_a_grid_zero():
    # the grid point -2.0 is a zero, and beta_Z = -2.0228893... lies in the interval to its left
    code, out, err = run_cli("scan", "--family", "Z", "--a", "0.2311296502521382", "--from", "-3.0", "--to", "-1.5")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[3] for row in rows] == [SIMPLE, SIMPLE]
    assert abs(float(rows[0][2]) + 2.0228893) < 1e-7
    assert float(rows[1][2]) == -2.0


def test_scan_emits_five_zero_rows():
    code, out, err = run_cli("scan", "--family", "Y", "--a", "0.3", "--from", "-10", "--to", "2")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "family,a,location,multiplicity_class,residual"
    locs = [round(float(line.split(",")[2])) for line in lines[1:]]
    assert locs == [-9, -7, -5, -3, -1]
    assert all(line.split(",")[3] == "simple-sign-change" for line in lines[1:])


# the CSV these scans printed when the whole grid was evaluated at 1e-10: one
# scan per family, two across the pole, and one with a grid zero (-2) beside
# a zero; a scan that reads its grid at a looser target must keep every byte.
# The P, O, X and periodic rows were frozen again when the functional-equation
# factor at real points moved to math.lgamma: residuals moved in their last
# digits and P's zero near 0.3029 by 2 ulp, each location within 1e-10 of mpmath's
FROZEN_SCANS = [
    (("Z", "0.2311296502521382", "-3.0", "-1.5"), (
        "family,a,location,multiplicity_class,residual\n"
        "Z,0.2311296502521382,-2.022889316794351,simple-sign-change,1.4210854715202004e-14\n"
        "Z,0.2311296502521382,-2.0,simple-sign-change,1.6653345369377348e-15\n"
    )),
    (("Z", "1/6", "-2.5", "1.8"), (
        "family,a,location,multiplicity_class,residual\n"
        "Z,1/6,-1.9999999999875946,simple-sign-change,2.531308496145357e-13\n"
        "Z,1/6,2.4351841865880242e-08,even-touch,5.759856438530017e-15\n"
    )),
    (("hurwitz", "7/11", "-6", "2.5"), (
        "family,a,location,multiplicity_class,residual\n"
        "HURWITZ,7/11,-4.536230340004577,simple-sign-change,2.1316282072803006e-14\n"
        "HURWITZ,7/11,-2.5120609189183725,simple-sign-change,1.7763568394002505e-14\n"
        "HURWITZ,7/11,-0.4288654352086044,simple-sign-change,1.864198032053288e-12\n"
    )),
    (("P", "0.0871", "-5", "1"), (
        "family,a,location,multiplicity_class,residual\n"
        "P,0.0871,-4.0,simple-sign-change,2.993691287844656e-13\n"
        "P,0.0871,-2.0,simple-sign-change,4.490399166443697e-15\n"
        "P,0.0871,0.3029252845999048,simple-sign-change,1.2744472144277097e-11\n"
    )),
    (("Y", "3/10", "-8", "2"), (
        "family,a,location,multiplicity_class,residual\n"
        "Y,3/10,-7.0,simple-sign-change,5.699607452669397e-14\n"
        "Y,3/10,-5.0,simple-sign-change,7.038813976123492e-14\n"
        "Y,3/10,-3.0,simple-sign-change,1.6653345369377348e-16\n"
        "Y,3/10,-1.0,simple-sign-change,2.220446049250313e-16\n"
    )),
    (("O", "0.35", "-7", "1"), (
        "family,a,location,multiplicity_class,residual\n"
        "O,0.35,-7.0,simple-sign-change,8.963450091093711e-15\n"
        "O,0.35,-5.0,simple-sign-change,7.607406153971198e-16\n"
        "O,0.35,-3.0,simple-sign-change,1.1544854423938672e-16\n"
        "O,0.35,-1.0,simple-sign-change,3.752883037056544e-17\n"
    )),
    (("X", "0.2071", "-7", "1"), (
        "family,a,location,multiplicity_class,residual\n"
        "X,0.2071,-7.0,simple-sign-change,5.628344040296107e-13\n"
        "X,0.2071,-5.0,simple-sign-change,3.3173260969877945e-14\n"
        "X,0.2071,-3.0,simple-sign-change,1.5323793257528636e-15\n"
        "X,0.2071,-1.0,simple-sign-change,1.0261637990978206e-15\n"
    )),
    (("periodic", "1/2", "-6.01", "2"), (
        "family,a,location,multiplicity_class,residual\n"
        "PERIODIC,1/2,-6.0000000000125,simple-sign-change,9.366089822791946e-12\n"
        "PERIODIC,1/2,-4.000000000011143,simple-sign-change,2.7578156099895593e-12\n"
        "PERIODIC,1/2,-1.9999999999922846,simple-sign-change,1.6445823278719293e-12\n"
    )),
]


@pytest.mark.parametrize("argv, want", FROZEN_SCANS, ids=[" ".join(argv) for argv, _ in FROZEN_SCANS])
def test_scan_prints_its_frozen_bytes(argv, want):
    fam, a, lo, hi = argv
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the pole warning of the scans across s = 1
        code, out, err = run_cli("scan", "--family", fam, "--a", a, "--from", lo, "--to", hi)
    assert (code, out, err) == (EXIT_OK, "".join(want), "")


@pytest.mark.parametrize("family", ["Y", "O", "X"])
@pytest.mark.parametrize("a", ["0.5", "1/2"])
def test_odd_families_at_one_half_are_a_domain_error(family, a):
    # Y, O and X vanish identically at a = 1/2: no zeros to scan, no boundary to count on
    scan = ("scan", "--family", family, "--a", a, "--from", "-3", "--to", "0")
    count = ("count", "--family", family, "--a", a, "--re-from", "-1", "--re-to", "1", "--im-from", "1", "--im-to", "2")
    for argv in (scan, count):
        code, out, err = run_cli(*argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: {family}(s, 1/2) = 0 for every s, since {family}(s, a) = -{family}(s, 1 - a); " \
            "it has no zeros to scan or count\n"


def test_eval_point_value():
    code, out, _ = run_cli("eval", "--family", "P", "--a", "0.2", "--sigma", "0", "--t", "0")
    assert code == EXIT_OK
    header, row = out.strip().splitlines()
    assert header == "sigma,t,re,im"
    sigma, t, re, im = (float(x) for x in row.split(","))
    assert (sigma, t) == (0.0, 0.0)
    assert re == pytest.approx(-1.0, abs=1e-10)
    assert im == pytest.approx(0.0, abs=1e-12)


def test_eval_grid_and_json_schema():
    schema = load_schema()
    code, out, _ = run_cli(
        "eval", "--family", "Z", "--a", "1/3", "--sigma", "2:3:0.5", "--t", "0:1:1", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["command"] == "eval"
    assert len(payload["rows"]) == 6


def test_eval_l_function_family():
    code, out, _ = run_cli(
        "eval", "--family", "L", "--char-modulus", "4", "--char-index", "1", "--sigma", "2"
    )
    assert code == EXIT_OK
    row = out.strip().splitlines()[1]
    re = float(row.split(",")[2])
    assert re == pytest.approx(0.915965594177219, abs=1e-9)  # Catalan


def test_verify_closed_forms_pass():
    code, out, _ = run_cli("verify", "--suite", "closed-forms", "--a", "1/6", "--family", "Z")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "suite,check,residual,tolerance,status"
    assert all(line.endswith("PASS") for line in lines[1:])
    assert all(float(line.split(",")[2]) < 1e-8 for line in lines[1:])


@pytest.mark.parametrize("argv", [("--a", "0.3"), ("--a", "2/7"), ("--a", "1/6", "--family", "hurwitz")],
                         ids=("float-a", "uncovered-a", "uncovered-family"))
def test_verify_closed_forms_without_a_closed_form_is_an_error(argv):
    code, out, err = run_cli("verify", "--suite", "closed-forms", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_all_skips_closed_forms_without_a_closed_form():
    code, out, _ = run_cli("verify", "--a", "2/7")
    assert code == EXIT_OK
    suites = {line.split(",")[0] for line in out.strip().splitlines()[1:]}
    assert suites == {"functional-equations", "relations", "special-values"}


def test_verify_closed_forms_lets_kernel_errors_through(monkeypatch):
    import zetazeros.dirichlet as dirichlet

    def failing(*args, **kwargs):
        raise DomainError("kernel failure")

    monkeypatch.setattr(dirichlet, "eval_family", failing)
    code, out, err = run_cli("verify", "--suite", "closed-forms", "--a", "1/3", "--family", "Z")
    assert (code, out, err) == (EXIT_USAGE, "", "error: kernel failure\n")


@pytest.mark.parametrize("argv", [
    ("scan", "--family", "Y", "--a", "0.3", "--from", "-2", "--to", "0"),
    ("beta", "--family", "P", "--a", "0.1"),
    ("count", "--family", "Z", "--a", "1/3", "--re-from", "2", "--re-to", "3", "--im-from", "1", "--im-to", "2",
     "--samples", "16"),
], ids=("scan", "beta", "count"))
def test_zero_layer_commands_take_no_tol(argv):
    # they certify their own fixed tolerance, so a --tol would be silently ignored
    code, out, err = run_cli(*argv, "--tol", "1e-3")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_errors_and_help_go_to_the_given_streams(capsys):
    code, out, err = run_cli("eval")  # --family and --sigma missing
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, err = run_cli("count", "--help")
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("usage: zetazeros count")
    assert capsys.readouterr() == ("", "")


def test_help_keeps_the_exit_status_list_apart_from_the_prose():
    code, out, err = run_cli("--help")
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert any(line.startswith("Exit status:") for line in lines)
    assert "2 = verification failure or non-convergence." in lines


def test_verify_suite_draws_the_same_points_alone_as_after_other_suites():
    rows = {}
    for suite in ("all", "relations"):
        code, out, _ = run_cli("verify", "--suite", suite, "--a", "0.3")
        assert code == EXIT_OK
        rows[suite] = [line for line in out.splitlines() if line.startswith("relations,")]
    assert len(rows["relations"]) == 6
    assert rows["all"] == rows["relations"]


def test_verify_functional_equations_honours_family():
    code, out, _ = run_cli("verify", "--suite", "functional-equations", "--family", "Z", "--a", "0.3")
    assert code == EXIT_OK
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["fe-Z-a=0.3"]
    code, out, _ = run_cli("verify", "--family", "Y", "--a", "1/3")
    assert code == EXIT_OK
    checks = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert [c for c in checks if c.startswith(("fe-", "closed-form-"))] == ["fe-Y-a=1/3", "closed-form-Y-a=1/3"]
    # a family with no functional equation pair: an error alone, skipped under --suite all
    code, out, err = run_cli("verify", "--suite", "functional-equations", "--family", "hurwitz", "--a", "0.3")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run_cli("verify", "--family", "hurwitz", "--a", "0.3")
    assert code == EXIT_OK
    assert {line.split(",")[0] for line in out.splitlines()[1:]} == {"relations", "special-values"}


COMPOSED = ("Z", "P", "Y", "O", "X")


def _record(monkeypatch, module, name, calls, key):
    """Replace module.name by a wrapper that appends key(*args) to calls."""
    original = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(key(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)


def _drawn(rng, sigma, t):
    # the draw and skip rule of one family's 20 points in the fe and closed-forms suites
    points = []
    for _ in range(20):
        s = complex(rng.uniform(*sigma), rng.uniform(*t))
        if abs(s - 1.0) >= 0.05:
            points.append(s)
    return points


def test_verify_suites_ask_for_the_points_of_the_per_point_loop(monkeypatch):
    import zetazeros.cli as cli

    def points(s):
        return np.ravel(s).tolist()

    calls = []
    _record(monkeypatch, cli, "functional_equation_pair", calls, lambda fam, s, a, cfg: (fam.name, points(s)))
    _record(monkeypatch, cli, "closed_form_identity", calls, lambda fam, a, s, cfg: (fam.name, points(s)))
    _record(monkeypatch, cli, "linear_relation_residual", calls,
            lambda fam, r, q, s, cfg: [(fam.name, n, q, x) for n in np.ravel(r).tolist() for x in points(s)])
    for suite, a in (("functional-equations", "0.3"), ("closed-forms", "1/3"), ("relations", "0.3")):
        assert run_cli("verify", "--suite", suite, "--a", a)[0] == EXIT_OK

    rng = np.random.default_rng(20240801)
    assert calls[:5] == [(f, _drawn(rng, (0.05, 10.0), (-30.0, 30.0))) for f in COMPOSED]
    rng = np.random.default_rng(20240801)
    assert calls[5:10] == [(f, _drawn(rng, (0.1, 6.0), (-20.0, 20.0))) for f in COMPOSED]
    rng = np.random.default_rng(20240801)
    want = []
    for q in (3, 4, 5, 6, 8, 12):
        for _ in range(4):
            s = complex(rng.uniform(1.1, 4.0), rng.uniform(-10.0, 10.0))
            for r in range(1, q):
                if math.gcd(r, q) == 1:
                    want += [(f, r, q, s) for f in ("Z", "P", "Y", "O")[:4 if 2 * r < q else 2]]
    assert Counter(x for call in calls[10:] for x in call) == Counter(want)  # the order of the calls may differ


def test_verify_suites_make_one_kernel_call_per_family_and_side(monkeypatch):
    import zetazeros.dirichlet as dirichlet
    import zetazeros.families as families
    import zetazeros.special as special

    evals = []
    _record(monkeypatch, families, "eval_family", evals, lambda fam, *args: fam)
    assert run_cli("verify", "--suite", "functional-equations", "--a", "0.3")[0] == EXIT_OK
    assert len(evals) <= 10  # 5 families x 2 sides

    for fam in COMPOSED:
        kernels = []
        for name in ("eval_family", "riemann_zeta", "l_function"):
            _record(monkeypatch, dirichlet, name, kernels, lambda *args, name=name: name)
        assert run_cli("verify", "--suite", "closed-forms", "--a", "1/3", "--family", fam)[0] == EXIT_OK
        assert 1 <= len(kernels) <= 2, (fam, kernels)
        monkeypatch.undo()

    # one call per (q, family) with every r: each L(s, chi) and each family(s, n/q) of a pair
    # {n, q - n} once per call; the per-point loop made 684 sums, the per-r loop 171
    sums, ls, evals = [], [], []
    for module in (special, families, dirichlet):
        _record(monkeypatch, module, "_zeta_sum", sums, lambda *args, **kwargs: None)
    _record(monkeypatch, dirichlet, "l_function", ls, lambda *args: None)
    _record(monkeypatch, dirichlet, "eval_family", evals, lambda *args: None)
    assert run_cli("verify", "--suite", "relations")[0] == EXIT_OK
    assert len(sums) <= 99
    assert len(ls) <= 36  # 18 characters, each for two families of its parity
    assert len(evals) <= 36  # 9 pairs {n, q - n} over the 6 moduli, for 4 families


def test_verify_all_suites_json():
    schema = load_schema()
    code, out, _ = run_cli("verify", "--a", "1/3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert {row["status"] for row in payload["rows"]} == {"PASS"}


def test_beta_sweep_csv():
    code, out, _ = run_cli(
        "beta", "--family", "P", "--a-from", "0.02", "--a-to", "0.14", "--a-points", "4"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "a,family,beta,prediction,deviation"
    betas = [float(line.split(",")[2]) for line in lines[1:]]
    assert betas == sorted(betas)  # increasing in a


def test_beta_exact_rational_vs_decimal():
    # "1/6" follows the exact path (beta_P = 1); 0.166667 is generic numeric
    code, out, _ = run_cli("beta", "--family", "P", "--a", "1/6")
    assert code == EXIT_OK
    assert float(out.strip().splitlines()[1].split(",")[2]) == 1.0
    code, out, _ = run_cli("beta", "--family", "P", "--a", "0.166667")
    assert code == EXIT_OK
    val = float(out.strip().splitlines()[1].split(",")[2])
    assert val != 1.0
    assert val == pytest.approx(1.0, abs=1e-3)


def test_beta_json_schema():
    schema = load_schema()
    code, out, _ = run_cli("beta", "--family", "Z", "--a-from", "0.02", "--a-to", "0.2", "--a-points", "3",
                           "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["command"] == "beta" and len(payload["rows"]) == 3


def test_schema_rows_are_the_cli_columns():
    # schema.json is the second copy of _COLUMNS: its commands, and each command's row
    # object with exactly that command's columns, in order; every column always holds a
    # value, so none admits null
    schema = load_schema()["properties"]
    assert schema["command"]["enum"] == list(_COLUMNS)
    rows = schema["rows"]["items"]["oneOf"]
    assert [tuple(row["required"]) for row in rows] == list(_COLUMNS.values())
    for row in rows:
        assert list(row["properties"]) == row["required"]
        assert row["additionalProperties"] is False
        for column in row["properties"].values():
            kinds = column.get("type", [])
            assert "null" not in (kinds if isinstance(kinds, list) else [kinds])
            assert None not in column.get("enum", [])


def test_count_command():
    code, out, _ = run_cli(
        "count", "--family", "Z", "--a", "1/6",
        "--re-from", "-1", "--re-to", "2", "--im-from", "1", "--im-to", "30",
    )
    assert code == EXIT_OK
    row = out.strip().splitlines()[1]
    assert int(row.split(",")[6]) == 11


def test_count_takes_a_equal_to_one_for_riemann():
    # the zeros of zeta at 1/2 + 14.13i, 21.02i and 25.01i
    code, out, err = run_cli("count", "--family", "riemann", "--re-from", "0.2", "--re-to", "0.8",
                             "--im-from", "10", "--im-to", "30")
    assert (code, err) == (EXIT_OK, "")
    (row,) = list(csv.reader(io.StringIO(out)))[1:]
    assert row[:7] == ["RIEMANN", "1.0", "0.2", "10.0", "0.8", "30.0", "3"]


def test_scan_takes_a_equal_to_one_for_riemann():
    code, out, err = run_cli("scan", "--family", "riemann", "--from", "-5", "--to", "-1")
    assert (code, err) == (EXIT_OK, "")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [(fam, a, round(float(loc), 9), kind) for fam, a, loc, kind, _ in rows] == [
        ("RIEMANN", "1.0", -4.0, SIMPLE), ("RIEMANN", "1.0", -2.0, SIMPLE)]


@pytest.mark.parametrize("argv", [
    ("count", "--family", "Z", "--re-from", "0.2", "--re-to", "0.8", "--im-from", "10", "--im-to", "30"),
    ("scan", "--family", "Z", "--from", "-5", "--to", "-1"),
], ids=("count", "scan"))
def test_zero_layer_commands_need_a_for_the_composed_families(argv):
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (EXIT_USAGE, "", "error: --a is required for this family\n")


def test_count_json_schema():
    schema = load_schema()
    code, out, _ = run_cli(
        "count", "--family", "Z", "--a", "0.3",
        "--re-from", "2", "--re-to", "3", "--im-from", "1", "--im-to", "10",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["rows"][0]["count"] == 0


def test_scan_json_schema():
    schema = load_schema()
    code, out, _ = run_cli(
        "scan", "--family", "Z", "--a", "1/6", "--from", "-0.9", "--to", "0.9", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["rows"][0]["multiplicity_class"] == "even-touch"


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "Z", "--a", "1/3", "--sigma", "2:3:0.5", "--t", "0:1:1"),
    ("eval", "--family", "L", "--char-modulus", "4", "--char-index", "1", "--sigma", "2"),
    ("scan", "--family", "Y", "--a", "0.3", "--from", "-6", "--to", "2"),
    ("beta", "--family", "Z", "--a-points", "2"),
    ("verify", "--suite", "closed-forms", "--a", "1/6", "--family", "Z"),
    ("count", "--family", "P", "--a", "2/5", "--re-from", "0.55", "--re-to", "0.95", "--im-from", "1", "--im-to", "20"),
], ids=("eval-Z", "eval-L", "scan", "beta", "verify", "count"))
def test_csv_and_json_carry_the_same_rows(argv):
    code, out_csv, _ = run_cli(*argv)
    assert code == EXIT_OK
    code, out_json, _ = run_cli(*argv, "--format", "json")
    assert code == EXIT_OK
    header, *rows = csv.reader(io.StringIO(out_csv))
    payload = json.loads(out_json)
    cols = _COLUMNS[argv[0]]
    assert payload["command"] == argv[0]
    assert tuple(header) == cols
    assert rows and len(rows) == len(payload["rows"])
    for row, record in zip(rows, payload["rows"]):
        assert set(record) == set(cols)
        assert row == [str(record[c]) for c in cols]


def test_schema_classes_are_the_ones_scan_emits():
    rows = load_schema()["properties"]["rows"]["items"]["oneOf"]
    scan = next(row for row in rows if "multiplicity_class" in row["properties"])
    assert set(scan["properties"]["multiplicity_class"]["enum"]) == {SIMPLE, EVEN_TOUCH}


def test_output_byte_stable():
    args = ("scan", "--family", "Y", "--a", "0.3", "--from", "-6", "--to", "2")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2
    args = ("verify", "--suite", "functional-equations", "--a", "0.3", "--format", "json")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_module_entry_point_prints_what_run_prints():
    args = ["eval", "--family", "Z", "--a", "1/3", "--sigma=-2:2:1", "--t", "3"]
    package_root = os.path.dirname(os.path.dirname(zetazeros.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "zetazeros.cli", *args], capture_output=True, text=True, env=env, timeout=120
    )
    code, out, _ = run_cli(*args)
    assert code == EXIT_OK and out.count("\n") == 6
    assert (proc.returncode, proc.stdout) == (code, out)


def test_usage_errors_exit_one():
    code, _, err = run_cli("scan", "--family", "Y", "--a", "0.3", "--from", "2", "--to", "-2")
    assert code == EXIT_USAGE
    assert "error" in err
    code, _, _ = run_cli("scan", "--family", "nosuch", "--a", "0.3", "--from", "0", "--to", "1")
    assert code == EXIT_USAGE
    code, _, _ = run_cli("frobnicate")
    assert code == EXIT_USAGE
    # pole inside an eval grid point is a domain error
    code, _, err = run_cli("eval", "--family", "Z", "--a", "0.3", "--sigma", "1", "--t", "0")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "P", "--a", "1e-300", "--sigma", "2"),
    ("count", "--family", "Z", "--a", "0.3", "--re-from", "nan", "--re-to", "1", "--im-from", "1", "--im-to", "2"),
    ("count", "--family", "Z", "--a", "0.3", "--re-from", "0", "--re-to", "inf", "--im-from", "1", "--im-to", "2"),
    ("eval", "--family", "Z", "--a", "0.3", "--sigma", "0.5", "--t", "1e8"),
    ("eval", "--family", "Z", "--a", "0.3", "--sigma", "0.5", "--t", "1e308"),
    ("beta", "--family", "Z", "--a-points", "-1"),
    ("beta", "--family", "Z", "--a-points", "0"),
    ("eval", "--family", "Z", "--a", "0.3", "--sigma", "1:2"),
    ("eval", "--family", "Z", "--a", "0.3", "--sigma", "2:1:0.5"),
    ("eval", "--family", "L", "--sigma", "2"),
    ("eval", "--family", "L", "--char-modulus", "5", "--char-index", "4", "--sigma", "2"),
    ("eval", "--family", "Z", "--sigma", "2"),
    ("verify", "--suite", "nope"),
], ids=("series-terms", "count-nan", "count-inf", "em-terms-1e8", "em-terms-1e308", "beta-a-points-1", "beta-a-points0",
        "grid-two-parts", "grid-reversed", "l-no-modulus", "l-index-out-of-range", "z-no-a", "unknown-suite"))
def test_refused_inputs_are_one_error_line(argv):
    # a periodic series of ~9e16 terms, rectangles with a non-finite corner,
    # Euler-Maclaurin passes of ~4e8 and ~8e308 terms, empty beta grids,
    # malformed grids, missing or out-of-range eval inputs and an unknown suite
    code, out, err = run_cli(*argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_count_stops_at_a_value_that_is_not_finite():
    # Z(s, 0.3) is nan, with an AccuracyWarning, from Re s = 600 on this tile; a
    # count that went on would halve its nan segments toward the depth cap
    with warnings.catch_warnings(record=True):
        code, out, err = run_cli(
            "count", "--family", "Z", "--a", "0.3", "--re-from", "0", "--re-to", "800", "--im-from", "1", "--im-to", "2",
        )
    assert (code, out) == (EXIT_USAGE, "")
    assert err.splitlines()[-1].startswith("error: ") and "not finite" in err


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "hurwitz", "--a", "1e-300", "--sigma", "2"),
    ("eval", "--family", "Y", "--a", "0.001", "--sigma", "300", "--t", "0:1:1", "--format", "json"),
], ids=("hurwitz", "Y-json"))
def test_eval_stops_at_a_value_that_is_not_finite(argv):
    # hurwitz(2, 1e-300) and Y(300, 0.001) come out inf and nan, with an AccuracyWarning;
    # eval refuses them as count does, instead of printing them
    with warnings.catch_warnings(record=True):
        code, out, err = run_cli(*argv)
    assert (code, out) == (EXIT_USAGE, "")
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert errors == [err.splitlines()[-1]] and "not finite at s = (" in errors[0]


@pytest.mark.parametrize("sigma, t, point", [("2", "nan", "(2+nanj)"), ("1:3:1", "1e309", "(1+infj)")], ids=("nan", "inf"))
def test_eval_names_the_point_that_is_not_finite(sigma, t, point):
    # the error names the first point that is not finite, not the repr of the whole grid
    code, out, err = run_cli("eval", "--family", "Z", "--a", "0.3", f"--sigma={sigma}", f"--t={t}")
    assert (code, out, err) == (EXIT_USAGE, "", f"error: point must be finite, got {point}\n")


def test_zero_denominator_is_a_usage_error():
    package_root = os.path.dirname(os.path.dirname(zetazeros.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "zetazeros.cli", "eval", "--family", "Z", "--a", "1/0", "--sigma", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("scan", "--family", "Y", "--a", "0.3", "--from", "0", "--to", "1e300"),
    ("eval", "--family", "Z", "--a", "0.3", "--sigma", "0:1e12:1", "--t", "1"),
    ("eval", "--family", "Z", "--a", "0.3", "--sigma", "0:999:1", "--t", "0:1999:1"),
    ("count", "--family", "Z", "--a", "0.3", "--re-from", "2", "--re-to", "3", "--im-from", "1", "--im-to", "10",
     "--samples", "10000000"),
    ("beta", "--family", "Z", "--a-points", "1000000000000"),
], ids=("scan", "eval-sigma", "eval-product", "count-samples", "beta-a-points"))
def test_huge_grids_are_refused_before_they_are_built(argv):
    code, out, err = run_cli(*argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "points" in err


def test_internal_error_is_one_line_not_a_traceback(monkeypatch):
    import zetazeros.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("something broke")

    monkeypatch.setattr(cli, "eval_family", broken)
    code, out, err = run_cli("eval", "--family", "Z", "--a", "0.3", "--sigma", "2")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: internal error: RuntimeError: something broke\n"



def test_convergence_error_is_exit_two_with_one_error_line(monkeypatch):
    import zetazeros.cli as cli

    def unsettled(*args, **kwargs):
        raise zetazeros.ConvergenceError("winding number did not stabilize")

    monkeypatch.setattr(cli, "count_zeros_rectangle", unsettled)
    code, out, err = run_cli(
        "count", "--family", "Z", "--a", "0.3", "--re-from", "2", "--re-to", "3", "--im-from", "1", "--im-to", "10"
    )
    assert (code, out) == (EXIT_VERIFY, "")
    assert err == "error: winding number did not stabilize\n"


def test_run_leaves_the_callers_warning_filters_alone():
    with warnings.catch_warnings():
        warnings.simplefilter("error", zetazeros.AccuracyWarning)
        before = list(warnings.filters)
        assert run_cli("eval", "--family", "Z", "--a", "0.3", "--sigma", "2")[0] == EXIT_OK
        assert warnings.filters == before
        with pytest.raises(zetazeros.AccuracyWarning):
            zetazeros.l_function(zetazeros.characters_mod(12)[1], -15.0)


def test_exact_a_with_a_huge_denominator_is_evaluated():
    with warnings.catch_warnings(record=True):
        code, out, err = run_cli("eval", "--family", "P", "--a", "1/100000", "--sigma", "2", "--t", "1")
    assert code == EXIT_OK and out.count("\n") == 2

def test_tolerance_comes_from_the_option_only(monkeypatch):
    monkeypatch.setenv("ZETAZEROS_TOL", "not a number")  # no environment variable sets it
    code, out, _ = run_cli("eval", "--family", "Z", "--a", "0.3", "--sigma", "2", "--t", "0", "--tol", "1e-9")
    assert code == EXIT_OK
    # zeta(2, 0.3) + zeta(2, 0.7), frozen from mpmath
    assert float(out.strip().splitlines()[1].split(",")[2]) == pytest.approx(
        15.079413702802341092, abs=1e-8
    )
    default = run_cli("eval", "--family", "Z", "--a", "0.3", "--sigma", "2", "--t", "0")
    monkeypatch.delenv("ZETAZEROS_TOL")
    assert default == run_cli("eval", "--family", "Z", "--a", "0.3", "--sigma", "2", "--t", "0")
