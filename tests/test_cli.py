import csv
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from cmcsurf.builders import RotationType
from cmcsurf.cli import main
from cmcsurf.generator import CmcParams
from cmcsurf.io import write_curve_csv
from cmcsurf.profiles import ProfileFunction
from cmcsurf.validation import generate_and_validate

from analytic_curves import elliptic_circle


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_curve_command_writes_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _, err = run(["curve", "--type", "elliptic", "--profile", "2",
                        "--C", "0.25", "--hsign", "+1",
                        "--interval", "0:6.28", "--out", str(out)], capsys)
    assert code == 0, err
    header = out.read_text().splitlines()[0]
    assert header == "u,x1,x2,r,dx1,dx2,dr,ddx1,ddx2,ddr"


def test_curve_command_pads_like_generate_and_validate(tmp_path, capsys):
    # span > 10, where a 1e-6 pad cap and the FD_STEP cap give different intervals
    out = tmp_path / "curve.csv"
    code, _, err = run(["curve", "--type", "hyperbolicA", "--profile", "2*u",
                        "--C", "0.5", "--interval", "0.5:12.5", "--samples", "5",
                        "--out", str(out)], capsys)
    assert code == 0, err
    first_u = float(out.read_text().splitlines()[1].split(",")[0])
    curve, _, _ = generate_and_validate(
        RotationType.HYPERBOLIC_A, ProfileFunction.from_text("2*u", (0.5, 12.5)),
        CmcParams(C=0.5), (0.5, 12.5), nu=5, nv=5)
    assert first_u == curve.domain[0]


def test_validate_command_passes(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, _, err = run(["validate", "--type", "parabolic", "--profile", "u",
                        "--C", "0.5", "--phi0", "0", "--interval", "0.5:2",
                        "--grid", "11x7", "--report", str(report_path)], capsys)
    assert code == 0, err
    payload = json.loads(report_path.read_text())
    assert payload["max_cmc_residual"] <= 1e-6
    assert payload["target_h2"] == pytest.approx(0.25)


def test_validate_csv_round_trip(tmp_path, capsys):
    curve_path = tmp_path / "c.csv"
    code, _, _ = run(["curve", "--type", "elliptic", "--profile", "2",
                      "--C", "0.25", "--interval", "0:6.28",
                      "--out", str(curve_path)], capsys)
    assert code == 0
    code, out, err = run(["validate", "--type", "elliptic", "--csv",
                          str(curve_path), "--C", "0.25", "--hsign", "+1",
                          "--grid", "11x7"], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["max_cmc_residual"] <= 1e-6


@pytest.fixture
def circle_csv(tmp_path):
    path = tmp_path / "circle.csv"
    write_curve_csv(str(path), elliptic_circle(2.0), samples=21)
    return path


@pytest.mark.parametrize("edit, message", [
    (lambda rows: rows.insert(5, rows[5]), "ERROR[usage]"),
    (lambda rows: rows[5].__setitem__(-1, "nan"), "ERROR[usage]"),  # column ddr
    (lambda rows: rows[5].pop(), "sample rows of {path} do not match its header"),
], ids=["duplicated-u", "nan-dd", "short-row"])
def test_validate_csv_with_bad_samples_is_usage_error(circle_csv, edit, message, capsys):
    rows = [line.split(",") for line in circle_csv.read_text().splitlines()]
    edit(rows)
    circle_csv.write_text("".join(",".join(row) + "\n" for row in rows))
    code, _, err = run(["validate", "--type", "elliptic", "--csv", str(circle_csv),
                        "--grid", "5x5"], capsys)
    assert code == 2
    assert "ERROR[usage]" in err and "Traceback" not in err
    assert message.format(path=circle_csv) in err


@pytest.mark.parametrize("command", [
    ["validate", "--grid", "5x5"], ["surface", "--out", "{tmp}/s.csv"],
    ["oracle", "--grid", "5x5"]], ids=lambda argv: argv[0])
def test_csv_type_must_match_the_curve(circle_csv, command, tmp_path, capsys):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in command]
    code, _, err = run([*argv, "--type", "parabolic", "--csv", str(circle_csv)], capsys)
    assert code == 2
    assert "ERROR[usage]" in err and "elliptic" in err


_GENERATION_FLAGS = [["--profile", "u"], ["--const", "a=1"], ["--interval", "0:1"],
                     ["--eta", "-1"], ["--u0", "0.5"], ["--phi0", "0.3"], ["--c1", "3"],
                     ["--c2", "3"], ["--rel-tol", "1e-8"]]


@pytest.mark.parametrize("command, flag", [
    *((command, flag) for command in (["validate", "--grid", "5x5"],
                                      ["surface", "--out", "{tmp}/s.csv"],
                                      ["oracle", "--grid", "5x5"])
      for flag in _GENERATION_FLAGS),
    (["validate", "--grid", "5x5"], ["--perturb-phi", "1.01"]),
    *((command, flag) for command in (["surface", "--out", "{tmp}/s.csv"],
                                      ["oracle", "--grid", "5x5"])
      for flag in (["--C", "0.3"], ["--hsign", "-1"])),
], ids=lambda arg: arg[0])
def test_csv_rejects_flags_only_generation_reads(circle_csv, command, flag, tmp_path,
                                                 capsys):
    # a reloaded curve is not regenerated: a negative control or a changed
    # constant given with --csv would be silently dropped
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in command]
    code, _, err = run([*argv, "--type", "elliptic", "--csv", str(circle_csv), *flag],
                       capsys)
    assert code == 2
    assert "ERROR[usage]" in err and flag[0] in err


def test_surface_samples_the_rotation_types_v_window(tmp_path, capsys):
    circle, out = tmp_path / "circle.csv", tmp_path / "s.csv"
    write_curve_csv(str(circle), elliptic_circle(2.0), samples=201)
    code, _, err = run(["surface", "--type", "elliptic", "--csv", str(circle),
                        "--grid", "3x5", "--out", str(out)], capsys)
    assert code == 0, err
    vs = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert min(vs) == 0.0 and max(vs) == 2.0 * math.pi


def test_case_mismatch_exits_2(tmp_path, capsys):
    code, _, err = run(["curve", "--type", "hyperbolicA", "--profile", "u/2",
                        "--C", "0.5", "--interval", "0.5:2",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    assert "ERROR[case-mismatch]" in err


def test_empty_validity_exits_2(capsys):
    code, _, err = run(["validate", "--type", "elliptic", "--profile", "1",
                        "--C", "1.0", "--hsign", "-1", "--interval", "0:2",
                        "--grid", "9x7"], capsys)
    assert code == 2
    assert "ERROR[empty-validity]" in err


@pytest.mark.parametrize("argv, message", [
    (["validate", "--type", "elliptic", "--profile", "1", "--C", "1.0", "--hsign", "-1",
      "--interval", "0:2", "--grid", "9x7"],
     "ERROR[empty-validity] the (h_sign, C) choice is infeasible on the interval "
     "(radicand -3.0 negative (infeasible h_sign/C) at u=0.0)"),
    (["curve", "--type", "hyperbolicA", "--profile", "u/2", "--C", "0.5",
      "--interval", "0.5:2", "--out", "x.csv"],
     "ERROR[case-mismatch] (r')^2 - 1 = -0.75 at u=0.5 contradicts hyperbolicA"),
    # only a negative radicand depends on (h_sign, C); other failures name the profile
    (["curve", "--type", "elliptic", "--profile=-1", "--interval", "0:1", "--C", "0.5",
      "--out", "x.csv"],
     "ERROR[empty-validity] the profile fails the generator's preconditions on the "
     "interval (r(u)=-1.0 <= 0 at u=0.0)"),
    (["curve", "--type", "parabolic", "--profile", "2", "--interval", "0.5:2", "--C", "0.5",
      "--out", "x.csv"],
     "ERROR[empty-validity] the profile fails the generator's preconditions on the "
     "interval (f'(u) = 0 at u=0.5)"),
    # the scan runs before anything is generated, and generate is where a
    # base point outside the interval is refused: an unusable scan wins
    (["validate", "--type", "elliptic", "--profile", "1", "--C", "1.0", "--hsign", "-1",
      "--interval", "0:2", "--grid", "9x7", "--u0", "5"],
     "ERROR[empty-validity] the (h_sign, C) choice is infeasible on the interval "
     "(radicand -3.0 negative (infeasible h_sign/C) at u=0.0)"),
], ids=["infeasible", "case-mismatch", "nonpositive-profile", "flat-profile",
        "u0-outside"])
def test_an_all_infeasible_scan_names_the_interval_start(argv, message, tmp_path, capsys):
    # nothing is generated: the preconditions are checked at u = a of a:b
    code, out, err = run([arg.replace("x.csv", str(tmp_path / "x.csv")) for arg in argv],
                         capsys)
    assert (code, out, err) == (2, "", message + "\n")
    assert not (tmp_path / "x.csv").exists()


def _circle_csv_ending_in(tmp_path, field, value):
    """The 101-sample circle CSV with ``field`` of its last row set to ``value``."""
    path = tmp_path / "curve.csv"
    write_curve_csv(str(path), elliptic_circle(2.0), samples=101)
    rows = list(csv.reader(path.read_text().splitlines()))
    rows[-1][rows[0].index(field)] = value
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return path


@pytest.mark.parametrize("command", [["validate", "--C", "0.4330127018922193"], ["oracle"],
                                     ["surface", "--out", "s.csv"]], ids=lambda c: c[0])
@pytest.mark.parametrize("field", ["dx1", "ddx1", "ddx2"])
def test_an_overflowing_arclength_expression_is_an_invariant_violation(
        field, command, tmp_path, capsys):
    # the spline of the last sample's 1e160 reaches slopes whose square passes
    # the float range: an error before any grid kernel runs on them
    path = _circle_csv_ending_in(tmp_path, field, "1e160")
    code, out, err = run([command[0], "--type", "elliptic", "--csv", str(path), "--grid", "9x7",
                          *(arg.replace("s.csv", str(tmp_path / "s.csv"))
                            for arg in command[1:])], capsys)
    assert (code, out, err) == (2, "", "ERROR[invariant-violation] arc-length expression "
                                       "overflows on (0.0, 6.283185307179586)\n")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("field, value, error", [
    # libm's pow in the closed form's squares overflows
    ("ddx1", "1e155", "ERROR[invariant-violation] closed-form <H, H> overflows on "
                      "(0.0, 6.283185307179586)"),
    # E G - F^2 overflows on the grid (inf - inf): an overflow, not a signature
    ("ddr", "1e155", "ERROR[invariant-violation] first fundamental form overflows at (u, v) = "
                     "(6.282785307179586, 0.0004): E=-1.5103938188924142e+303, "
                     "F=-1.8152061871066688e+280, G=-6.159395872573665e+295"),
    # the spline's derivative coefficients overflow: warnings from its build and sums
    ("dx1", "1e308", "ERROR[invariant-violation] arc-length expression overflows on "
                     "(0.0, 6.283185307179586)"),
], ids=["ddx1", "ddr", "dx1"])
def test_a_curve_past_the_float_range_ends_in_one_error_line(field, value, error, tmp_path,
                                                             capsys):
    path = _circle_csv_ending_in(tmp_path, field, value)
    assert run(["validate", "--type", "elliptic", "--csv", str(path), "--grid", "9x7",
                "--C", "0.4330127018922193"], capsys) == (2, "", error + "\n")


HYPERBOLIC_A_2U = ["--type", "hyperbolicA", "--profile", "2*u", "--interval", "0.5:2.5",
                   "--C", "0.5"]
#: The first (u, v), at the ends of the v window, where r cosh v passes the
#: float range (libm's cosh itself raises past |v| = 710.47...).
POSITION_OVERFLOWS = "ERROR[invariant-violation] position is not finite at (u, v) = "
FORM_OVERFLOWS = "ERROR[invariant-violation] first fundamental form overflows at (u, v) = "


@pytest.mark.parametrize("argv, error", [
    # r cosh v near 1e173 squares to inf, and E = inf - inf is nan on the
    # grid, silently as at a float: the first fundamental form overflows
    (["validate", *HYPERBOLIC_A_2U, "--v-window=-400:400"],
     FORM_OVERFLOWS + "(0.5004002, -399.9996): E=nan, F=nan, G=nan"),
    (["oracle", *HYPERBOLIC_A_2U, "--v-window=-400:400"],
     FORM_OVERFLOWS + "(0.5004002, -399.9996): E=nan, F=nan, G=nan"),
    (["validate", *HYPERBOLIC_A_2U, "--v-window=-800:800"],
     POSITION_OVERFLOWS + "(0.5000002, -800.0)"),
    (["surface", *HYPERBOLIC_A_2U, "--v-window=-800:800", "--out", "{tmp}/s.csv"],
     POSITION_OVERFLOWS + "(0.5000002, -800.0)"),
    (["oracle", *HYPERBOLIC_A_2U, "--v-window=-800:800"],
     POSITION_OVERFLOWS + "(0.5000002, -800.0)"),
    (["surface", "--type", "hyperbolicB", "--profile", "2", "--interval", "0:2", "--C", "0.1",
      "--v-window=700:720", "--out", "{tmp}/s.csv"],
     POSITION_OVERFLOWS + "(2e-07, 720.0)"),
    # cosh 710 = 1.1e308 is a float, and r cosh 710 = 2.2e308 is not
    (["surface", "--type", "hyperbolicB", "--profile", "2", "--interval", "0:2", "--C", "0.1",
      "--v-window=700:710", "--out", "{tmp}/s.csv"],
     POSITION_OVERFLOWS + "(2e-07, 710.0)"),
], ids=["validate-400", "oracle-400", "validate-800", "surface-800", "oracle-800",
        "surface-720", "surface-710"])
def test_a_patch_far_out_in_v_ends_in_one_error_line(argv, error, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        result = run([arg.replace("{tmp}", str(tmp_path)) for arg in argv], capsys)
    assert result == (2, "", error + "\n")
    assert not (tmp_path / "s.csv").exists()


def test_narrow_valid_pieces_are_empty_validity(capsys):
    # the scan finds 128 valid pieces, the widest 1.57e-3 wide, narrower than
    # the 24 FD steps (2.4e-3) a generation interval needs; generating on all
    # of 0.1:0.3 failed the quadrature
    code, out, err = run(["validate", "--type", "parabolic", "--profile", "sin(2000*u)+2",
                          "--interval", "0.1:0.3", "--C", "0.5", "--grid", "5x5"], capsys)
    assert (code, out) == (2, "")
    assert err == "ERROR[empty-validity] no usable subinterval inside the requested interval\n"


def test_perturbed_phi_exits_1(capsys):
    code, out, _ = run(["validate", "--type", "elliptic", "--profile", "2",
                        "--C", "0.25", "--interval", "0:6.28",
                        "--grid", "9x7", "--perturb-phi", "1.01"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["max_cmc_residual"] > 100.0 * 1e-6


def test_surface_command(tmp_path, capsys):
    out_csv = tmp_path / "s.csv"
    out_obj = tmp_path / "s.obj"
    code, _, err = run(["surface", "--type", "elliptic", "--profile", "2",
                        "--C", "0.25", "--interval", "0:6.28",
                        "--grid", "7x7", "--v-window", "0:6.28",
                        "--out", str(out_csv), "--obj", str(out_obj)], capsys)
    assert code == 0, err
    assert out_csv.read_text().splitlines()[0] == "u,v,x1,x2,x3,x4"
    assert any(line.startswith("f ") for line in out_obj.read_text().splitlines())
    # the OBJ vertices are the CSV's x1, x2, x4 columns under that projection
    code, _, err = run(["surface", "--type", "elliptic", "--profile", "2",
                        "--C", "0.25", "--interval", "0:6.28",
                        "--grid", "7x7", "--v-window", "0:6.28",
                        "--project", "x1,x2,x4", "--obj", str(out_obj)], capsys)
    assert code == 0, err
    lines = out_obj.read_text().splitlines()
    assert lines[1] == "# projection: x1,x2,x4"
    rows = [row.split(",") for row in out_csv.read_text().splitlines()[1:]]
    assert [line.split()[1:] for line in lines if line.startswith("v ")] == [
        [row[2], row[3], row[5]] for row in rows]


def test_special_command(tmp_path, capsys):
    code, out, _ = run(["special", "--type", "elliptic", "--a", "1", "--b", "0",
                        "--C", "0.5", "--interval", "0.3:1.7"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "consistent"


@pytest.mark.parametrize("flags", [["--hsign", "-1"], ["--u0", "7"], ["--c1", "3"],
                                   ["--c2", "3"], ["--phi0", "0.3"]])
def test_special_command_rejects_flags_it_cannot_honour(flags, capsys):
    # the audit forces h_sign and reads no integration constant but A
    code, _, _ = run(["special", "--type", "parabolic", "--a", "1", "--b", "0",
                      "--interval", "0.5:2", *flags], capsys)
    assert code == 2


def test_special_command_zero_C_is_usage_error(capsys):
    code, _, err = run(["special", "--type", "elliptic", "--a", "1", "--b", "0",
                        "--C", "0", "--interval", "0.3:1.7"], capsys)
    assert code == 2
    assert "ERROR[usage]" in err


def test_oracle_command(capsys):
    code, out, err = run(["oracle", "--type", "elliptic", "--profile", "2",
                          "--C", "0.25", "--interval", "0:6.28",
                          "--grid", "9x7"], capsys)
    assert code == 0, err
    assert "discrepancy" in out


def test_bad_flags_exit_2(tmp_path, capsys):
    code, _, err = run(["curve", "--type", "elliptic", "--profile", "2",
                        "--C", "0.25", "--interval", "nonsense",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    code, _, _ = run(["curve", "--type", "weird", "--profile", "2",
                      "--C", "0.25", "--interval", "0:1",
                      "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    code, _, err = run(["curve", "--type", "elliptic", "--profile", "2",
                        "--C", "0", "--interval", "0:1",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    assert "ERROR[usage]" in err


ELLIPTIC_2 = ["--type", "elliptic", "--profile", "2", "--interval", "0:1"]
#: Special-case audits; with finite constants the first is consistent.
SPECIAL_ELLIPTIC = ["--type", "elliptic", "--interval", "0.3:1.7"]
SPECIAL_PARABOLIC = ["--type", "parabolic", "--interval", "0.5:2", "--a", "1", "--b", "0"]


@pytest.mark.parametrize("command, flags", [
    ("curve", ["--C", "0"]), ("curve", ["--C", "nan"]), ("curve", ["--C", "inf"]),
    ("curve", ["--phi0", "nan"]), ("curve", ["--c1", "inf"]), ("curve", ["--c2=-inf"]),
    ("curve", ["--u0", "nan"]), ("curve", ["--interval=0:inf"]),
    ("curve", ["--interval=nan:1"]), ("validate", ["--interval=0:inf"]),
    ("validate", ["--C", "nan"]), ("special", ["--C", "nan"]), ("special", ["--C", "inf"]),
], ids=lambda x: x if isinstance(x, str) else "".join(x).lstrip("-"))
def test_zero_or_non_finite_input_is_usage_error(command, flags, tmp_path, capsys):
    argv = {"curve": ["curve", *ELLIPTIC_2, "--out", str(tmp_path / "x.csv")],
            "validate": ["validate", *ELLIPTIC_2, "--grid", "5x5"],
            "special": ["special", "--type", "elliptic", "--a", "1", "--b", "0",
                        "--interval", "0.3:1.7"]}[command]
    code, _, err = run([*argv, *flags], capsys)
    assert code == 2
    assert "ERROR[usage]" in err and "Traceback" not in err


def test_overflowing_slope_is_a_quadrature_failure(capsys):
    # cosh(phi) of the hyperbolic-B slopes overflows inside the quadrature
    code, _, err = run(["validate", "--type", "hyperbolicB", "--profile",
                        "(((u)/(1.212+(0.836)^2))/(0.806+(sin(-1.047*u+-0.711))^2))^3",
                        "--interval=-0.19609421772404723:0.8173533501804369",
                        "--C", "0.05", "--hsign", "-1", "--eta", "-1", "--grid", "11x11"],
                       capsys)
    assert code == 2
    assert "ERROR[quadrature-failure]" in err and "Traceback" not in err


@pytest.mark.parametrize("code, flags, message", [
    # f' = 0 near u = 0.3208 lies between two validity scan points.  The scan
    # ends the largest piece there, at a pole of psi', which its quadrature
    # fails to resolve (when the piece spanned the zero, a Gauss node landed
    # on f' = 0 and divided by zero)
    ("quadrature-failure", ["--type", "parabolic", "--profile", "cos(0.823*u+-0.264)",
                            "--interval=-0.4348935868064354:1.9277890762750751",
                            "--C", "1", "--hsign", "-1"],
     "Legendre tail did not decay on (0.32077"),
    # slopes near 1e154, whose squares overflow in build_surface's arc-length check
    ("invariant-violation", ["--type", "hyperbolicB", "--profile",
                             "(((1.140)+(u))*((1.529)^2))/(1.143+(((u)+(2.031))^3)^2)",
                             "--interval=0.4385178354398085:2.1587471014559805",
                             "--C", "0.5", "--hsign", "-1"],
     "arc-length expression overflows"),
], ids=["zero-division", "overflow"])
def test_arithmetic_errors_end_in_their_error_code(code, flags, message, capsys):
    exit_code, out, err = run(["validate", *flags, "--eta", "1", "--grid", "11x11"], capsys)
    assert exit_code == 2
    assert out == ""
    assert err.startswith(f"ERROR[{code}] {message}") and err.count("\n") == 1, err


def test_validate_keeps_a_parabolic_piece_off_a_zero_of_f(capsys):
    # f = sinh(-0.709 u - 0.130) vanishes between two validity scan points, at
    # u = -0.1834, where the metric G = -2 f^2 degenerates: the report covers
    # the largest piece on one side.  It still fails the FD oracle next to the
    # degenerate end.
    code, out, err = run(["validate", "--type", "parabolic", "--profile",
                          "sinh(-0.709*u+-0.130)",
                          "--interval=-0.4719491037756429:0.07469876395076991",
                          "--C", "1", "--hsign", "1", "--eta", "-1", "--grid", "11x11"],
                         capsys)
    assert code == 1, err
    lo, hi = json.loads(out)["grid"]["u_window"]
    assert lo < hi < 0.130 / -0.709


#: The feasible ``roundtrip`` cases of the benchmark: type, profile,
#: interval, C and h_sign.
FEASIBLE = [("elliptic", "2", (0.0, 6.28), 0.1, 1), ("hyperbolicB", "2", (0.0, 2.0), 0.1, 1),
            ("hyperbolicA", "2*u", (0.5, 2.5), 0.5, 1), ("parabolic", "u", (0.5, 2.0), 0.5, 1)]


@pytest.mark.parametrize("eta", [1, -1])
@pytest.mark.parametrize("case", FEASIBLE, ids=lambda case: f"{case[0]}:{case[1]}")
def test_validate_prints_the_library_report(case, eta, capsys):
    kind, text, (lo, hi), c, h_sign = case
    code, out, err = run(["validate", "--type", kind, "--profile", text,
                          f"--interval={lo!r}:{hi!r}", "--C", repr(c),
                          "--hsign", str(h_sign), "--eta", str(eta)], capsys)
    assert code == 0, err
    _, report, _ = generate_and_validate(
        RotationType(kind), ProfileFunction.from_text(text, (lo, hi)),
        CmcParams(C=c, h_sign=h_sign, eta=eta), (lo, hi), surface_id=f"{kind}:{text}")
    assert out == report.to_json() + "\n"


#: A type error of an argparse flag prints argparse's usage line and names
#: the flag; the checks after parsing print ``ERROR[<code>] message``.
@pytest.mark.parametrize("argv, message", [
    (["curve", *ELLIPTIC_2, "--rel-tol", "0", "--out", "{tmp}/x.csv"],
     "argument --rel-tol: expected a finite positive number, got '0'"),
    (["curve", *ELLIPTIC_2, "--rel-tol", "inf", "--out", "{tmp}/x.csv"],
     "argument --rel-tol: expected a finite positive number, got 'inf'"),
    (["validate", *ELLIPTIC_2, "--cmc-tol", "nan"],
     "argument --cmc-tol: expected a finite positive number, got 'nan'"),
    (["validate", *ELLIPTIC_2, "--cmc-tol", "-1"],
     "argument --cmc-tol: expected a finite positive number, got '-1'"),
    (["validate", *ELLIPTIC_2, "--cmc-fd-tol", "inf"],
     "argument --cmc-fd-tol: expected a finite positive number, got 'inf'"),
    (["oracle", *ELLIPTIC_2, "--tol", "nan"],
     "argument --tol: expected a finite positive number, got 'nan'"),
    (["curve", *ELLIPTIC_2, "--rel-tol", "abc", "--out", "{tmp}/x.csv"],
     "argument --rel-tol: expected a finite positive number, got 'abc'"),
    (["curve", *ELLIPTIC_2, "--samples", "1", "--out", "{tmp}/x.csv"],
     "argument --samples: expected an integer of at least 2, got '1'"),
    (["curve", *ELLIPTIC_2, "--samples", "2.5", "--out", "{tmp}/x.csv"],
     "argument --samples: expected an integer of at least 2, got '2.5'"),
    (["validate", *ELLIPTIC_2, "--perturb-phi", "nan"],
     "argument --perturb-phi: expected a finite number, got 'nan'"),
    (["special", *SPECIAL_ELLIPTIC, "--a", "1", "--b", "inf"],
     "argument --b: expected a finite number, got 'inf'"),
    (["special", *SPECIAL_ELLIPTIC, "--a", "nan", "--b", "0"],
     "argument --a: expected a finite number, got 'nan'"),
    (["special", *SPECIAL_ELLIPTIC, "--a", "1", "--b", "0", "--d", "nan"],
     "argument --d: expected a finite number, got 'nan'"),
    (["special", *SPECIAL_PARABOLIC, "--A=-inf"],
     "argument --A: expected a finite number, got '-inf'"),
    (["special", *SPECIAL_PARABOLIC, "--B", "inf"],
     "argument --B: expected a finite number, got 'inf'"),
    (["surface", *ELLIPTIC_2, "--obj", "{tmp}/z.obj", "--project", "x1,x9,x4"],
     "argument --project: bad projection 'x1,x9,x4'"),
    # farther from the generation interval (1e-7, 0.9999999) than its pad
    (["validate", *ELLIPTIC_2, "--C", "0.1", "--u0", "-0.01"],
     "ERROR[base-point] u0=-0.01 outside the generation interval"),
    (["validate", "--type", "elliptic", "--csv", "{tmp}/missing.csv"],
     "ERROR[usage] cannot read curve CSV"),
    (["validate", "--type", "elliptic", "--csv", "{tmp}/header_only.csv"],
     "has 0 sample rows; need at least 2"),
    (["validate", "--type", "elliptic", "--interval", "0:1"],
     "ERROR[usage] need --profile or --csv"),
    (["validate", "--type", "elliptic", "--profile", "2"],
     "ERROR[usage] need --interval when generating from --profile"),
    (["validate", *ELLIPTIC_2, "--const", "a"],
     "ERROR[usage] bad --const 'a', expected name=value"),
    (["validate", *ELLIPTIC_2, "--const", "a=x"],
     "ERROR[usage] bad --const value in 'a=x'"),
    (["validate", *ELLIPTIC_2, "--const", "a=nan"],
     "ERROR[usage] bad --const value in 'a=nan': expected a finite number, got 'nan'"),
    (["validate", *ELLIPTIC_2, "--const", "a=inf"],
     "ERROR[usage] bad --const value in 'a=inf': expected a finite number, got 'inf'"),
    (["validate", *ELLIPTIC_2, "--const", "a=-inf"],
     "ERROR[usage] bad --const value in 'a=-inf': expected a finite number, got '-inf'"),
    (["validate", *ELLIPTIC_2, "--grid", "abc"],
     "argument --grid: bad grid 'abc', expected NUxNV"),
    (["validate", *ELLIPTIC_2, "--grid", "1x5"],
     "argument --grid: grid must be at least 2x2"),
    (["validate", "--type", "elliptic", "--profile", "2", "--interval=1:0"],
     "argument --interval: empty interval '1:0'"),
    (["validate", *ELLIPTIC_2, "--hsign", "0"],
     "argument --hsign: expected +1 or -1, got '0'"),
    (["surface", *ELLIPTIC_2, "--C", "0.1"],
     "ERROR[usage] give --out and/or --obj"),
    # a validation grid keeps 4 FD steps (4e-4) off each end of its windows
    (["validate", "--type", "elliptic", "--csv", "{tmp}/line-0.10015.csv", "--C", "0.1"],
     "ERROR[stencil-out-of-domain] u window (0.1, 0.10015) is narrower than 8 FD steps "
     "(0.0008)"),
    (["oracle", "--type", "elliptic", "--csv", "{tmp}/line-0.10015.csv"],
     "ERROR[stencil-out-of-domain] u window (0.1, 0.10015) is narrower than 8 FD steps"),
    (["validate", "--type", "elliptic", "--csv", "{tmp}/line-0.1005.csv", "--C", "0.1"],
     "ERROR[stencil-out-of-domain] u window (0.1, 0.1005) is narrower than 8 FD steps"),
    (["validate", *ELLIPTIC_2, "--v-window", "0:1e-9"],
     "ERROR[stencil-out-of-domain] v window (0.0, 1e-09) is narrower than 8 FD steps"),
    (["special", "--type", "hyperbolicA", "--a", "1", "--b", "2", "--interval", "0:1"],
     "ERROR[case-mismatch] constants a=1.0, b=2.0 give eps=-1.0, not case sign 1"),
    (["special", "--type", "hyperbolicA", "--a", "1", "--b", "1", "--interval", "0:1"],
     "ERROR[domain] special hyperbolic profile undefined"),
    (["special", "--type", "parabolic", "--a", "0", "--b", "1", "--interval", "0:1"],
     "ERROR[domain] special parabolic profile undefined"),
    # the profile's 17 spot checks lie in (0, 1), where it is defined; the
    # audit's first point does not
    (["special", "--type", "elliptic", "--a", "0.5", "--b", "0", "--interval=-0.01:1"],
     "ERROR[domain] special elliptic profile undefined at u=-0.00748656218905472"),
], ids=["rel-tol-0", "rel-tol-inf", "cmc-tol-nan", "cmc-tol-negative", "cmc-fd-tol-inf",
        "oracle-tol-nan", "rel-tol-abc", "samples-1", "samples-2.5", "perturb-phi-nan",
        "special-b-inf", "special-a-nan", "special-d-nan", "special-A-inf", "special-B-inf",
        "bad-projection", "u0-outside", "csv-missing",
        "csv-header-only", "no-profile", "no-interval", "const-without-value",
        "const-not-a-number", "const-nan", "const-inf", "const-minus-inf", "grid-abc",
        "grid-1x5", "interval-reversed", "hsign-0", "surface-without-output",
        "validate-narrow-u", "oracle-narrow-u", "validate-reversed-u", "validate-narrow-v",
        "special-case-mismatch", "special-hyperbolic-domain", "special-parabolic-domain",
        "special-elliptic-domain"])
def test_bad_input_exits_2_without_traceback(argv, message, tmp_path, capsys):
    header = "u,x1,x2,r,dx1,dx2,dr,ddx1,ddx2,ddr\r\n"
    (tmp_path / "header_only.csv").write_text(header)
    for end in ("0.10015", "0.1005"):  # the line x1 = u at r = 2, on (0.1, end)
        (tmp_path / f"line-{end}.csv").write_text(
            header + "".join(f"{u},{u},0,2,1,0,0,0,0,0\r\n" for u in ("0.1", end)))
    code, out, err = run([arg.replace("{tmp}", str(tmp_path)) for arg in argv], capsys)
    assert code == 2, err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "z.obj").exists()


#: Each write flag, after a command that succeeds up to the write.
WRITES = [
    (["curve", *ELLIPTIC_2, "--C", "0.1", "--samples", "5"], "--out"),
    (["surface", *ELLIPTIC_2, "--C", "0.1", "--grid", "3x3"], "--out"),
    (["surface", *ELLIPTIC_2, "--C", "0.1", "--grid", "3x3"], "--obj"),
    (["validate", *ELLIPTIC_2, "--C", "0.1", "--grid", "5x5"], "--report"),
    (["special", *SPECIAL_ELLIPTIC, "--a", "1", "--b", "0"], "--report"),
]


@pytest.mark.parametrize("target", ["missing-dir", "a-dir"])
@pytest.mark.parametrize("command, flag", WRITES, ids=[c[0] + f for c, f in WRITES])
def test_a_failed_write_exits_2_naming_the_path(command, flag, target, tmp_path, capsys):
    (tmp_path / "a-dir").mkdir()
    path = str(tmp_path / target / "x.out" if target == "missing-dir" else tmp_path / target)
    code, out, err = run([*command, flag, path], capsys)
    assert code == 2, err
    assert err.startswith(f"ERROR[usage] cannot write {path!r}: ")
    assert "Traceback" not in err and "wrote" not in out
    assert list(tmp_path.rglob("*.tmp")) == []


def test_u0_within_the_pad_snaps_to_the_generation_interval(tmp_path, capsys):
    # generation pads 0:1 to (1e-7, 0.9999999); u0 = 0 snaps to 1e-7, the default
    base = ["validate", *ELLIPTIC_2, "--C", "0.1", "--grid", "5x5"]
    code, snapped, err = run([*base, "--u0", "0"], capsys)
    assert code == 0, err
    assert snapped == run(base, capsys)[1]
    code, _, err = run([*base, "--u0", "1"], capsys)
    assert code == 0, err
    curve = ["curve", *ELLIPTIC_2, "--C", "0.1", "--samples", "5"]
    code, _, err = run([*curve, "--u0", "0", "--out", str(tmp_path / "a.csv")], capsys)
    assert code == 0, err
    run([*curve, "--out", str(tmp_path / "b.csv")], capsys)
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_u0_beyond_the_pad_is_a_base_point_error(capsys):
    code, _, err = run(["validate", *ELLIPTIC_2, "--C", "0.1", "--grid", "5x5",
                        "--u0", "1.01"], capsys)
    assert code == 2
    assert "ERROR[base-point]" in err


def test_bad_profile_syntax_exits_2(tmp_path, capsys):
    code, _, err = run(["curve", "--type", "elliptic", "--profile", "2**u",
                        "--C", "0.25", "--interval", "0:1",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    assert "ERROR[syntax]" in err


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "cmcsurf", "--help"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "curve" in result.stdout and "validate" in result.stdout


def test_closed_stdout_pipe_exits_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the report is written
    try:
        result = subprocess.run(
            [sys.executable, "-m", "cmcsurf", "validate", "--type", "elliptic",
             "--profile", "2", "--interval", "0:6.28", "--C", "0.1", "--grid", "5x5"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr and "BrokenPipeError" not in result.stderr
