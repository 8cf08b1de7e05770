import json
import math
import os
import subprocess
import sys

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


@pytest.mark.parametrize("edit", [
    lambda rows: rows.insert(5, rows[5]),
    lambda rows: rows[5].__setitem__(-1, "nan"),  # column ddr
], ids=["duplicated-u", "nan-dd"])
def test_validate_csv_with_bad_samples_is_usage_error(circle_csv, edit, capsys):
    rows = [line.split(",") for line in circle_csv.read_text().splitlines()]
    edit(rows)
    circle_csv.write_text("".join(",".join(row) + "\n" for row in rows))
    code, _, err = run(["validate", "--type", "elliptic", "--csv", str(circle_csv),
                        "--grid", "5x5"], capsys)
    assert code == 2
    assert "ERROR[usage]" in err and "Traceback" not in err


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


@pytest.mark.parametrize("argv", [
    ["curve", *ELLIPTIC_2, "--rel-tol", "0", "--out", "{tmp}/x.csv"],
    ["curve", *ELLIPTIC_2, "--samples", "1", "--out", "{tmp}/x.csv"],
    ["surface", *ELLIPTIC_2, "--obj", "{tmp}/z.obj", "--project", "x1,x9,x4"],
    # farther from the generation interval (1e-7, 0.9999999) than its pad
    ["validate", *ELLIPTIC_2, "--C", "0.1", "--u0", "-0.01"],
    ["validate", "--type", "elliptic", "--csv", "{tmp}/missing.csv"],
    ["validate", "--type", "elliptic", "--csv", "{tmp}/header_only.csv"],
], ids=["rel-tol-0", "samples-1", "bad-projection", "u0-outside", "csv-missing",
        "csv-header-only"])
def test_bad_input_exits_2_without_traceback(argv, tmp_path, capsys):
    (tmp_path / "header_only.csv").write_text("u,x1,x2,r,dx1,dx2,dr,ddx1,ddx2,ddr\r\n")
    code, _, err = run([arg.replace("{tmp}", str(tmp_path)) for arg in argv], capsys)
    assert code == 2, err
    assert "Traceback" not in err


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
