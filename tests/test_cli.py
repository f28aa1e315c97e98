import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import quatpert


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_hydrogen_table_reproduces_reference(run_cli):
    proc = run_cli("hydrogen-table", "--alphaw", "0.15", "--n-max", "5", expect=0)
    header, rows = parse_csv(proc.stdout)
    assert header == [
        "n", "E_complex_eV", "E_relativistic_eV", "E_quaternionic_eV", "alphaW_eV",
    ]
    reference = {
        1: (-13.60000, -13.60090, -13.60083),
        2: (-3.40000, -3.40015, -3.40331),
        3: (-1.51111, -1.51116, -1.51854),
        4: (-0.85000, -0.85002, -0.86313),
        5: (-0.54400, -0.54401, -0.56430),
    }
    assert len(rows) == 5
    for row in rows:
        n = int(row[0])
        for got, want in zip(map(float, row[1:4]), reference[n]):
            assert abs(got - want) <= 5e-6


def test_hydrogen_table_zero_coupling(run_cli):
    proc = run_cli("hydrogen-table", "--alphaw", "0", "--n-max", "4", expect=0)
    _, rows = parse_csv(proc.stdout)
    for row in rows:
        assert row[1] == row[3]


def test_hydrogen_table_radius_exclusion(run_cli):
    proc = run_cli("hydrogen-table", "--alphaw", "0.15", "--n-max", "10", expect=0)
    _, rows = parse_csv(proc.stdout)
    assert [int(r[0]) for r in rows] == list(range(1, 10))
    assert "n=10" in proc.stderr
    proc = run_cli("hydrogen-table", "--alphaw", "0.15", "--n-max", "9", expect=0)
    _, rows = parse_csv(proc.stdout)
    assert [int(r[0]) for r in rows] == list(range(1, 10))
    assert proc.stderr == ""


def test_sigma_zero_strength_is_unity(run_cli):
    proc = run_cli(
        "sigma", "--model", "hydrogen", "--n", "1", "--alpha", "0", expect=0
    )
    _, rows = parse_csv(proc.stdout)
    assert len(rows) == 30  # default max order
    assert all(float(r[2]) == 1.0 for r in rows)


def test_sigma_well_panel_alternates_about_limit(run_cli):
    proc = run_cli(
        "sigma", "--model", "well", "--n", "1", "--alpha", "1.0",
        "--max-order", "30", "--precision", "12", expect=0,
    )
    _, rows = parse_csv(proc.stdout)
    assert len(rows) == 30
    limit = 0.7453559924999299
    residuals = [float(r[2]) - limit for r in rows]
    assert all(a * b < 0 for a, b in zip(residuals, residuals[1:]))
    assert "without converging" in proc.stderr


def test_sigma_boundary_strength_warns(run_cli):
    proc = run_cli(
        "sigma", "--model", "oscillator", "--n", "2", "--alpha", "2.5",
        "--max-order", "20", expect=0,
    )
    _, rows = parse_csv(proc.stdout)
    assert len(rows) == 20
    assert "pair radius" in proc.stderr


def test_sigma_skips_out_of_radius_strengths(run_cli):
    proc = run_cli(
        "sigma", "--model", "oscillator", "--n", "2", "--alpha", "2.6",
        "--alpha", "1.0", "--max-order", "5", expect=0,
    )
    _, rows = parse_csv(proc.stdout)
    assert {float(r[0]) for r in rows} == {1.0}
    assert "skipped alpha=2.6" in proc.stderr


def test_levels_endpoints(run_cli):
    proc = run_cli(
        "levels", "--n", "1", "--n", "2", "--samples", "5",
        "--precision", "6", expect=0,
    )
    header, rows = parse_csv(proc.stdout)
    assert header == ["n", "alphaW_eV", "energy_eV"]
    assert len(rows) == 10
    first = [r for r in rows if r[0] == "1"]
    assert float(first[0][1]) == 0.0 and float(first[0][2]) == -13.6
    assert float(first[-1][1]) == pytest.approx(13.6)
    assert float(first[-1][2]) == pytest.approx(-19.2333, abs=1e-3)
    second = [r for r in rows if r[0] == "2"]
    assert float(second[-1][2]) == pytest.approx(-4.80833, abs=1e-3)


def test_levels_last_sample_stays_on_the_radius(run_cli):
    # 13.6/9 * 94/94 rounds past 13.6/9; the last sample must not
    proc = run_cli(
        "levels", "--n", "3", "--samples", "95", "--precision", "15", expect=0
    )
    _, rows = parse_csv(proc.stdout)
    assert len(rows) == 95
    assert float(rows[-1][1]) == pytest.approx(13.6 / 9, abs=1e-15)
    assert float(rows[-1][2]) == pytest.approx(-math.sqrt(2) * 13.6 / 9, abs=1e-14)


def test_series_columns_and_convergence(run_cli):
    proc = run_cli(
        "series", "--e0", "0.5", "--w", "1", "--alpha", "0.25",
        "--max-order", "200", "--precision", "15", expect=0,
    )
    header, rows = parse_csv(proc.stdout)
    assert header == [
        "order", "coefficient", "term", "partial_sum", "closed_form", "in_radius",
    ]
    # odd orders contribute nothing
    assert all(float(r[2]) == 0.0 for r in rows if int(r[0]) % 2 == 1)
    # normalized coefficient column: with E = 1/2, |W| = 1 the first five
    # even coefficients times s reproduce 1, -2, 6, -20, 70
    normalized = [int(r[0]) // 2 * float(r[1]) for r in rows[1:10:2]]
    assert normalized == [1.0, -2.0, 6.0, -20.0, 70.0]
    # alpha*|W| = 0.5 |E0|: the deep partial sum meets the closed form
    final = rows[-1]
    assert final[5] == "true"
    assert abs(float(final[3]) - float(final[4])) < 1e-10


def test_series_rejects_zero_level(run_cli):
    proc = run_cli("series", "--e0", "0", "--w", "1", "--alpha", "0.5", expect=1)
    assert "e0" in proc.stderr


def test_series_divergent_flagged_not_refused(run_cli):
    proc = run_cli(
        "series", "--e0", "1", "--w", "1.2", "--alpha", "1.0",
        "--max-order", "10", expect=0,
    )
    _, rows = parse_csv(proc.stdout)
    assert all(r[5] == "false" for r in rows)
    assert all(r[4] == "" for r in rows)  # no closed form outside the radius
    assert "diverges" in proc.stderr


def test_series_past_order_1040_is_finite(run_cli):
    for order in (1040, 1100):
        proc = run_cli(
            "series", "--e0", "-13.6", "--w", "0.15", "--alpha", "1.0",
            "--max-order", str(order), expect=0,
        )
        _, rows = parse_csv(proc.stdout)
        assert len(rows) == order
        assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:5])


def test_sigma_high_order_inside_radius_is_finite(run_cli):
    proc = run_cli(
        "sigma", "--model", "well", "--n", "1", "--alpha", "0.4",
        "--max-order", "600", expect=0,
    )
    _, rows = parse_csv(proc.stdout)
    assert len(rows) == 600
    assert all(math.isfinite(float(row[2])) for row in rows)


def test_out_of_double_range_exits_one_naming_the_order(run_cli):
    cases = [
        # beyond the pair radius the exact partial sums exceed double range
        (("sigma", "--model", "well", "--n", "1", "--alpha", "1.0", "--max-order", "600"),
         "series term"),
        # |W| >> |E0|: the coefficient column overflows, not the tiny terms
        (("series", "--e0", "1", "--w", "100", "--alpha", "0.001", "--max-order", "400"),
         "coefficient"),
        # a subnormal level
        (("series", "--e0", "1e-310", "--w", "0.15", "--alpha", "1.0"), "series term"),
    ]
    for args, column in cases:
        proc = run_cli(*args, expect=1)
        assert re.search(r"order-\d+ ", proc.stderr), proc.stderr
        assert column in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_oracle_pass_and_columns(run_cli):
    proc = run_cli(
        "oracle", "--model", "well", "--n", "1", "--alpha", "0.5",
        "--grid", "500", "--order", "400", "--precision", "8", expect=0,
    )
    header, rows = parse_csv(proc.stdout)
    assert header[-1] == "status" and rows[0][-1] == "PASS"
    report = dict(zip(header, rows[0]))
    assert float(report["closed_form"]) == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert float(report["rel_oracle_vs_closed"]) <= float(report["tolerance"])


def test_oracle_zero_strength_columns_collapse(run_cli):
    proc = run_cli(
        "oracle", "--model", "oscillator", "--n", "0", "--alpha", "0",
        "--grid", "400", "--precision", "10", expect=0,
    )
    header, rows = parse_csv(proc.stdout)
    report = dict(zip(header, rows[0]))
    tol = float(report["tolerance"])
    for column in ("E0_discrete", "series_partial_sum", "closed_form", "oracle_eigenvalue"):
        assert float(report[column]) == pytest.approx(float(report["E0_analytic"]), rel=tol)


def test_oracle_tolerance_failure_exits_two(run_cli):
    # order 1 truncation error is far above the grid tolerance; at --grid 3 the
    # bare level is off by 222%, which the h**2-scaled tolerance alone would pass;
    # on the two absurd oscillator boxes the bare level is off by ~1e147 and
    # ~1e55 times, and the embedding fails its inertia (-5e75) or overlap
    # (-1e30) check, yet the run ends as the grid FAIL, not as exit 1; past
    # 1e6 % the grid error prints in three significant digits
    for args, message, certified in [
        (("--model", "well", "--n", "1", "--alpha", "0.45", "--grid", "500", "--order", "1"),
         "exceeds tolerance", True),
        (("--model", "oscillator", "--n", "2", "--alpha", "0.1", "--grid", "3"),
         "grid level off by 222.51%", True),
        (("--model", "oscillator", "--n", "0", "--alpha", "0.5", "--grid", "100",
          "--x-min", "-5e75", "--x-max", "5e75"),
         "error: grid level off by 2.45e+149% from the analytic value; refine the grid\n",
         False),
        (("--model", "oscillator", "--n", "1", "--alpha", "0.5", "--grid", "100",
          "--x-min", "-1e30", "--x-max", "1e30"), "; refine the grid", False),
    ]:
        proc = run_cli("oracle", *args, expect=2)
        assert message in proc.stderr and len(proc.stderr) < 100
        assert "Traceback" not in proc.stderr and "Error:" not in proc.stderr
        header, rows = parse_csv(proc.stdout)  # report still emitted, marked FAIL
        assert rows[0][-1] == "FAIL"
        report = dict(zip(header, rows[0]))
        for column in ("oracle_eigenvalue", "rel_oracle_vs_closed", "rel_oracle_vs_series"):
            assert (report[column] != "") == certified


def test_oracle_rejects_hydrogen(run_cli):
    proc = run_cli("oracle", "--model", "hydrogen", "--n", "1", "--alpha", "0.1",
                   expect=1)
    assert "Invalid value" in proc.stderr or "invalid" in proc.stderr.lower()


def test_quantum_numbers_are_bounded(run_cli):
    # a huge --n is a usage error, not an OverflowError traceback
    for n in (str(10**200), "100001"):
        for args in [
            ("levels", "--n", n),
            ("sigma", "--model", "well", "--n", n, "--alpha", "0.1"),
            ("oracle", "--model", "well", "--n", n, "--alpha", "0.1", "--grid", "100"),
        ]:
            proc = run_cli(*args, expect=1)
            assert "Invalid value for '--n'" in proc.stderr
            assert "is not in the range x<=100000" in proc.stderr
            assert "Traceback" not in proc.stderr and proc.stdout == ""
    run_cli("sigma", "--model", "well", "--n", "100000", "--alpha", "0.1",
            "--max-order", "2", expect=0)


def test_usage_errors_exit_one(run_cli):
    run_cli("sigma", "--model", "unknown", "--n", "1", "--alpha", "0.1", expect=1)
    run_cli("sigma", "--model", "well", "--n", "0", "--alpha", "0.1", expect=1)
    run_cli("hydrogen-table", expect=1)
    run_cli("levels", "--n", "1", "--samples", "1", expect=1)
    run_cli("series", "--e0", "1", "--w", "1", "--alpha", "0.1",
            "--precision", "16", expect=1)
    # extreme boxes exit 1
    well = ("oracle", "--model", "well", "--n", "1", "--alpha", "0.1", "--grid", "100")
    oscillator = ("oracle", "--model", "oscillator", "--n", "1", "--alpha", "0.1")
    for args in [
        (*well, "--x-max", "1e200"),
        (*well, "--x-max", "1e100"),
        (*well, "--x-max", "1e-100"),
        (*well, "--x-max", "1.01e-75"),  # (4/h**2)**2 overflows
        (*oscillator, "--grid", "100", "--x-max", "1e100"),
        (*oscillator, "--grid", "1000", "--x-min", "-1e155", "--x-max", "1e155"),
        (*oscillator, "--grid", "100", "--x-min", "2e77", "--x-max", "3e77"),
    ]:
        proc = run_cli(*args, expect=1)
        assert "Error:" in proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert "box [" in proc.stderr or "branch matching failed" in proc.stderr
    for x_max in ("1e-74", "1e60", "1e-60"):
        assert run_cli(*well, "--x-max", x_max, expect=0).stdout.endswith(",PASS\n")
    # order and sample counts are bounded
    for args in [
        ("series", "--e0", "1", "--w", "1", "--alpha", "0.1", "--max-order", "100001"),
        ("sigma", "--model", "well", "--n", "1", "--alpha", "0.1", "--max-order", "50001"),
        ("levels", "--n", "1", "--samples", "100001"),
        ("hydrogen-table", "--alphaw", "0.15", "--n-max", "100001"),
        ("oracle", "--model", "well", "--n", "1", "--alpha", "0.1", "--order", "50001"),
    ]:
        assert "is not in the range" in run_cli(*args, expect=1).stderr


def test_io_error_exits_three(run_cli, tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    proc = run_cli(
        "hydrogen-table", "--alphaw", "0.15", "--out", str(missing_dir), expect=3
    )
    assert "I/O error" in proc.stderr


def test_no_output_file_on_usage_failure(run_cli, tmp_path):
    target = tmp_path / "out.csv"
    run_cli("sigma", "--model", "well", "--n", "0", "--alpha", "0.1",
            "--out", str(target), expect=1)
    assert not target.exists()


def test_byte_identical_reruns(run_cli, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("sigma", "--model", "hydrogen", "--n", "1", "--alpha", "0.1",
            "--alpha", "0.125", "--max-order", "40", "--precision", "12")
    run_cli(*args, "--out", str(first), expect=0)
    run_cli(*args, "--out", str(second), expect=0)
    assert first.read_bytes() == second.read_bytes()
    assert b"\r" not in first.read_bytes()  # LF endings only


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
README_COMMANDS = {
    "sigma": ("sigma", "--model", "well", "--n", "1", "--alpha", "0.3", "--alpha", "1.0",
              "--max-order", "30"),
    "hydrogen-table": ("hydrogen-table", "--alphaw", "0.15", "--n-max", "5"),
    "levels": ("levels", "--n", "1", "--n", "2", "--n", "3", "--samples", "100"),
    "oracle": ("oracle", "--model", "oscillator", "--n", "2", "--alpha", "1.0", "--grid", "2000"),
    "series": ("series", "--e0", "-13.6", "--w", "0.15", "--alpha", "1.0", "--max-order", "200"),
}


def test_readme_commands_match_golden_outputs(run_cli, tmp_path):
    # tests/data/<command>.<format> pins, byte for byte, what each README
    # command printed (levels: the file its --out wrote) when the files were made
    for name, args in README_COMMANDS.items():
        for fmt in ("csv", "json"):
            out = tmp_path / "levels.csv"
            extra = ("--out", str(out)) if name == "levels" else ()
            proc = run_cli(*args, *extra, "--format", fmt, expect=0)
            text = out.read_text() if name == "levels" else proc.stdout
            if name == "levels":
                assert proc.stdout == ""
            with open(os.path.join(DATA_DIR, f"{name}.{fmt}"), newline="") as golden:
                assert text == golden.read(), (name, fmt)


def test_json_format(run_cli):
    proc = run_cli(
        "hydrogen-table", "--alphaw", "0.15", "--n-max", "2",
        "--format", "json", expect=0,
    )
    payload = json.loads(proc.stdout)
    assert payload["columns"][0] == "n"
    assert len(payload["rows"]) == 2
    assert payload["rows"][0][1] == -13.6
    proc2 = run_cli(
        "series", "--e0", "1", "--w", "1.2", "--alpha", "1.0",
        "--max-order", "4", "--format", "json", expect=0,
    )
    data = json.loads(proc2.stdout)
    assert data["rows"][0][4] is None  # closed form absent outside the radius
    assert data["rows"][0][5] is False


def test_help_lists_output_options_after_own_options(run_cli):
    for command in ("sigma", "hydrogen-table", "levels", "oracle", "series"):
        text = run_cli(command, "--help", expect=0).stdout
        options = re.findall(r"^  (--[\w-]+)", text, re.MULTILINE)
        assert len(options) > 4, text
        assert options[-4:] == ["--format", "--out", "--precision", "--help"], text


def run_python(script):
    """Run `script` in a fresh interpreter that imports this checkout's quatpert."""
    src = os.path.dirname(os.path.dirname(quatpert.__file__))
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )


def test_public_names_resolve_and_scipy_loads_with_the_oracle():
    script = """
import sys
import quatpert
assert "numpy" not in sys.modules, "numpy loaded by import quatpert"
oracle_names = quatpert._ORACLE_EXPORTS
for name in quatpert.__all__:
    if name not in oracle_names:
        getattr(quatpert, name)
assert "numpy" not in sys.modules, "numpy loaded before embed_block or an oracle name ran"
assert "scipy" not in sys.modules, "scipy loaded before an oracle name was touched"
q = quatpert.qmul(quatpert.I, quatpert.J) + quatpert.Quaternion(1.0, 2.0, 3.0, 4.0) * quatpert.K
assert q == quatpert.Quaternion(-4.0, 3.0, -2.0, 2.0)
pair = quatpert.to_symplectic(q)
assert quatpert.from_symplectic(pair) == q and q.conjugate().norm() == q.norm()
assert "numpy" not in sys.modules, "quaternion arithmetic loaded numpy"
quatpert.embed_block(1j, 0.5)
assert "numpy" in sys.modules and "scipy" not in sys.modules
for name in quatpert.__all__:
    getattr(quatpert, name)
assert "scipy" in sys.modules
assert len(set(quatpert.__all__)) == len(quatpert.__all__)
assert oracle_names <= set(quatpert.__all__)
"""
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    # an oracle name alone, without embed_block, loads numpy too
    proc = run_python("import sys, quatpert; quatpert.Grid1D; assert 'numpy' in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_data_commands_load_neither_numpy_nor_scipy(tmp_path):
    script = f"""
import sys
from quatpert.cli import main
for argv in [
    ["series", "--e0", "-13.6", "--w", "0.15", "--alpha", "1.0", "--max-order", "20"],
    ["sigma", "--model", "well", "--n", "1", "--alpha", "0.3", "--max-order", "30"],
    ["levels", "--n", "1", "--n", "2", "--samples", "100", "--out", {str(tmp_path / "levels.csv")!r}],
    ["hydrogen-table", "--alphaw", "0.15", "--n-max", "5"],
]:
    assert main(argv) == 0, argv
loaded = sorted({{name.split(".")[0] for name in sys.modules}} & {{"numpy", "scipy"}})
assert not loaded, loaded
"""
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "levels.csv").read_text().startswith("n,alphaW_eV,")
