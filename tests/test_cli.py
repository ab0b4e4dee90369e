import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import femspde
from femspde.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main
from femspde.expr import MAX_DEPTH
from tests.test_integrator import TIMEDEP_2D

ROOT = Path(__file__).resolve().parents[1]

DET_PROBLEM = """\
a.1.1 = "1 + 0.25*cos(x1)"
b.1 = "0.1"
c = "-0.2"
f = "sin(x1)"
phi = "sin(x1)"
"""

STOCH_PROBLEM = """\
a.1.1 = "1"
sigma.1.1 = "0.3"
g.1 = "0.1"
phi = "sin(x1)"
"""

SCALED_ELEMENT = """\
d = 1
name = scaled-hat
lambda = (-1) (0) (1)

[cell]
type = box
lo = -1
hi = 0
poly = 0: 2  1: 2

[cell]
type = box
lo = 0
hi = 1
poly = 0: 2  1: -2
"""

# psi = 3/2 + 3/2 x on [-1, -1/2] and 1 + 3/2 x on [-1/2, 0], mirrored: it jumps
# by 1/2 at x = -1/2 and 1/2, so written with boxes the file is an input error
SPLIT_SIMPLEX_ELEMENT = """\
d = 1
name = split-hat
lambda = (-1) (0) (1)

[cell]
type = simplex
vertices = -1 ; -1/2
poly = 0: 3/2  1: 3/2

[cell]
type = simplex
vertices = -1/2 ; 0
poly = 0: 1  1: 3/2

[cell]
type = simplex
vertices = 0 ; 1/2
poly = 0: 1  1: -3/2

[cell]
type = simplex
vertices = 1/2 ; 1
poly = 0: 3/2  1: -3/2
"""

SIMPLEX_3D_ELEMENT = """\
d = 3
lambda = (0,0,0) (1,0,0) (-1,0,0) (0,1,0) (0,-1,0) (0,0,1) (0,0,-1)

[cell]
type = simplex
vertices = 0 0 0 ; 1 0 0 ; 0 1 0 ; 0 0 1
poly = 0,0,0: 6
"""


def run_dirs(out):
    return sorted(p for p in os.listdir(out) if p.startswith("run-"))


def assert_replay_is_byte_identical(out, manifest, first):
    """Replay manifest under out; every file of the new run equals the one in run
    first.  Returns the new run's directory name."""
    assert main(["replay", str(manifest), "--out", str(out)]) == EXIT_OK
    (second,) = [d for d in run_dirs(out) if d != first]
    names = sorted(os.listdir(out / first))
    assert names == sorted(os.listdir(out / second))
    for name in names:
        a = (out / first / name).read_bytes()
        b = (out / second / name).read_bytes()
        assert a == b, f"{name} differs between run and replay"
    return second


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "det.prob"
    path.write_text(DET_PROBLEM, encoding="utf-8")
    return str(path)


@pytest.fixture()
def stoch_file(tmp_path):
    path = tmp_path / "stoch.prob"
    path.write_text(STOCH_PROBLEM, encoding="utf-8")
    return str(path)


class TestVerifyElement:
    def test_preset_passes(self, tmp_path, capsys):
        code = main(["verify-element", "--preset", "hat1d", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "overall PASS" in out
        assert "0.333333333333" in out
        (run_dir,) = run_dirs(tmp_path)
        assert (tmp_path / run_dir / "manifest.json").exists()
        assert (tmp_path / run_dir / "verify_report.txt").exists()

    def test_triangle_passes(self, tmp_path, capsys):
        code = main(["verify-element", "--preset", "triangle2d", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "overall PASS" in capsys.readouterr().out

    def test_scaled_element_fails_with_residual_report(self, tmp_path, capsys):
        element = tmp_path / "scaled.element"
        element.write_text(SCALED_ELEMENT, encoding="utf-8")
        code = main(["verify-element", "--element-file", str(element), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY_FAIL
        assert "overall FAIL" in out
        assert "FAIL" in [line.split()[-1] for line in out.splitlines() if "sum R = 1" in line][0]

    def test_skew_element_fails_on_symmetry_and_cardinal_rows(self, tmp_path, capsys,
                                                                skew_hat_text):
        element = tmp_path / "skew.element"
        element.write_text(skew_hat_text, encoding="utf-8")
        code = main(["verify-element", "--element-file", str(element), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY_FAIL
        verdicts = {line[:38].strip(): line.split()[-1] for line in out.splitlines()[1:-1]}
        assert {name for name, verdict in verdicts.items() if verdict == "FAIL"} == {
            "tensor reflection symmetry", "cardinal interpolation"}
        assert "cardinal VIOLATED, overall FAIL" in out

    def test_large_scaled_element_prints_every_row(self, tmp_path, capsys,
                                                  large_scaled_hat_text):
        # the tensors of this hat miss reflection symmetry by 6.1e-11 in
        # floating point: the symmetry row reads FAIL under its own 1e-12 rule,
        # and the element is reported with all its rows instead of raising
        element = tmp_path / "large.element"
        element.write_text(large_scaled_hat_text, encoding="utf-8")
        code = main(["verify-element", "--element-file", str(element), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY_FAIL
        rows = out.splitlines()[1:-1]
        assert len(rows) == 9
        verdicts = {line[:38].strip(): line.split()[-1] for line in rows}
        assert verdicts["tensor reflection symmetry"] == "FAIL"
        assert verdicts["delta (symbol minimum)"] == "PASS"
        assert "overall FAIL" in out
        (run_dir,) = run_dirs(tmp_path)
        assert (tmp_path / run_dir / "verify_report.txt").read_text(encoding="utf-8") == out

    def test_malformed_element_is_input_error(self, tmp_path, capsys):
        element = tmp_path / "broken.element"
        element.write_text("d = 1\n", encoding="utf-8")
        code = main(["verify-element", "--element-file", str(element), "--out", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_missing_element_choice(self, tmp_path):
        assert main(["verify-element", "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("old, new", [
        ("lo = -1\n", "lo = 1/0\n"),
        ("lo = -1\n", "lo = nan\n"),
        ("poly = 0: 2  1: 2\n", "poly = 0: 2  1: nan\n"),
    ], ids=["zero-denominator", "nan-corner", "nan-coefficient"])
    def test_bad_numbers_are_input_errors(self, tmp_path, capsys, old, new):
        element = tmp_path / "bad.element"
        element.write_text(SCALED_ELEMENT.replace(old, new, 1), encoding="utf-8")
        code = main(["verify-element", "--element-file", str(element), "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("input error: ")
        assert not run_dirs(tmp_path)

    @pytest.mark.parametrize("command, old, new, message", [
        ("verify-element", "lambda = (-1) (0) (1)", "lambda = (-1) (1)",
         "Lambda must contain the zero vector"),
        ("verify-element", "lambda = (-1) (0) (1)", "lambda = (0) (1)",
         "Lambda must be symmetric (Lambda = -Lambda)"),
        ("verify-element", "poly = 0: 2  1: 2\n", "poly = 0: 2  -1: 2\n",
         "negative exponent in polynomial term '-1: 2'"),
        # verify-element reports the mass in its table; a run rejects the element
        ("simulate", "", "", "psi does not integrate to 1: got 2.0"),
    ], ids=["lambda-without-zero", "asymmetric-lambda", "negative-exponent", "mass-not-one"])
    def test_element_rule_violations_are_input_errors(self, tmp_path, capsys, command, old, new,
                                                      message):
        element = tmp_path / "e.element"
        element.write_text(SCALED_ELEMENT.replace(old, new, 1), encoding="utf-8")
        prob = tmp_path / "p.prob"
        prob.write_text(DET_PROBLEM, encoding="utf-8")
        out = tmp_path / "o"
        args = [command, "--element-file", str(element), "--out", str(out)]
        if command == "simulate":
            args += ["--problem", str(prob), "--n", "8", "--T", "0.05", "--steps", "2"]
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("d", ["0", "-2"])
    def test_element_dimension_below_one_is_input_error(self, tmp_path, capsys, d):
        element = tmp_path / "e.element"
        element.write_text(SCALED_ELEMENT.replace("d = 1", f"d = {d}"), encoding="utf-8")
        out = tmp_path / "o"
        code = main(["verify-element", "--element-file", str(element), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "input error: element dimension must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, text, d", [
        ("verify-element", SPLIT_SIMPLEX_ELEMENT, 1),
        ("simulate", SPLIT_SIMPLEX_ELEMENT, 1),
        ("verify-element", SIMPLEX_3D_ELEMENT, 3),
    ], ids=["1d-verify-element", "1d-simulate", "3d-verify-element"])
    def test_simplex_cells_are_2d_only(self, tmp_path, capsys, command, text, d):
        element = tmp_path / "e.element"
        element.write_text(text, encoding="utf-8")
        prob = tmp_path / "p.prob"
        prob.write_text(DET_PROBLEM, encoding="utf-8")
        out = tmp_path / "o"
        args = [command, "--element-file", str(element), "--out", str(out)]
        if command == "simulate":
            args += ["--problem", str(prob), "--n", "8", "--T", "0.05", "--steps", "2"]
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"input error: a simplex cell is a triangle (d = 2), got d = {d}; use type = box\n")
        assert not out.exists()


PLANE_PROBLEM = 'd = 2\na.1.1 = "1"\na.2.2 = "1"\nphi = "sin(x1)*cos(x2)"\n'


class TestSimulate:
    @pytest.mark.parametrize("command, preset, text, dims", [
        ("simulate", "hat1d", PLANE_PROBLEM, (2, 1, 2)),
        ("simulate", "tensor(2)", DET_PROBLEM, (1, 2, 1)),
        ("convergence", "hat1d", PLANE_PROBLEM, (2, 1, 2)),
        ("convergence", "tensor(2)", DET_PROBLEM, (1, 2, 1)),
    ], ids=["simulate-hat1d", "simulate-tensor2", "convergence-hat1d", "convergence-tensor2"])
    def test_element_and_problem_dimensions_must_agree(self, tmp_path, capsys, command,
                                                       preset, text, dims):
        prob = tmp_path / "p.prob"
        prob.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        args = [command, "--preset", preset, "--problem", str(prob), "--n", "8",
                "--T", "0.05", "--steps", "2", "--out", str(out)]
        if command == "convergence":
            args += ["--ladder", "3"]
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: dimension mismatch: problem.d = {}, tensors.d = {}, lattice.d = {}\n"
            .format(*dims))
        assert not out.exists()

    @pytest.mark.parametrize("preset, text, key", [
        ("tensor(2)", PLANE_PROBLEM + 'b.0 = "0.3"\n', "b.0"),
        ("tensor(2)", PLANE_PROBLEM + 'b.3 = "0.3"\n', "b.3"),
        ("hat1d", STOCH_PROBLEM.replace("sigma.1.1", "sigma.0.1"), "sigma.0.1"),
        ("hat1d", "rho_max = 2\n" + STOCH_PROBLEM.replace("g.1", "g.0") + 'g.2 = "0.1"\n', "g.0"),
    ], ids=["b.0", "b.3", "sigma.0.1", "g.0"])
    def test_out_of_range_keys_are_input_errors(self, tmp_path, capsys, preset, text, key):
        prob = tmp_path / "p.prob"
        prob.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", "--preset", preset, "--problem", str(prob), "--n", "8",
                     "--T", "0.05", "--steps", "2", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"input error: key {key!r} is out of range")
        assert not out.exists()

    @pytest.mark.parametrize("element, problem, message", [
        (None, "d = x\n" + DET_PROBLEM, "d must be an integer, got 'x'"),
        (None, "rho_max = two\n" + STOCH_PROBLEM, "rho_max must be an integer, got 'two'"),
        (SCALED_ELEMENT.replace("d = 1", "d = one"), DET_PROBLEM, "d must be an integer, got 'one'"),
    ], ids=["problem-d", "problem-rho_max", "element-d"])
    def test_header_integers_name_their_key(self, tmp_path, capsys, element, problem, message):
        prob = tmp_path / "p.prob"
        prob.write_text(problem, encoding="utf-8")
        out = tmp_path / "o"
        args = ["simulate", "--problem", str(prob), "--n", "8", "--T", "0.05", "--steps", "2",
                "--out", str(out)]
        if element is None:
            args += ["--preset", "hat1d"]
        else:
            (tmp_path / "e.element").write_text(element, encoding="utf-8")
            args += ["--element-file", str(tmp_path / "e.element")]
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not out.exists()

    def test_expression_beyond_dimension_is_input_error(self, tmp_path, capsys):
        prob = tmp_path / "p.prob"
        prob.write_text('d = 1\na.1.1 = "1"\nphi = "x3"\n', encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", "--preset", "hat1d", "--problem", str(prob), "--n", "8",
                     "--T", "0.05", "--steps", "2", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "input error: key 'phi': expression uses x3 but the problem dimension is 1\n")
        assert not out.exists()

    def test_overflowing_literal_is_input_error(self, tmp_path, capsys):
        prob = tmp_path / "p.prob"
        prob.write_text('d = 1\na.1.1 = "1"\nphi = "1e999"\n', encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", "--preset", "hat1d", "--problem", str(prob), "--n", "8",
                     "--T", "0.05", "--steps", "2", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "input error: key 'phi': number literal '1e999' overflows (byte offset 0)\n")
        assert not out.exists()

    @pytest.mark.parametrize("value, offset", [
        ("(" * 400 + "x1" + ")" * 400, MAX_DEPTH),
        ("sin(" * 400 + "x1" + ")" * 400, 4 * MAX_DEPTH),
        ("-" * 2000 + "1", MAX_DEPTH),
        ("1" + "+0*x1" * 1999, 1 + 5 * (MAX_DEPTH - 1)),
    ], ids=["parentheses", "calls", "unary-minus", "long-sum"])
    def test_deep_expression_is_input_error(self, tmp_path, capsys, value, offset):
        prob = tmp_path / "p.prob"
        prob.write_text(f'a.1.1 = "{value}"\nphi = "sin(x1)"\n', encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", "--preset", "hat1d", "--problem", str(prob), "--n", "8",
                     "--T", "0.05", "--steps", "2", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == ("input error: key 'a.1.1': expression nested "
                                           f"deeper than {MAX_DEPTH} levels (byte offset {offset})\n")
        assert not out.exists()

    def test_zero_led_variable_is_input_error(self, tmp_path, capsys):
        prob = tmp_path / "p.prob"
        prob.write_text('a.1.1 = "1 + 0.1*cos(x01)"\nphi = "sin(x1)"\n', encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", "--preset", "hat1d", "--problem", str(prob), "--n", "8",
                     "--T", "0.05", "--steps", "2", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "input error: key 'a.1.1': bad variable 'x01' (byte offset 12)\n")
        assert not out.exists()

    def test_non_ascii_variable_is_input_error(self, tmp_path, capsys):
        prob = tmp_path / "p.prob"
        prob.write_text('a.1.1 = "1 + x²"\nphi = "sin(x1)"\n', encoding="utf-8")
        out = tmp_path / "o"
        assert main(["simulate", "--preset", "hat1d", "--problem", str(prob), "--n", "8",
                     "--T", "0.05", "--steps", "2", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "input error: key 'a.1.1': bad variable 'x²' (byte offset 4)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, text, message", [
        ("simulate", DET_PROBLEM.replace('c = "-0.2"', 'c = "1/0"'), "division by zero"),
        ("convergence", 'a.1.1 = "sqrt(cos(x1))"\nphi = "sin(x1)"\n',
         "sqrt of a negative value"),
    ], ids=["simulate-division", "convergence-sqrt"])
    def test_evaluation_faults_are_input_errors(self, tmp_path, capsys, command, text,
                                                message):
        prob = tmp_path / "p.prob"
        prob.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        args = [command, "--preset", "hat1d", "--problem", str(prob), "--n", "8",
                "--T", "0.05", "--steps", "2", "--out", str(out)]
        if command == "convergence":
            args += ["--ladder", "3"]
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not out.exists()

    def test_zero_data_writes_zero_field(self, tmp_path):
        prob = tmp_path / "zero.prob"
        prob.write_text('a.1.1 = "1"\n', encoding="utf-8")
        code = main([
            "simulate", "--preset", "hat1d", "--problem", str(prob),
            "--n", "8", "--T", "0.1", "--steps", "4", "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_OK
        (run_dir,) = run_dirs(tmp_path / "o")
        lines = (tmp_path / "o" / run_dir / "terminal.csv").read_text().strip().splitlines()
        assert lines[0] == "i1,x1,value"
        assert len(lines) == 9
        assert all(float(line.split(",")[-1]) == 0.0 for line in lines[1:])

    def test_heat_terminal_matches_dense_oracle(self, tmp_path, problem_file):
        out = tmp_path / "o"
        code = main([
            "simulate", "--preset", "hat1d", "--problem", problem_file,
            "--n", "16", "--T", "0.1", "--steps", "32", "--out", str(out),
        ])
        assert code == EXIT_OK
        (run_dir,) = run_dirs(out)
        rows = (out / run_dir / "terminal.csv").read_text().strip().splitlines()[1:]
        got = np.array([float(r.split(",")[-1]) for r in rows])

        # dense oracle recomputed from first principles
        from femspde.assembly import AssembledProblem, mollify_data
        from femspde.elements import build_element
        from femspde.lattice import build_torus
        from femspde.problem import parse_problem_text
        from femspde.tensors import compute_reference_tensors
        from tests.test_assembly import dense_from_stencil

        element = build_element("hat1d")
        tensors = compute_reference_tensors(element)
        lattice = build_torus(1, 2 * np.pi / 16, 16)
        problem = parse_problem_text(DET_PROBLEM)
        ap = AssembledProblem(element, tensors, problem, lattice)
        mass = dense_from_stencil(ap.mass)
        drift = dense_from_stencil(ap.drift(0.0))
        f = mollify_data(problem.f, tensors, lattice).values.ravel()
        dt = 0.1 / 32
        u = np.linalg.solve(mass, ap.phi_h().values.ravel())
        system = mass - dt * drift
        for _ in range(32):
            u = np.linalg.solve(system, mass @ u + dt * f)
        np.testing.assert_allclose(got, u, atol=1e-8)

    def test_replay_is_byte_identical(self, tmp_path, stoch_file):
        out = tmp_path / "o"
        code = main([
            "simulate", "--preset", "hat1d", "--problem", stoch_file,
            "--n", "16", "--T", "0.1", "--steps", "16", "--seed", "321",
            "--record", "all", "--out", str(out),
        ])
        assert code == EXIT_OK
        (first,) = run_dirs(out)
        manifest = out / first / "manifest.json"
        code = main(["replay", str(manifest), "--out", str(out)])
        assert code == EXIT_OK
        dirs = run_dirs(out)
        assert len(dirs) == 2
        for name in ("terminal.csv", "states.csv", "manifest.json"):
            a = (out / dirs[0] / name).read_bytes()
            b = (out / dirs[1] / name).read_bytes()
            assert a == b, f"{name} differs between run and replay"

    def test_csv_outputs_match_per_site_writer(self, tmp_path, monkeypatch):
        # states.csv and terminal.csv equal, byte for byte, a writer that formats
        # one site at a time with numpy's 17-digit scientific formatter
        from femspde import cli

        def fmt(v):
            return np.format_float_scientific(v, precision=16, unique=False, exp_digits=2)

        trajectories = []
        real = cli.integrate

        def capture(*args, **kwargs):
            trajectories.append(real(*args, **kwargs))
            return trajectories[-1]

        monkeypatch.setattr(cli, "integrate", capture)
        prob = tmp_path / "stoch2d.prob"
        prob.write_text('d = 2\na.1.1 = "1"\na.2.2 = "1"\nsigma.1.1 = "0.3"\n'
                        'g.1 = "0.1*cos(x2)"\nphi = "sin(x1)*cos(x2)"\n', encoding="utf-8")
        out = tmp_path / "o"
        code = main([
            "simulate", "--preset", "tensor(2)", "--problem", str(prob), "--n", "8",
            "--T", "0.1", "--steps", "6", "--seed", "5", "--record", "all", "--out", str(out),
        ])
        assert code == EXIT_OK
        (traj,) = trajectories
        (run_dir,) = run_dirs(out)
        states = ["step,time,site,value\n"]
        for k, state in enumerate(traj.states):
            flat = state.values[0].ravel()
            for site in range(flat.size):
                states.append(f"{k},{fmt(traj.times[k])},{site},{fmt(flat[site])}\n")
        assert (out / run_dir / "states.csv").read_bytes() == "".join(states).encode()
        lattice = traj.terminal.lattice
        terminal = ["i1,i2,x1,x2,value\n"]
        for idx, x, v in zip(lattice.multi_indices(), lattice.coords(),
                             traj.terminal.values[0].ravel()):
            terminal.append(",".join([*map(str, idx), *map(fmt, x), fmt(v)]) + "\n")
        assert (out / run_dir / "terminal.csv").read_bytes() == "".join(terminal).encode()

    def test_numerical_failure_exit_code(self, tmp_path):
        prob = tmp_path / "singular.prob"
        # c = 1/dt makes the implicit system exactly singular
        prob.write_text('a.1.1 = "0"\nc = "10"\nphi = "sin(x1)"\n', encoding="utf-8")
        code = main([
            "simulate", "--preset", "hat1d", "--problem", prob.as_posix(),
            "--n", "8", "--T", "1.0", "--steps", "10", "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_NUMERICAL
        assert not (tmp_path / "o").exists()

    def test_stiff_system_is_not_singular(self, tmp_path):
        # on a torus of length 1e-6, dt / h^2 is 3.2e12: the symbol of mass - dt * drift
        # spans 1 (the mean mode) to 1.28e13, which is conditioning, not cancellation
        prob = tmp_path / "heat.prob"
        prob.write_text('a.1.1 = "1"\nphi = "sin(x1)"\n', encoding="utf-8")
        out = tmp_path / "o"
        code = main(["simulate", "--preset", "hat1d", "--problem", str(prob), "--n", "8",
                     "--T", "0.1", "--steps", "2", "--L", "1e-6", "--out", str(out)])
        assert code == EXIT_OK
        (run_dir,) = run_dirs(out)
        values = np.loadtxt(out / run_dir / "terminal.csv", delimiter=",", skiprows=1)
        assert values.shape == (8, 3) and np.all(np.isfinite(values))

    def test_vanishing_mass_symbol_exit_code(self, tmp_path, monkeypatch, capsys):
        # a hat whose mass tensor is R = (1/2, 0, 1/2): its symbol cos(theta)
        # vanishes at theta = pi/2, so U_0 has no solution on n = 8
        import dataclasses

        from femspde import cli

        real = cli.compute_reference_tensors

        def singular_mass(element):
            return dataclasses.replace(real(element), R=np.array([0.5, 0.0, 0.5]))

        monkeypatch.setattr(cli, "compute_reference_tensors", singular_mass)
        prob = tmp_path / "heat.prob"
        prob.write_text('a.1.1 = "1"\nphi = "sin(x1)"\n', encoding="utf-8")
        code = main(["simulate", "--preset", "hat1d", "--problem", str(prob), "--n", "8",
                     "--T", "0.1", "--steps", "4", "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: mass is singular")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("T, steps, message", [
        # U reaches about 1e289 at step 1: finite, but its norm overflows
        ("10", "3", "non-finite state or |U|_0h at step 1"),
        # dt * drift overflows before mass - dt * drift can cancel
        ("1e308", "1", "linear solve failed at step 0: mass - dt * drift overflows at "
                       "dt = 1.000e+308"),
    ], ids=["norm", "system"])
    def test_overflow_is_a_numerical_failure(self, tmp_path, capsys, T, steps, message):
        prob = tmp_path / "growth.prob"
        prob.write_text('a.1.1 = "1"\nphi = "sin(x1)"\nf = "exp(100*t)"\n', encoding="utf-8")
        code = main(["simulate", "--preset", "hat1d", "--problem", str(prob), "--n", "8",
                     "--T", T, "--steps", steps, "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical failure: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_non_finite_initial_state_is_a_numerical_failure(self, tmp_path, capsys):
        # U_0's norm overflows before any step runs, so no step is named
        prob = tmp_path / "huge.prob"
        prob.write_text('d = 1\na.1.1 = "1"\nphi = "1e200*sin(x1)"\n', encoding="utf-8")
        code = main(["simulate", "--preset", "hat1d", "--problem", str(prob), "--n", "8",
                     "--T", "0.1", "--steps", "2", "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical failure: non-finite initial state or |U|_0h\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "convergence"])
    def test_overflowing_step_count_is_an_error(self, tmp_path, problem_file, capsys, command):
        # without --steps, T / dt = 1e308 / (0.5 h^2) overflows
        code = main([command, "--preset", "hat1d", "--problem", problem_file, "--n", "8",
                     "--T", "1e308", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: T = 1e+308 over dt = ") and err.count("\n") == 1
        assert err.endswith(" gives no finite number of steps\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, preset, L, steps, h", [
        # without --steps, dt = 0.5 h^2 overflows; with them, the drift's h^2
        ("simulate", "hat1d", "1e200", None, "1.25e+199"),
        ("convergence", "hat1d", "1e200", None, "3.90625e+197"),
        ("simulate", "hat1d", "1e200", "2", "1.25e+199"),
        ("convergence", "hat1d", "1e200", "2", "3.90625e+197"),
        # h^2 is finite, but the norms' h^3 overflows
        ("simulate", "tensor(3)", "1e110", "2", "1.25e+109"),
    ])
    def test_torus_whose_spacing_powers_overflow_is_an_error(self, tmp_path, capsys, command,
                                                             preset, L, steps, h):
        d = 3 if preset == "tensor(3)" else 1
        prob = tmp_path / "p.prob"
        prob.write_text(f"d = {d}\n" + "".join(f'a.{i}.{i} = "1"\n' for i in range(1, d + 1))
                        + 'phi = "sin(x1)"\n', encoding="utf-8")
        out = tmp_path / "o"
        args = [command, "--preset", preset, "--problem", str(prob), "--n", "8", "--T", "0.1",
                "--L", L, "--out", str(out)]
        assert main(args + (["--steps", steps] if steps else [])) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: mesh size h must be positive, with h^2, 1/h^2 "
                                           f"and h^{d} finite and nonzero, got {h}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, L", [("simulate", "1e-200"), ("convergence", "1e-200"),
                                            ("simulate", "1e-155")])
    def test_torus_whose_spacing_powers_underflow_is_an_error(self, tmp_path, problem_file,
                                                              command, L):
        # h^2 is 0 at L = 1e-200 and 1/h^2 overflows at 1e-155; the run is in an
        # interpreter of its own under -W error, where a RuntimeWarning is a traceback
        out = tmp_path / "o"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c",
             "import sys; from femspde.cli import main; sys.exit(main(sys.argv[1:]))",
             command, "--preset", "hat1d", "--problem", problem_file, "--n", "8", "--T", "0.1",
             "--L", L, "--steps", "2", "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert proc.stderr.startswith("error: mesh size h must be positive, with h^2, ")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_time_dependent_2d_simulate_factors_nothing(self, tmp_path, monkeypatch):
        # one sample and a drift that changes every step: each system serves one
        # solve, so BiCGStab solves it and SuperLU is never called
        import scipy.sparse.linalg

        calls = []
        real = scipy.sparse.linalg.splu

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
        prob = tmp_path / "timedep.prob"
        prob.write_text(TIMEDEP_2D, encoding="utf-8")
        out = tmp_path / "o"
        args = ["simulate", "--preset", "tensor(2)", "--problem", str(prob), "--n", "16",
                "--T", "0.05", "--steps", "5", "--seed", "3", "--out", str(out)]
        assert main(args) == EXIT_OK
        assert calls == []
        # the same run with a kept drift factors its system once
        prob.write_text(TIMEDEP_2D.replace("x1 - t", "x1").replace("sin(t)", "1"),
                        encoding="utf-8")
        assert main(args) == EXIT_OK
        assert calls == [1]

    def test_krylov_outputs_do_not_depend_on_thread_count(self, tmp_path):
        # single-use systems in 2-D run BiCGStab on up to DIRECT_SITE_LIMIT sites;
        # at 64^2 its inner products are short enough that OpenBLAS does not
        # split them across threads, so the outputs are byte-identical
        import subprocess
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        prob = tmp_path / "timedep.prob"
        prob.write_text(TIMEDEP_2D, encoding="utf-8")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"o{threads}"
            env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "femspde.cli", "simulate", "--preset",
                 "tensor(2)", "--problem", str(prob), "--n", "64", "--T", "0.02", "--steps",
                 "20", "--seed", "5", "--record", "all", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
            (run_dir,) = run_dirs(out)
            outputs.append([(out / run_dir / name).read_bytes()
                            for name in ("terminal.csv", "states.csv")])
        assert outputs[0] == outputs[1]

    def test_custom_element_file_matches_preset(self, tmp_path, problem_file):
        hat_text = """\
d = 1
name = handwritten-hat
lambda = (-1) (0) (1)

[cell]
type = box
lo = -1
hi = 0
poly = 0: 1  1: 1

[cell]
type = box
lo = 0
hi = 1
poly = 0: 1  1: -1
"""
        element = tmp_path / "hat.element"
        element.write_text(hat_text, encoding="utf-8")
        terminals = []
        for args in (["--preset", "hat1d"], ["--element-file", str(element)]):
            out = tmp_path / f"o{len(terminals)}"
            code = main([
                "simulate", *args, "--problem", problem_file,
                "--n", "16", "--T", "0.1", "--steps", "8", "--out", str(out),
            ])
            assert code == EXIT_OK
            (run_dir,) = run_dirs(out)
            terminals.append((out / run_dir / "terminal.csv").read_bytes())
        assert terminals[0] == terminals[1]

    def test_missing_problem_file(self, tmp_path):
        code = main([
            "simulate", "--preset", "hat1d", "--problem", str(tmp_path / "nope.prob"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_USAGE

    def test_malformed_problem_file(self, tmp_path):
        prob = tmp_path / "bad.prob"
        prob.write_text('a.1.1 = "1 +"\n', encoding="utf-8")
        code = main([
            "simulate", "--preset", "hat1d", "--problem", str(prob),
            "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "o").exists()

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--does-not-exist"]) == EXIT_USAGE

    @pytest.mark.parametrize("command, option", [
        ("simulate", "--tol"), ("simulate", "--max-iter"), ("convergence", "--tol"),
        ("simulate", "--quad-order"), ("verify-element", "--quad-order"),
        ("verify-element", "--grid"), ("simulate", "--h-sign"),
        ("simulate", "--dt-factor"), ("convergence", "--dt-factor"),
    ])
    def test_fixed_settings_are_not_options(self, tmp_path, stoch_file, capsys,
                                            command, option):
        # the solver tolerance and cap, the Gauss degree, the symbol grid and
        # the time-step rule are constants, and h is the lattice spacing
        args = [command, "--preset", "hat1d", "--out", str(tmp_path / "o"), option, "4"]
        if command != "verify-element":
            args += ["--problem", stoch_file]
        assert main(args) == EXIT_USAGE
        assert option in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestConvergence:
    def test_deterministic_orders_and_reports(self, tmp_path, problem_file, capsys):
        out = tmp_path / "o"
        code = main([
            "convergence", "--preset", "hat1d", "--problem", problem_file,
            "--n", "16", "--ladder", "3", "--ref-n", "256", "--T", "0.25",
            "--jbar", "1", "--ratio", "quarter", "--out", str(out),
        ])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        (run_dir,) = run_dirs(out)
        base = (out / run_dir / "base_report.csv").read_text()
        mixture = (out / run_dir / "mixture_report.csv").read_text()
        base_order = float(base.strip().splitlines()[-1].split(",")[3])
        mix_order = float(mixture.strip().splitlines()[-1].split(",")[3])
        assert 1.85 <= base_order <= 2.3
        assert 3.6 <= mix_order <= 4.5
        assert "mixture fitted order" in printed

    def test_jbar_zero_base_only(self, tmp_path, problem_file):
        out = tmp_path / "o"
        code = main([
            "convergence", "--preset", "hat1d", "--problem", problem_file,
            "--n", "16", "--ladder", "3", "--ref-n", "128", "--T", "0.1",
            "--jbar", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        (run_dir,) = run_dirs(out)
        assert (out / run_dir / "base_report.csv").exists()
        assert not (out / run_dir / "mixture_report.csv").exists()

    def test_same_seed_identical_reports(self, tmp_path, stoch_file):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main([
                "convergence", "--preset", "hat1d", "--problem", stoch_file,
                "--n", "16", "--ladder", "3", "--ref-n", "128", "--T", "0.1",
                "--samples", "1", "--seed", "17", "--out", str(out),
            ])
            assert code == EXIT_OK
            (run_dir,) = run_dirs(out)
            outs.append((out / run_dir / "base_report.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("jbar", [2, 3])
    def test_replay_with_extra_levels_is_byte_identical(self, tmp_path, problem_file, jbar):
        out = tmp_path / "o"
        code = main([
            "convergence", "--preset", "hat1d", "--problem", problem_file,
            "--n", "16", "--ladder", "3", "--ref-n", "128", "--T", "0.1",
            "--jbar", str(jbar), "--out", str(out),
        ])
        assert code == EXIT_OK
        (first,) = run_dirs(out)
        assert (out / first / "mixture_report.csv").exists()
        assert_replay_is_byte_identical(out, out / first / "manifest.json", first)

    def test_exact_reproduction_is_an_error_without_reports(self, tmp_path, capsys):
        # no data: every error is exactly 0, so no order can be fitted
        prob = tmp_path / "exact.prob"
        prob.write_text('a.1.1 = "1"\n', encoding="utf-8")
        out = tmp_path / "o"
        code = main([
            "convergence", "--preset", "hat1d", "--problem", str(prob),
            "--n", "8", "--ladder", "3", "--T", "0.05", "--out", str(out),
        ])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "positive errors" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_coarse_reference_names_the_rule_and_both_sizes(self, tmp_path, problem_file,
                                                             capsys):
        # the ladder 8, 16, 32, 64 needs a reference of at least 2 * 64 sites;
        # 100 is finer than 64 but breaks that rule
        out = tmp_path / "o"
        code = main([
            "convergence", "--preset", "hat1d", "--problem", problem_file,
            "--n", "8", "--ref-n", "100", "--T", "0.05", "--out", str(out),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == ("error: reference mesh needs at least 128 sites per axis "
                       "(twice the finest ladder mesh, 64), got 100\n")
        assert not out.exists()

    def test_svg_written_when_requested(self, tmp_path, problem_file):
        out = tmp_path / "o"
        code = main([
            "convergence", "--preset", "hat1d", "--problem", problem_file,
            "--n", "16", "--ladder", "3", "--ref-n", "128", "--T", "0.1",
            "--svg", "--out", str(out),
        ])
        assert code == EXIT_OK
        (run_dir,) = run_dirs(out)
        svg = (out / run_dir / "convergence.svg").read_bytes()
        assert svg.startswith(b"<?xml")


class TestRunFiles:
    @pytest.mark.parametrize("command, args, names", [
        ("verify-element", ["--preset", "triangle2d"], {"verify_report.txt"}),
        ("simulate", ["--preset", "hat1d", "--n", "16", "--T", "0.1", "--steps", "16",
                      "--seed", "321", "--record", "all"], {"terminal.csv", "states.csv"}),
        ("convergence", ["--preset", "hat1d", "--n", "16", "--ladder", "3", "--ref-n", "128",
                         "--T", "0.1", "--svg"],
         {"base_report.csv", "mixture_report.csv", "convergence.svg"}),
    ], ids=["verify-element", "simulate", "convergence"])
    def test_run_files_are_utf8_with_lf_endings(self, tmp_path, stoch_file, command, args,
                                                names):
        # a run and its replay write exactly these files and manifest.json, each
        # UTF-8 text with LF line endings
        out = tmp_path / "o"
        if command != "verify-element":
            args = args + ["--problem", stoch_file]
        assert main([command, *args, "--out", str(out)]) == EXIT_OK
        (first,) = run_dirs(out)
        second = assert_replay_is_byte_identical(out, out / first / "manifest.json", first)
        for run_dir in (first, second):
            assert set(os.listdir(out / run_dir)) == names | {"manifest.json"}
            for name in names | {"manifest.json"}:
                raw = (out / run_dir / name).read_bytes()
                raw.decode("utf-8")
                assert b"\r" not in raw, name

    @pytest.mark.parametrize("text", [None, '{"femspde_manifest": 1,', ""],
                             ids=["missing", "truncated", "empty"])
    def test_unreadable_manifest_is_an_error(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        if text is not None:
            manifest.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["replay", str(manifest), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read manifest") and err.count("\n") == 1
        assert not out.exists()


def opened_in(path: Path) -> list[str]:
    """The innermost function around each call that opens, reads or writes a
    file in the module at path (None at module level)."""
    calls = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in calls:
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_files_are_opened_only_by_the_run_reader_and_writer():
    # cli._read_text reads every input file and cli._write_run writes every run
    # file; the numerical modules format text and open nothing
    package = Path(femspde.__file__).parent
    opened = {(path.stem, where) for path in package.glob("*.py")
              for where in opened_in(path)}
    assert opened == {("cli", "_read_text"), ("cli", "_write_run")}


class TestManifest:
    def test_manifest_contains_inlined_sources(self, tmp_path, stoch_file):
        out = tmp_path / "o"
        main([
            "simulate", "--preset", "hat1d", "--problem", stoch_file,
            "--n", "8", "--T", "0.05", "--steps", "4", "--out", str(out),
        ])
        (run_dir,) = run_dirs(out)
        doc = json.loads((out / run_dir / "manifest.json").read_text())
        assert doc["femspde_manifest"] == 1
        assert doc["command"] == "simulate"
        assert doc["config"]["problem_text"] == STOCH_PROBLEM
        assert doc["config"]["seed"] == 2024

    def test_manifest_records_environment(self, tmp_path, stoch_file, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "o"
        assert main(["simulate", "--preset", "hat1d", "--problem", stoch_file,
                     "--n", "8", "--T", "0.05", "--steps", "4", "--out", str(out)]) == EXIT_OK
        (run_dir,) = run_dirs(out)
        doc = json.loads((out / run_dir / "manifest.json").read_text())
        assert doc["environment"] == {
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "OMP_NUM_THREADS": "3",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": None,
        }

    @pytest.mark.parametrize("environment", [None, {"python": "3.10.0", "numpy": "1.24.0",
                                                    "OMP_NUM_THREADS": "8"}],
                             ids=["older", "other-runtime"])
    def test_replay_ignores_recorded_environment(self, tmp_path, stoch_file, environment):
        # manifests written before the environment was recorded, and manifests
        # from another runtime, replay to the same bytes; the replay records
        # the environment it runs in
        out = tmp_path / "o"
        assert main(["convergence", "--preset", "hat1d", "--problem", stoch_file,
                     "--n", "8", "--T", "0.05", "--ladder", "3", "--samples", "2",
                     "--out", str(out)]) == EXIT_OK
        (first,) = run_dirs(out)
        doc = json.loads((out / first / "manifest.json").read_text())
        assert "environment" in doc
        if environment is None:
            del doc["environment"]
        else:
            doc["environment"] = environment
        older = tmp_path / "older.json"
        older.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        assert_replay_is_byte_identical(out, older, first)

    def test_env_var_default_output(self, tmp_path, stoch_file, monkeypatch):
        monkeypatch.setenv("FEMSPDE_OUT", str(tmp_path / "from-env"))
        code = main([
            "simulate", "--preset", "hat1d", "--problem", stoch_file,
            "--n", "8", "--T", "0.05", "--steps", "4",
        ])
        assert code == EXIT_OK
        assert run_dirs(tmp_path / "from-env")

    @pytest.mark.parametrize("command, key, value", [
        ("convergence", "ratio", "half"),
        ("simulate", "record", "every"),
        ("simulate", "h_sign", "up"),
        ("simulate", "n", "8"),
        ("simulate", "T", None),
        ("simulate", "steps", 2.5),
        ("simulate", "tol", "small"),
        ("simulate", "tol", 1e-8),
        ("simulate", "max_iter", 50),
        ("simulate", "quad_order", 6),
        ("simulate", "grid", 64),
        ("simulate", "grid", False),
        ("simulate", "dt_factor", 0.0),
        ("simulate", "dt_factor", -1.0),
        ("simulate", "seed", True),
        ("simulate", "preset", 5),
        ("simulate", "element_text", 3),
        ("simulate", "problem_text", ["a.1.1 = 1"]),
        ("convergence", "svg", "no"),
    ])
    def test_replay_rejects_bad_values(self, tmp_path, stoch_file, capsys,
                                       command, key, value):
        out = tmp_path / "o"
        args = [command, "--preset", "hat1d", "--problem", stoch_file,
                "--n", "8", "--T", "0.05", "--steps", "4", "--out", str(out)]
        if command == "convergence":
            args += ["--ladder", "3"]
        assert main(args) == EXIT_OK
        (run_dir,) = run_dirs(out)
        doc = json.loads((out / run_dir / "manifest.json").read_text())
        doc["config"][key] = value
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = main(["replay", str(manifest), "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert len(run_dirs(out)) == 1

    @pytest.mark.parametrize("doc", [[], {"femspde_manifest": 1, "command": "simulate",
                                          "config": []}], ids=["list", "config-list"])
    def test_replay_rejects_non_object_manifests(self, tmp_path, capsys, doc):
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["replay", str(manifest), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "verify-element"])
    def test_older_manifest_replays_byte_identically(self, tmp_path, stoch_file, command):
        # manifests written while the solver tolerance and cap, the Gauss degree,
        # the symbol grid and the time-step constant were options carry them at
        # these values, and the sign of h as either value
        out = tmp_path / "o"
        args = [command, "--preset", "hat1d", "--out", str(out)]
        if command == "simulate":
            args += ["--problem", stoch_file, "--n", "16", "--T", "0.1", "--steps", "16",
                     "--seed", "321", "--record", "all"]
        assert main(args) == EXIT_OK
        (first,) = run_dirs(out)
        doc = json.loads((out / first / "manifest.json").read_text())
        fixed = {"tol", "max_iter", "quad_order", "grid", "h_sign", "dt_factor"}
        assert not fixed & set(doc["config"])
        for h_sign in ("plus", "minus"):
            doc["config"].update(tol=1e-10, max_iter=2000, quad_order=None, grid=0,
                                 h_sign=h_sign, dt_factor=0.5)
            older = tmp_path / f"older-{h_sign}.json"
            older.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                             encoding="utf-8")
            shutil.rmtree(out / assert_replay_is_byte_identical(out, older, first))

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "n", 0),
        ("simulate", "steps", 0),
        ("simulate", "steps", -3),
        ("simulate", "T", 0.0),
        ("simulate", "T", -1.0),
        ("convergence", "samples", 0),
        ("convergence", "samples", -2),
        ("simulate", "rho_max", 0),
        ("simulate", "rho_max", -1),
        ("convergence", "ladder", 2),
        ("convergence", "ladder", 0),
        ("simulate", "T", np.inf),
        ("convergence", "T", np.inf),
        ("simulate", "T", np.nan),
        ("simulate", "L", np.inf),
        ("convergence", "L", np.nan),
    ])
    def test_non_positive_run_sizes_rejected(self, tmp_path, stoch_file, capsys,
                                             command, key, value):
        # from the command line and from a replayed manifest alike: exit 1
        # with an error naming the field, before any run directory exists
        out = tmp_path / "o"
        args = [command, "--preset", "hat1d", "--problem", stoch_file,
                "--n", "8", "--T", "0.05", "--steps", "4", "--out", str(out)]
        if command == "convergence":
            args += ["--ladder", "3"]
        capsys.readouterr()
        assert main(args + ["--" + key.replace("_", "-"), str(value)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not out.exists()

        assert main(args) == EXIT_OK
        (run_dir,) = run_dirs(out)
        doc = json.loads((out / run_dir / "manifest.json").read_text())
        doc["config"][key] = value
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", str(manifest), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert len(run_dirs(out)) == 1

    def test_infinite_T_without_steps_rejected(self, tmp_path, stoch_file, capsys):
        # without --steps the time-step rule would round T / dt = inf to an integer
        out = tmp_path / "o"
        code = main(["simulate", "--preset", "hat1d", "--problem", stoch_file, "--n", "8",
                     "--T", "inf", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: T must be finite and positive, got inf\n"
        assert not out.exists()
