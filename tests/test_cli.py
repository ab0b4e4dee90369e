import json
import os
import shutil
import sys

import numpy as np
import pytest
import scipy

from femspde.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main

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
        from femspde.assembly import AssembledProblem
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
        f = ap.f_h(0.0).values.ravel()
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
