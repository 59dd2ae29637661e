import json
import math
import subprocess
import sys

import numpy as np
import pytest

from hypersimplex.bench import run_bench
from hypersimplex.cli import main
from hypersimplex.trainer import CSV_HEADER, read_records_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProjectCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "project", "--x", "3,1,0.5,-2", "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["y"] == [1.0, 0.75, 0.25, 0.0]
        assert payload["theta"] == 0.25
        assert payload["active"] == [1, 2]
        assert payload["at_one"] == [0]
        assert payload["at_zero"] == [3]

    def test_temperature_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "project", "--x", "3,1,0.5,-2", "--k", "2", "--tau", "2.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["y"] == [1.0, 0.625, 0.375, 0.0]
        assert payload["theta"] == -0.125

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("3\n1\n\n0.5\n-2\n")
        code, out, _ = run_cli(capsys, "project", "--file", str(path), "--k", "2")
        assert code == 0
        assert json.loads(out)["y"] == [1.0, 0.75, 0.25, 0.0]

    def test_hard_topk(self, capsys):
        code, out, _ = run_cli(
            capsys, "project", "--x", "3,1,0.5,-2", "--k", "2", "--hard")
        assert code == 0
        assert json.loads(out) == {"y": [1.0, 1.0, 0.0, 0.0], "k": 2}

    @pytest.mark.parametrize("x", ["1e300,1e300,0", "1e300,-1e300,0"])
    def test_overflowing_scaled_input_exits_2(self, capsys, x):
        code, out, err = run_cli(capsys, "project", "--x", x,
                                 "--k", "1", "--tau", "1e-10")
        assert code == 2
        assert out == ""
        # the check runs before the division, so numpy prints no warning
        assert err == "error: x / tau overflows float64; raise tau or rescale x\n"

    @pytest.mark.parametrize("copies", [2, 3])
    def test_overflowing_running_sums_exit_2(self, capsys, copies):
        # each x / tau is finite at tau = 0.5, their running sums are not
        half_max = repr(float(np.finfo(np.float64).max / 2))
        code, out, err = run_cli(capsys, "project", "--x", f"{half_max}," * copies + "0",
                                 "--k", "1", "--tau", "0.5")
        assert code == 2
        assert out == ""
        assert err == "error: running sums of x / tau overflow float64; raise tau or rescale x\n"

    def test_x_and_file_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("1\n2\n")
        code, _, err = run_cli(capsys, "project", "--x", "1,2",
                               "--file", str(path), "--k", "1")
        assert code == 2
        assert "exactly one of --x or --file" in err
        code, _, err = run_cli(capsys, "project", "--k", "1")
        assert code == 2

    def test_bad_vector_entry(self, capsys):
        code, _, err = run_cli(capsys, "project", "--x", "1,zebra", "--k", "1")
        assert code == 2
        assert "bad vector entry" in err

    def test_non_finite_entry(self, capsys):
        code, _, err = run_cli(capsys, "project", "--x", "nan,1", "--k", "1")
        assert code == 2
        assert "error:" in err

    def test_empty_vector(self, capsys):
        code, _, err = run_cli(capsys, "project", "--x", ",,", "--k", "1")
        assert code == 2
        assert "empty input vector" in err

    def test_out_of_range_k(self, capsys):
        code, _, err = run_cli(capsys, "project", "--x", "1,2,3", "--k", "5")
        assert code == 2
        assert "k must be in" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "project", "--file",
                               str(tmp_path / "nope.txt"), "--k", "1")
        assert code == 2


VERIFY_FAST = ("--num", "20", "--vectors", "150", "--aux", "60")


class TestVerifyCommand:
    def test_healthy_run_passes_every_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", *VERIFY_FAST)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "10/10 checks passed"
        assert sum(line.startswith("PASS") for line in lines) == 10
        assert not any(line.startswith("FAIL") for line in lines)

    def test_corrupted_theta_fails_with_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", *VERIFY_FAST, "--corrupt-theta")
        assert code == 1
        lines = out.strip().splitlines()
        failing = {line.split()[1] for line in lines if line.startswith("FAIL")}
        assert "oracle_agreement" in failing
        assert "feasibility" in failing
        assert lines[-1].endswith("/10 checks passed")
        assert not lines[-1].startswith("10/")

    def test_oracle_dimension_cap(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "13")
        assert code == 2
        assert "capped at n = 12" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("--num", "0", "--vectors", "0", "--aux", "0"),
        ("--num", "0"),
        ("--vectors", "0"),
        ("--aux", "-1"),
        ("--n", "1"),
    ])
    def test_checking_nothing_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--num", "25")
        assert code == 0
        assert "worst relative error" in out

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--num", "10", "--tol", "1e-30")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("--num", "0"),
        ("--num", "-3"),
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--tol", "0"),
        ("--tol=-1e-5",),
    ])
    def test_bad_count_or_tolerance_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "gradcheck", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestBenchCommand:
    def test_csv_and_doubling_lines(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--sizes", "1024,2048",
                               "--reps", "2", "--ops", "project")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "op,n,median_ns"
        data = [line for line in lines if not line.startswith("#")][1:]
        # the project op also reports its sort and theta-solve phases
        assert len(data) == 6
        for line in data:
            op, n, median = line.split(",")
            assert op in ("project", "project_sort", "project_theta_solve")
            assert int(n) in (1024, 2048)
            assert int(median) > 0
        ratios = [line for line in lines if line.startswith("#")]
        assert any(r.startswith("# doubling project n=1024->2048: ")
                   for r in ratios)

    def test_out_file_receives_the_csv(self, capsys, tmp_path):
        path = tmp_path / "bench.csv"
        code, out, _ = run_cli(capsys, "bench", "--sizes", "512,1024",
                               "--reps", "1", "--ops", "pav",
                               "--out", str(path))
        assert code == 0
        content = path.read_text().splitlines()
        assert content[0] == "op,n,median_ns"
        assert len(content) == 3
        assert all(line.startswith("#") for line in out.strip().splitlines())

    def test_default_ops_leave_out_pav(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--sizes", "512,1024", "--reps", "1")
        assert code == 0
        data = [line for line in out.strip().splitlines() if not line.startswith("#")][1:]
        assert {line.split(",")[0] for line in data} == {
            "project", "project_sort", "project_theta_solve", "jvp"}

    def test_unknown_op(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--ops", "matmul")
        assert code == 2
        assert "unknown bench op" in err

    def test_zero_reps_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--sizes", "512", "--reps", "0")
        assert code == 2
        assert "reps must be >= 1" in err
        assert out == ""

    def test_bad_size_exits_2_before_timing(self, capsys):
        # n = 3 is valid and comes first; nothing is timed or printed
        code, out, err = run_cli(capsys, "bench", "--sizes", "3,-4", "--reps", "1")
        assert code == 2
        assert out == ""
        assert err == "error: bench sizes must be integers >= 1, got -4\n"

    @pytest.mark.parametrize("size", [0, -4, 2.5, True])
    def test_run_bench_rejects_bad_size(self, size):
        with pytest.raises(ValueError, match="bench sizes must be integers >= 1"):
            run_bench(sizes=(3, size), reps=1)

    def test_run_bench_times_the_small_n_solve(self):
        # sizes at or below the walk cutoff time the solve project runs there
        rows = run_bench(sizes=(32, 64), reps=1, ops=("project",))
        assert [(r.op, r.n) for r in rows] == [
            (op, n) for n in (32, 64)
            for op in ("project", "project_sort", "project_theta_solve")]

    def test_run_bench_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown bench op 'projct'"):
            run_bench(sizes=(512,), reps=1, ops=("projct",))


def sweep_config(tmp_path, **overrides):
    cfg = {
        "losses": ["ce", "hypersimplex"],
        "batches": [16, 32],
        "seeds": 3,
        "epochs": 2,
        "m_train": 96,
        "m_test": 48,
        "classes": 3,
        "dims": 5,
        "separation": 3.0,
        "out_csv": str(tmp_path / "runs.csv"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestSweepCommand:
    def test_writes_the_full_grid(self, capsys, tmp_path):
        config_path, cfg = sweep_config(tmp_path)
        code, out, _ = run_cli(capsys, "sweep", "--config", str(config_path))
        assert code == 0
        assert f"wrote 12 records to {cfg['out_csv']}" in out
        records = read_records_csv(cfg["out_csv"])
        assert len(records) == 12
        assert {r.loss for r in records} == {"ce", "hypersimplex"}

    def test_out_flag_overrides_config(self, capsys, tmp_path):
        config_path, _ = sweep_config(tmp_path)
        override = tmp_path / "other.csv"
        code, out, _ = run_cli(capsys, "sweep", "--config", str(config_path),
                               "--out", str(override))
        assert code == 0
        assert override.exists()

    def test_unknown_config_key(self, capsys, tmp_path):
        config_path, _ = sweep_config(tmp_path, optimiser="adam")
        code, _, err = run_cli(capsys, "sweep", "--config", str(config_path))
        assert code == 2
        assert "unknown config keys: optimiser" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_non_object_config(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert "must be a JSON object" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--config",
                               str(tmp_path / "none.json"))
        assert code == 2

    @pytest.mark.parametrize("overrides, message", [
        ({"batches": [16, 0]}, "batch_size must lie in [1, 96], got 0"),
        ({"batches": [16, 97]}, "batch_size must lie in [1, 96], got 97"),
        ({"tau": 0}, "tau must be positive and finite"),
        ({"hidden": 0}, "hidden must be an integer >= 1, got 0"),
        ({"dims": 0}, "dims must be an integer >= 1, got 0"),
        ({"epochs": "2"}, "epochs must be an integer >= 1, got '2'"),
        ({"epochs": -1}, "epochs must be an integer >= 1, got -1"),
        ({"classes": 1}, "classes must be an integer >= 2, got 1"),
        ({"lr": "abc"}, "lr must be positive and finite, got 'abc'"),
        ({"lr": math.nan}, "lr must be positive and finite, got nan"),
        ({"batches": [32.9]}, "batches must be integers, got 32.9"),
        ({"seeds": [0.5, 1.7]}, "seeds must be integers, got 0.5"),
        ({"data_seed": "x"}, "data_seed must be an integer >= 0, got 'x'"),
    ])
    def test_bad_grid_exits_2_before_any_cell_trains(
            self, capsys, tmp_path, monkeypatch, overrides, message):
        trained = []
        monkeypatch.setattr("hypersimplex.trainer.train_one",
                            lambda *args, **kwargs: trained.append(args))
        config_path, cfg = sweep_config(tmp_path, **overrides)
        code, out, err = run_cli(capsys, "sweep", "--config", str(config_path))
        assert code == 2
        assert message in err
        assert err.startswith("error: ") and err.count("\n") == 1  # one line
        assert trained == []
        assert out == ""
        assert not (tmp_path / "runs.csv").exists()


def write_report_csv(path, rows):
    lines = [CSV_HEADER]
    for loss, batch, seed, acc in rows:
        lines.append(f"synthetic,{loss},{batch},{seed},1.0,0.1,2,{acc!r},0.5")
    path.write_text("\n".join(lines) + "\n")


class TestReportCommand:
    HEADER = f"{'Batch':>6}  {'CE':>8}  {'HS':>8}  {'Δ':>9}  {'t-stat':>8}  {'p-val':>8}"

    def test_table_shape_and_values(self, capsys, tmp_path):
        path = tmp_path / "runs.csv"
        rows = []
        for batch, ce_accs, hs_accs in (
            (32, (0.1, 0.2, 0.3), (0.2, 0.3, 0.5)),
            (64, (0.5, 0.6, 0.7), (0.5, 0.6, 0.7)),
        ):
            rows += [("ce", batch, s, a) for s, a in enumerate(ce_accs)]
            rows += [("hypersimplex", batch, s, a) for s, a in enumerate(hs_accs)]
        write_report_csv(path, rows)
        code, out, _ = run_cli(capsys, "report", "--csv", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 3
        first = lines[1].split()
        assert first[0] == "32"
        assert float(first[1]) == pytest.approx(0.2)
        assert float(first[2]) == pytest.approx(1 / 3, abs=5e-5)
        assert first[3] == "+0.1333"
        assert float(first[4]) == pytest.approx(4.0)
        assert float(first[5]) == pytest.approx(0.0572, abs=1e-4)
        assert lines[1].endswith(" *")  # significant at 10%

    def test_identical_losses_show_zero_delta_nothing_significant(
            self, capsys, tmp_path):
        path = tmp_path / "runs.csv"
        accs = (0.4, 0.5, 0.6)
        rows = [("ce", 32, s, a) for s, a in enumerate(accs)]
        rows += [("hypersimplex", 32, s, a) for s, a in enumerate(accs)]
        write_report_csv(path, rows)
        code, out, _ = run_cli(capsys, "report", "--csv", str(path))
        assert code == 0
        row = out.splitlines()[1]
        assert "+0.0000" in row
        assert not row.endswith("*")

    def test_other_losses_are_ignored(self, capsys, tmp_path):
        path = tmp_path / "runs.csv"
        rows = [("ce", 32, s, 0.5 + 0.1 * s) for s in range(2)]
        rows += [("hypersimplex", 32, s, 0.6 + 0.1 * s) for s in range(2)]
        rows += [("mse", 32, s, 0.9) for s in range(2)]
        write_report_csv(path, rows)
        code, out, _ = run_cli(capsys, "report", "--csv", str(path))
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_malformed_csv(self, capsys, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("wrong,header\n1,2\n")
        code, _, err = run_cli(capsys, "report", "--csv", str(path))
        assert code == 2
        assert "bad header" in err

    def test_missing_partner_loss(self, capsys, tmp_path):
        path = tmp_path / "runs.csv"
        write_report_csv(path, [("ce", 32, s, 0.5) for s in range(3)])
        code, _, err = run_cli(capsys, "report", "--csv", str(path))
        assert code == 2
        assert "need both ce and hypersimplex" in err

    def test_mismatched_seed_sets(self, capsys, tmp_path):
        path = tmp_path / "runs.csv"
        rows = [("ce", 32, s, 0.5) for s in (0, 1)]
        rows += [("hypersimplex", 32, s, 0.6) for s in (0, 2)]
        write_report_csv(path, rows)
        code, _, err = run_cli(capsys, "report", "--csv", str(path))
        assert code == 2
        assert "seed sets differ" in err

    def test_single_seed_rejected(self, capsys, tmp_path):
        path = tmp_path / "runs.csv"
        write_report_csv(path, [("ce", 32, 0, 0.5), ("hypersimplex", 32, 0, 0.6)])
        code, _, err = run_cli(capsys, "report", "--csv", str(path))
        assert code == 2
        assert "at least 2 seeds" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_accuracy_exits_2(self, capsys, tmp_path, bad):
        path = tmp_path / "runs.csv"
        rows = [("ce", 32, s, a) for s, a in enumerate((0.4, bad, 0.6))]
        rows += [("hypersimplex", 32, s, a) for s, a in enumerate((0.5, 0.5, 0.7))]
        write_report_csv(path, rows)
        code, _, err = run_cli(capsys, "report", "--csv", str(path))
        assert code == 2
        assert err.startswith("error: ") and "finite" in err


class TestDeterminism:
    def test_project_output_is_reproducible(self, capsys):
        runs = [run_cli(capsys, "project", "--x", "0.3,1.9,-0.4,0.8", "--k", "2")
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_verify_output_is_reproducible(self, capsys):
        runs = [run_cli(capsys, "verify", "--num", "10", "--vectors", "80",
                        "--aux", "40", "--seed", "5") for _ in range(2)]
        assert runs[0] == runs[1]

    def test_sweep_csv_is_byte_identical(self, capsys, tmp_path):
        outputs = []
        for name in ("a.csv", "b.csv"):
            config_path, _ = sweep_config(
                tmp_path, batches=[16], seeds=2, epochs=1,
                out_csv=str(tmp_path / name))
            code, _, _ = run_cli(capsys, "sweep", "--config", str(config_path))
            assert code == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hypersimplex", "project",
             "--x", "3,1,0.5,-2", "--k", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["theta"] == 0.25

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hypersimplex", "project",
             "--x", "1,2", "--k", "9"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
