import json
import subprocess
import sys

import numpy as np
import pytest

from framekit import (
    Frame,
    canonical_parseval,
    cli,
    equivalence_chain_frame_to_projection,
    equivalence_chain_projection_to_frame,
    harmonic_frame,
    nearest_equal_norm_parseval,
    paulsen,
    perturb,
    random_equal_norm_parseval,
)
from framekit.serialize import complex_array_to_lists, dump_json, frame_from_dict, frame_to_dict
from framekit.sweep import worker_count


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "framekit", *args], capture_output=True, text=True
    )


@pytest.fixture
def harmonic_file(tmp_path):
    path = tmp_path / "harmonic.json"
    dump_json(frame_to_dict(harmonic_frame(2, 3)), str(path))
    return str(path)


@pytest.fixture
def perturbed_file(tmp_path):
    path = tmp_path / "perturbed.json"
    dump_json(frame_to_dict(perturb(harmonic_frame(2, 5), 0.05, 7)), str(path))
    return str(path)


def test_cli_import_leaves_multiprocessing_unloaded():
    code = "import sys, framekit.cli; print('multiprocessing' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


class TestCheck:
    def test_harmonic_frame_reports_zero_defects(self, harmonic_file):
        res = run_cli("check", harmonic_file)
        assert res.returncode == 0
        assert "M: 2" in res.stdout and "N: 3" in res.stdout
        assert "parseval (tol 1e-08): yes" in res.stdout
        assert "equal norm (tol 1e-08): yes" in res.stdout

    def test_scaled_basis_defect_matches_hand_arithmetic(self, tmp_path):
        path = tmp_path / "scaled.json"
        dump_json(frame_to_dict(Frame(1.1 * np.eye(2))), str(path))
        res = run_cli("check", str(path))
        assert res.returncode == 0
        # S = 1.21 I, so parseval_eps = 0.21
        assert "parseval_eps: 0.21000000000000" in res.stdout

    def test_malformed_json_exits_2_with_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2, "vectors": [[', encoding="utf-8")
        res = run_cli("check", str(path))
        assert res.returncode == 2
        assert "line" in res.stderr

    def test_missing_file_exits_2(self):
        res = run_cli("check", "/nonexistent/frame.json")
        assert res.returncode == 2

    def test_field_error_exits_2_naming_field(self, tmp_path):
        path = tmp_path / "nofield.json"
        path.write_text('{"vectors": [[[1.0, 0.0]]]}', encoding="utf-8")
        res = run_cli("check", str(path))
        assert res.returncode == 2
        assert "dim" in res.stderr

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_overflowing_frame_exits_2_naming_overflow(self, tmp_path, command):
        path = tmp_path / "huge.json"
        vectors = complex_array_to_lists(1e200 * harmonic_frame(3, 7).vectors)
        dump_json({"dim": 3, "vectors": vectors}, str(path))
        res = run_cli(command, str(path))
        assert res.returncode == 2
        assert "frame operator overflows" in res.stderr
        assert "Warning" not in res.stderr


class TestSolve:
    REPORT_KEYS = [
        "M",
        "N",
        "eps",
        "distance",
        "iterations",
        "converged",
        "bound_16eM",
        "ratio_chain4",
        "ratio_chain2",
        "seed",
    ]

    def test_report_schema_and_exit_zero(self, perturbed_file):
        res = run_cli("solve", perturbed_file)
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert list(report.keys()) == self.REPORT_KEYS
        assert report["converged"] is True
        assert report["distance"] <= report["bound_16eM"]
        assert report["seed"] is None

    def test_already_solved_instance(self, harmonic_file):
        res = run_cli("solve", harmonic_file)
        report = json.loads(res.stdout)
        assert report["distance"] <= 1e-12
        assert report["iterations"] <= 1
        assert report["ratio_chain4"] is not None

    def test_parseval_frame_solves_once_for_report_and_chain4(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "parseval.json"
        frame = canonical_parseval(perturb(harmonic_frame(4, 10), 0.05, 3))
        dump_json(frame_to_dict(frame), str(path))
        inst = nearest_equal_norm_parseval(frame)
        expected4 = equivalence_chain_frame_to_projection(inst).ratio
        expected2 = equivalence_chain_projection_to_frame(inst).ratio
        runs = []
        solve = paulsen._newton_solve

        def counting(*args):
            runs.append(args)
            return solve(*args)

        monkeypatch.setattr(paulsen, "_newton_solve", counting)
        assert cli.main(["solve", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        # one run for the report, reused by both chains
        assert len(runs) == 1
        assert report["ratio_chain4"] == expected4
        assert report["ratio_chain2"] == expected2

    def test_zero_vector_parseval_frame_reports_chain2_null(self, tmp_path, capsys):
        # Gram F has a zero on its diagonal, so its diagonal defect is 1 and
        # chain 2 does not apply; the restarted solve still converges.
        path = tmp_path / "zero_vector.json"
        dump_json(frame_to_dict(Frame(np.array([[1, 0], [0, 1], [0, 0]]))), str(path))
        assert cli.main(["solve", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["ratio_chain4"] is not None
        assert report["ratio_chain2"] is None

    def test_tiny_scale_frame_converges(self, tmp_path):
        path = tmp_path / "tiny.json"
        dump_json(frame_to_dict(Frame(1e-7 * harmonic_frame(3, 7).vectors)), str(path))
        res = run_cli("solve", str(path))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["converged"] is True

    def test_stationary_frame_exits_3_at_once(self, tmp_path):
        path = tmp_path / "clumped.json"
        v = np.sqrt(2 / 3) * np.array([[1, 0], [0, 1], [1, 0]], dtype=complex)
        dump_json(frame_to_dict(Frame(v)), str(path))
        res = run_cli("solve", str(path))
        assert res.returncode == 3
        report = json.loads(res.stdout)
        assert report["converged"] is False
        assert report["iterations"] <= 10

    def test_tolerance_below_rounding_exits_3_quickly(self, tmp_path):
        path = tmp_path / "floor.json"
        f = perturb(random_equal_norm_parseval(3, 7, 1), 0.05, 1)
        dump_json(frame_to_dict(f), str(path))
        res = run_cli("solve", str(path), "--tol", "1e-16")
        assert res.returncode == 3
        report = json.loads(res.stdout)
        assert report["converged"] is False
        assert report["iterations"] <= 50

    def test_non_convergence_exits_3(self, perturbed_file):
        res = run_cli("solve", perturbed_file, "--max-iter", "1", "--tol", "1e-14")
        assert res.returncode == 3
        report = json.loads(res.stdout)
        assert report["converged"] is False


class TestSweep:
    def config(self, tmp_path, **overrides):
        cfg = {
            "M_range": [2],
            "N_range": [3, 4],
            "eps_list": [0.05],
            "trials_per_cell": 2,
            "master_seed": 7,
            "tolerance": 1e-10,
            "output_path": str(tmp_path / "out.csv"),
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        dump_json(cfg, str(path))
        return path, cfg

    def test_deterministic_rows(self, tmp_path):
        path, cfg = self.config(tmp_path)
        assert run_cli("sweep", str(path)).returncode == 0
        first = open(cfg["output_path"], "rb").read()
        assert run_cli("sweep", str(path)).returncode == 0
        assert open(cfg["output_path"], "rb").read() == first
        header = first.decode().splitlines()[0]
        assert header == "M,N,eps,seed,converged,iterations,distance,bound_16eM,ratio,chain4,chain2,chain8,naimark_branch"
        assert sum(1 for line in first.decode().splitlines() if not line.startswith("#")) == 1 + 4

    def test_invalid_cell_exits_2(self, tmp_path):
        path, _ = self.config(tmp_path, M_range=[4], N_range=[3])
        res = run_cli("sweep", str(path))
        assert res.returncode == 2
        assert "N >= M" in res.stderr

    def test_boolean_dimension_exits_2(self, tmp_path):
        path, _ = self.config(tmp_path, M_range=[True])
        res = run_cli("sweep", str(path))
        assert res.returncode == 2
        assert "M_range" in res.stderr

    def test_unknown_key_exits_2(self, tmp_path):
        path, _ = self.config(tmp_path, bogus=1)
        assert run_cli("sweep", str(path)).returncode == 2

    def test_unwritable_output_exits_4(self, tmp_path):
        path, _ = self.config(tmp_path, output_path="/nonexistent-dir/out.csv")
        res = run_cli("sweep", str(path))
        assert res.returncode == 4

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        path, _ = self.config(tmp_path)
        assert cli.main(["sweep", str(path), "--jobs", jobs]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--jobs must be at least 1" in out.err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "jobs, n_tasks, cpus, expected",
        [(8, 100, 2, 2), (8, 3, 16, 3), (2, 100, None, 1), (1, 100, 8, 1), (0, 5, 4, 1), (4, 100, 8, 4)],
    )
    def test_worker_count_is_clamped(self, jobs, n_tasks, cpus, expected):
        assert worker_count(jobs, n_tasks, cpus) == expected


class TestVerify:
    def test_small_suite_passes(self):
        res = run_cli("verify", "--suite", "admissible", "--trials", "50")
        assert res.returncode == 0
        assert "[PASS]" in res.stdout
        assert "FAIL" not in res.stdout

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_2(self, capsys, trials):
        assert cli.main(["verify", "--suite", "geometry", "--trials", trials]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "trials must be at least 1" in out.err


class TestNaimark:
    def test_complement_output_is_valid_frame(self, harmonic_file):
        res = run_cli("naimark", harmonic_file)
        assert res.returncode == 0
        comp = frame_from_dict(json.loads(res.stdout))
        assert comp.dim == 1 and comp.n_vectors == 3

    def test_reduce_branch(self, tmp_path):
        path = tmp_path / "wide.json"
        dump_json(frame_to_dict(harmonic_frame(2, 7)), str(path))
        res = run_cli("naimark", str(path), "--reduce")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["branch"] == "complemented"
        assert frame_from_dict(out["frame"]).dim == 5

    def test_check_report(self, harmonic_file):
        res = run_cli("naimark", harmonic_file, "--check")
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["within_bound"] is True

    def test_square_frame_exits_2(self, tmp_path):
        path = tmp_path / "square.json"
        dump_json(frame_to_dict(harmonic_frame(3, 3)), str(path))
        assert run_cli("naimark", str(path)).returncode == 2


class TestAdmissible:
    def test_parseval_query(self, tmp_path):
        path = tmp_path / "q.json"
        dump_json({"a": [1.0, 1.0], "M": 2}, str(path))
        res = run_cli("admissible", str(path))
        assert res.returncode == 0
        assert json.loads(res.stdout) == {"admissible": True, "violated": None}

    def test_spectrum_query_rejection(self, tmp_path):
        path = tmp_path / "q.json"
        dump_json({"a": [1.6, 0.5, 0.5], "M": 2, "lambda": [2.0, 1.0]}, str(path))
        res = run_cli("admissible", str(path))
        assert res.returncode == 0
        verdict = json.loads(res.stdout)
        assert verdict["admissible"] is False
        assert "partial sum" in verdict["violated"]

    def test_bad_query_exits_2(self, tmp_path):
        path = tmp_path / "q.json"
        dump_json({"a": [1.0]}, str(path))
        assert run_cli("admissible", str(path)).returncode == 2
