from __future__ import annotations

import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import netctl
from netctl.cli import main
from netctl.graph import parse_edge_list

from .oracles import edge_control_via_line_digraph

STAR = "0 1\n0 2\n"
RECIPROCAL_CHAIN = "0 1\n1 2\n2 1\n2 3\n"
HAND_WRITTEN = (
    b"# hand-written: comments, blank lines, duplicates, sparse and huge ids\n"
    b"\n"
    b"   # an indented comment\n"
    b"10 20\n10 20\n20 10\n10\t30\n30 40   \r\n\n40 10\n"
    b"9223372036854775808 10\n"
    b"18446744073709551616 9223372036854775808\n"
    b"99999999999999999999999 30\n"
    b"007 40\n40 7\n"
)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text(STAR)
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(RECIPROCAL_CHAIN)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def walk_label_rule(obj):
    """Every object carrying an n_d (or m_d) must say what is controlled."""
    if isinstance(obj, dict):
        if any(key in obj for key in ("n_d", "m_d", "n_d_mean", "m_d_mean")):
            assert "controlled" in obj, f"unlabeled fraction in {sorted(obj)}"
        for value in obj.values():
            walk_label_rule(value)
    elif isinstance(obj, list):
        for value in obj:
            walk_label_rule(value)


class TestAnalyze:
    def test_star_report(self, capsys, star_file):
        code, report = run_json(capsys, ["analyze", star_file])
        assert code == 0
        assert report["node_control"]["n_d"] == 0.666667
        assert report["node_control"]["controlled"] == "nodes"
        assert report["edge_control"]["n_d"] == 0.333333
        assert report["edge_control"]["m_d"] == 1.0
        assert report["edge_control"]["controlled"] == "edges"
        assert report["stats"]["density"] == 0.333333
        assert report["input"]["node_count"] == 3

    def test_reports_original_ids(self, capsys, tmp_path):
        path = tmp_path / "sparse_ids.txt"
        path.write_text("10 20\n10 30\n")
        code, report = run_json(capsys, ["analyze", str(path)])
        assert code == 0
        assert report["edge_control"]["driver_nodes"] == [10]
        assert set(report["node_control"]["driver_nodes"]) <= {10, 20, 30}

    def test_duplicate_and_raw_counts(self, capsys, tmp_path):
        path = tmp_path / "dups.txt"
        path.write_text("0 1\n0 1\n1 0\n")
        code, report = run_json(capsys, ["analyze", str(path)])
        assert code == 0
        assert report["input"]["raw_edge_count"] == 3
        assert report["input"]["duplicate_edges_collapsed"] == 1
        assert report["input"]["edge_count"] == 2

    def test_density_conventions_both_reported(self, capsys, chain_file):
        code, report = run_json(capsys, ["analyze", chain_file])
        assert report["stats"]["density"] == pytest.approx(4 / 12, abs=1e-5)
        assert report["stats"]["density_unordered_pairs"] == pytest.approx(
            8 / 12, abs=1e-5
        )

    def test_every_fraction_is_labeled(self, capsys, chain_file):
        _, report = run_json(capsys, ["analyze", chain_file])
        walk_label_rule(report)

    def test_parse_error_exits_2_with_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nnot an edge\n")
        assert main(["analyze", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_self_loop_exits_2(self, capsys, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("3 3\n")
        assert main(["analyze", str(path)]) == 2
        assert "self-loop at node 3" in capsys.readouterr().err

    def test_empty_graph_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# no edges\n")
        assert main(["analyze", str(path)]) == 2

    @pytest.mark.parametrize("content", [
        b"0 1\n1_0 2\n", b"0 1\n+3 4\n", "0 1\n\u0663 4\n".encode(),
        b"0 1\n2 \xff3\n",
    ])
    def test_non_ascii_digit_ids_and_bad_utf8_exit_2_with_line(
            self, capsys, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        assert main(["analyze", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["analyze", "no/such/file.txt"]) == 2

    def test_byte_identical_reruns(self, capsys, star_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", star_file, "--out", str(out1)]) == 0
        assert main(["analyze", star_file, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestGoldenBytes:
    """Digests of generated edge lists and of their ``analyze`` reports,
    taken from the tuple-based implementation this array-backed one
    replaced. A report states the input path, so each runs on a relative
    name inside its own directory."""

    @pytest.mark.parametrize("name, generate_args, input_sha, report_sha", [
        ("er.txt", ["--model", "er", "--n", "1000", "--k", "3", "--seed", "11"],
         "6cf0c1ba8ecc1e2be53cc37dd1c1844b32651056de4f3be1babd1bfc7aa6bb3c",
         "72a10026161c1d6f66b5446b79c9b81af0214acf43248e193d3c98865e772011"),
        ("sf.txt", ["--model", "sf", "--n", "2000", "--k", "2", "--gamma", "2.5",
                    "--seed", "5"],
         "dc4039b26c4d96bf5150f87d62f8556c3c73714f29fe49990bef9565442ddb93",
         "68e5139e0d9003555dc5dc520a51f40da166ebc11b0e4ef6bac408df507cdc9c"),
        ("hand.txt", None,
         "de7f04b4e893aa335c169fb6062d1c010c968015deb67052e5fccaaf93f690ab",
         "79faa5a8d55e0b0e6f90ab48df8737efd4d681314160dfe98b1cc1d5304d6b84"),
    ])
    def test_analyze_report_bytes(self, tmp_path, monkeypatch, name, generate_args,
                                  input_sha, report_sha):
        monkeypatch.chdir(tmp_path)
        if generate_args is None:
            Path(name).write_bytes(HAND_WRITTEN)
        else:
            assert main(["generate", *generate_args, "--out", name]) == 0
        assert sha256_of(name) == input_sha
        assert main(["analyze", name, "--out", "report.json"]) == 0
        assert sha256_of("report.json") == report_sha

    def test_ids_beyond_int64_reported_verbatim(self, capsys, tmp_path):
        path = tmp_path / "hand.txt"
        path.write_bytes(HAND_WRITTEN)
        code, report = run_json(capsys, ["analyze", str(path)])
        assert code == 0
        assert report["node_control"]["driver_nodes"] == [
            18446744073709551616, 99999999999999999999999,
        ]


class TestGenerate:
    def test_edge_count_written(self, tmp_path):
        out = tmp_path / "g.txt"
        code = main([
            "generate", "--model", "er", "--n", "100", "--k", "4",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 400

    def test_zero_degree_emits_header_only(self, tmp_path):
        out = tmp_path / "g.txt"
        main(["generate", "--model", "er", "--n", "10", "--k", "0", "--out", str(out)])
        content = out.read_text()
        assert content.startswith("#")
        assert len(content.splitlines()) == 1

    def test_byte_identical_reruns(self, tmp_path):
        args = ["generate", "--model", "sf", "--n", "50", "--k", "2",
                "--seed", "3", "--gamma", "2.5"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_file_round_trips_through_analyze(self, capsys, tmp_path):
        out = tmp_path / "g.txt"
        main(["generate", "--model", "er", "--n", "30", "--k", "2",
              "--seed", "1", "--out", str(out)])
        code, report = run_json(capsys, ["analyze", str(out)])
        assert code == 0
        assert report["input"]["edge_count"] == 60

    def test_edge_alternate_flag_is_a_bool_above_100_edges(self, capsys, tmp_path):
        out = tmp_path / "g.txt"
        main(["generate", "--model", "er", "--n", "60", "--k", "3",
              "--seed", "1", "--out", str(out)])
        code, report = run_json(capsys, ["analyze", str(out)])
        assert code == 0
        assert report["input"]["edge_count"] > 100
        flag = report["edge_control"]["alternate_matchings"]
        assert isinstance(flag, bool)
        g = parse_edge_list(out.read_text())
        assert flag == edge_control_via_line_digraph(g).alternate_matchings

    def test_infeasible_spec_exits_2(self, capsys):
        assert main(["generate", "--model", "er", "--n", "5", "--k", "5"]) == 2


class TestSweep:
    def sweep(self, tmp_path, extra=()):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--model", "er", "--n", "30", "--k-min", "0",
            "--k-max", "4", "--k-steps", "3", "--replicates", "3",
            "--seed", "5", "--out", str(out), *extra,
        ])
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((tmp_path / "sweep.summary.json").read_text())
        return out, rows, summary

    def test_row_count_and_ordering(self, tmp_path):
        _, rows, summary = self.sweep(tmp_path)
        assert len(rows) == 3 * 3
        assert [float(r["mean_degree"]) for r in rows] == [0, 0, 0, 2, 2, 2, 4, 4, 4]
        assert len(summary) == 3

    def test_zero_degree_endpoints(self, tmp_path):
        _, rows, _ = self.sweep(tmp_path)
        for row in rows[:3]:
            assert float(row["node_n_d"]) == 1.0
            assert float(row["edge_n_d"]) == 0.0
            assert float(row["edge_m_d"]) == 0.0

    def test_summary_is_labeled_and_consistent(self, tmp_path):
        _, rows, summary = self.sweep(tmp_path)
        walk_label_rule(summary)
        k4 = summary[-1]
        values = [float(r["node_n_d"]) for r in rows[6:]]
        assert k4["node_control"]["n_d_mean"] == pytest.approx(
            statistics.fmean(values), abs=1e-5
        )

    def test_parallel_run_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NETCTL_THREADS", "1")
        serial, _, _ = self.sweep(tmp_path)
        serial_bytes = serial.read_bytes()
        monkeypatch.setenv("NETCTL_THREADS", "2")
        parallel_dir = tmp_path / "par"
        parallel_dir.mkdir()
        parallel, _, _ = self.sweep(parallel_dir)
        assert parallel.read_bytes() == serial_bytes

    def test_infeasible_k_exits_2(self, tmp_path):
        code = main([
            "sweep", "--model", "er", "--n", "10", "--k-max", "20",
            "--k-steps", "2", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 2

    def test_bad_thread_env_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NETCTL_THREADS", "lots")
        code = main([
            "sweep", "--model", "er", "--n", "10", "--k-max", "2",
            "--k-steps", "2", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 2

    def test_scale_free_needs_more_drivers_than_uniform(self, tmp_path):
        # hubs concentrate out-edges, which costs node controllability
        means = {}
        for model in ("er", "sf"):
            out = tmp_path / f"{model}.csv"
            assert main([
                "sweep", "--model", model, "--n", "500", "--k-min", "4",
                "--k-max", "4", "--k-steps", "1", "--replicates", "10",
                "--seed", "11", "--out", str(out),
            ]) == 0
            with out.open() as fh:
                rows = list(csv.DictReader(fh))
            means[model] = statistics.fmean(float(r["node_n_d"]) for r in rows)
        assert means["sf"] > means["er"]


class TestVerify:
    def test_star_hub_alone_fails_with_exit_3(self, capsys, star_file):
        code, report = run_json(capsys, ["verify", star_file, "--drivers", "0"])
        assert code == 3
        assert report["full_rank"] is False
        assert report["rank"] == 2

    def test_star_hub_plus_leaf_passes(self, capsys, star_file):
        code, report = run_json(capsys, ["verify", star_file, "--drivers", "0,2"])
        assert code == 0
        assert report["full_rank"] is True

    def test_edge_mode_on_reciprocal_chain(self, capsys, chain_file):
        code, report = run_json(capsys, [
            "verify", chain_file, "--mode", "edge", "--drivers", "0-1,2-3",
        ])
        assert code == 0
        assert report["full_rank"] is True
        assert report["controlled"] == "edges"
        assert report["state_dimension"] == 4

    def test_minimal_comparison(self, capsys, star_file):
        code, report = run_json(capsys, [
            "verify", star_file, "--drivers", "0", "--minimal",
        ])
        assert code == 3
        assert report["minimal"]["size"] == 2

    def test_unknown_driver_exits_2(self, capsys, star_file):
        assert main(["verify", star_file, "--drivers", "9"]) == 2

    def test_unknown_edge_exits_2(self, capsys, chain_file):
        assert main([
            "verify", chain_file, "--mode", "edge", "--drivers", "3-2",
        ]) == 2

    def test_oversize_graph_exits_2_with_guidance(self, capsys, tmp_path):
        big = tmp_path / "big.txt"
        main(["generate", "--model", "er", "--n", "30", "--k", "2",
              "--seed", "0", "--out", str(big)])
        assert main(["verify", str(big), "--drivers", "0"]) == 2
        assert "analyze" in capsys.readouterr().err


class TestSteer:
    def test_star_trajectory(self, capsys, star_file, tmp_path):
        out = tmp_path / "traj.csv"
        code = main([
            "steer", star_file, "--drivers", "0,2", "--xf", "1,2,3",
            "--out", str(out),
        ])
        assert code == 0
        summary = capsys.readouterr().out
        assert "final_state_relative_error=" in summary
        error = float(summary.split("final_state_relative_error=")[1].split()[0])
        assert error < 1e-6
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "x_0", "x_1", "x_2", "u_0", "u_1"]
        assert len(rows) == 402
        final = [float(v) for v in rows[-1][1:4]]
        assert final == pytest.approx([1.0, 2.0, 3.0], abs=1e-5)

    def test_zero_target_zero_energy(self, capsys, star_file, tmp_path):
        out = tmp_path / "traj.csv"
        code = main([
            "steer", star_file, "--drivers", "0,2", "--x0", "zeros",
            "--xf", "0,0,0", "--out", str(out),
        ])
        assert code == 0
        summary = capsys.readouterr().out
        energy = float(summary.split("input_energy=")[1].split()[0])
        assert energy == 0.0

    def test_uncontrollable_drivers_exit_3(self, capsys, star_file):
        assert main(["steer", star_file, "--drivers", "0", "--xf", "1,2,3"]) == 3
        assert "rank" in capsys.readouterr().err

    def test_bad_vector_exits_2(self, capsys, star_file):
        assert main(["steer", star_file, "--drivers", "0,2", "--xf", "1,2"]) == 2

    @pytest.mark.parametrize("flag, vector", [
        ("--xf", "nan,1,1"), ("--xf", "1,inf,1"), ("--x0", "0,0,-inf"),
    ])
    def test_non_finite_vector_exits_2(self, capsys, star_file, tmp_path, flag, vector):
        out = tmp_path / "traj.csv"
        args = ["steer", star_file, "--drivers", "0,2", "--xf", "1,1,1",
                "--out", str(out), flag, vector]
        assert main(args) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


def test_cli_import_does_not_load_scipy():
    src = Path(netctl.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, netctl.cli; sys.exit('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env)
    assert result.returncode == 0, "importing netctl.cli loaded scipy"


def test_analyze_does_not_load_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use: ~30 ms on every CLI start
    src = Path(netctl.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    (tmp_path / "g.txt").write_text(STAR)
    probe = (
        "import sys; from netctl.cli import main; "
        "main(['analyze', 'g.txt', '--out', 'r.json']); "
        "sys.exit('numpy.ma' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path)
    assert result.returncode == 0, "analyze loaded numpy.ma"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "netctl" in capsys.readouterr().out
