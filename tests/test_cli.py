from __future__ import annotations

import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import netctl
from netctl import cli
from netctl.cli import _json, _load, _worker_count, analysis_report, main
from netctl.graph import DirectedGraph, parse_edge_list
from netctl.matching import has_alternate_maximum_matching, maximum_matching

from .conftest import directed_graphs
from .oracles import (
    analysis_json_reference,
    edge_control_via_line_digraph,
    has_alternate_maximum_matching_reference,
)

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
        pytest.param(b"0 1\n" + b"1" * 5000 + b" 2\n", id="id-over-the-digit-limit"),
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


def report_of(path: str) -> dict:
    parsed, digest = _load(path)
    return analysis_report(parsed, path, digest)


# ids on both sides of 2**63, where the id arrays switch to object dtype
NODE_IDS = st.one_of(
    st.integers(0, 10**6), st.integers(2**63 - 2, 2**63 + 2), st.integers(2**64, 10**30)
)
# file names the report quotes as "path": JSON escapes, non-ASCII text,
# and text shaped like the report's own keys and lists
FILE_NAMES = st.one_of(
    st.sampled_from([
        'q"uote.txt', "back\\slash.txt", "r\u00e9seau \u7f51\u7edc \U0001f310.txt",
        '"driver_nodes": [', '[\n    1,\n    2\n  ]', '"}, "x": {"', "\\u0041\\n",
    ]),
    st.text(
        st.characters(exclude_characters="/\0", exclude_categories=("Cs",)),
        min_size=1, max_size=12,
    ).filter(lambda name: name not in (".", "..")),
)


class TestAnalyzeWriter:
    """The JSON writer formats id arrays straight to text; its bytes must
    equal json.dumps of the same report with the arrays as lists, for
    ``analyze``, ``verify`` and the sweep summary alike."""

    @given(g=directed_graphs(min_nodes=2), data=st.data())
    def test_bytes_equal_reference_encoder(self, g, data):
        assume(g.edge_count)
        ids = data.draw(st.lists(NODE_IDS, min_size=g.node_count,
                                 max_size=g.node_count, unique=True))
        name = data.draw(FILE_NAMES)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in", name)
            os.mkdir(os.path.dirname(path))
            Path(path).write_text("".join(f"{ids[s]} {ids[t]}\n" for s, t in g.edges))
            out = Path(tmp, "report.json")
            assert main(["analyze", path, "--out", str(out)]) == 0
            assert out.read_bytes() == analysis_json_reference(report_of(path)).encode()

    @pytest.mark.parametrize("driver_nodes, driver_edges", [
        (np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.int64)),
        (np.array([7], dtype=np.int64), np.array([[7, 0]], dtype=np.int64)),
        (np.array([2**63, 10**30], dtype=object),
         np.array([[2**63, 5], [10**30, 2**64]], dtype=object)),
    ])
    def test_id_array_shapes_and_dtypes(self, star_file, driver_nodes, driver_edges):
        report = report_of(star_file)
        report["node_control"]["driver_nodes"] = driver_nodes
        report["edge_control"]["driver_nodes"] = driver_nodes
        report["edge_control"]["driver_edges"] = driver_edges
        assert _json(report) + "\n" == analysis_json_reference(report)

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=12,
    ))
    def test_any_value_equals_reference_encoder(self, value):
        assert _json(value) + "\n" == analysis_json_reference(value)

    @pytest.mark.parametrize("argv, written_name", [
        (["verify", "STAR", "--drivers", "0", "--minimal", "--out", "v.json"], "v.json"),
        (["verify", "STAR", "--mode", "edge", "--drivers", "0-1", "--minimal",
          "--out", "v.json"], "v.json"),
        (["sweep", "--model", "er", "--n", "30", "--k-max", "3", "--k-steps", "3",
          "--replicates", "3", "--out", "s.csv"], "s.summary.json"),
    ])
    def test_verify_and_sweep_equal_reference_encoder(
            self, star_file, tmp_path, monkeypatch, argv, written_name):
        # the writer's first call receives the whole report
        written = []

        def spy(obj, pad=""):
            written.append(obj)
            return _json(obj, pad)

        monkeypatch.setattr(cli, "_json", spy)
        monkeypatch.setenv("NETCTL_THREADS", "1")
        monkeypatch.chdir(tmp_path)
        assert main([star_file if a == "STAR" else a for a in argv]) in (0, 3)
        assert Path(written_name).read_text() == analysis_json_reference(written[0])


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestGoldenBytes:
    """Digests of generated edge lists and of their ``analyze`` reports,
    taken from the tuple-based implementation this array-backed one
    replaced. The two generated reports were re-taken when the node
    alternate-matching flag became exact above 100 nodes; each differs
    from the old one in that line only ("unchecked" -> true). A report
    states the input path, so each runs on a relative name inside its
    own directory. The ``verify``, ``steer`` and sweep digests were taken
    before those commands shared the ``analyze`` JSON writer and the
    CSR-built line digraph; the steer run uses 20 steps so that its
    reported final error is RK4 truncation, far above rounding noise."""

    @pytest.mark.parametrize("name, generate_args, input_sha, report_sha", [
        ("er.txt", ["--model", "er", "--n", "1000", "--k", "3", "--seed", "11"],
         "6cf0c1ba8ecc1e2be53cc37dd1c1844b32651056de4f3be1babd1bfc7aa6bb3c",
         "589aaa77943853c044d711099e5cb3a579823f3129c20ff34eb55da53678f79f"),
        ("sf.txt", ["--model", "sf", "--n", "2000", "--k", "2", "--gamma", "2.5",
                    "--seed", "5"],
         "dc4039b26c4d96bf5150f87d62f8556c3c73714f29fe49990bef9565442ddb93",
         "49332728e14a682078a41ce546626d5352e242e8ef89511b345e0e553c0e0fe7"),
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
        # --drivers finds such ids in the input too, in both modes
        code, report = run_json(capsys, [
            "verify", str(path), "--drivers", "18446744073709551616,99999999999999999999999",
        ])
        assert code == 0
        assert report["drivers"] == [18446744073709551616, 99999999999999999999999]
        code, report = run_json(capsys, [
            "verify", str(path), "--mode", "edge",
            "--drivers", "18446744073709551616-9223372036854775808",
        ])
        assert (code, report["rank"]) == (3, 9)
        assert report["drivers"] == ["18446744073709551616-9223372036854775808"]

    @pytest.mark.parametrize("graph, args, code, report_sha", [
        (HAND_WRITTEN, ["--drivers", "18446744073709551616,99999999999999999999999",
                        "--minimal"], 0,
         "43c0f611a753de49261b9198a99042530cde380f6d6b40f62450e71e478b6652"),
        (HAND_WRITTEN, ["--mode", "edge", "--drivers",
                        "18446744073709551616-9223372036854775808,"
                        "99999999999999999999999-30,7-40", "--minimal"], 0,
         "a3d1b9d066ac8b030aa31346a53f835328b7176403e12aabb168e2323036f665"),
        (HAND_WRITTEN, ["--mode", "edge", "--drivers",
                        "18446744073709551616-9223372036854775808"], 3,
         "2a70b68aa4c1a95af52c4d87853f6a021a085fc05b95948fe762106293f17f81"),
        (STAR.encode(), ["--drivers", "0", "--minimal"], 3,
         "5264976c9a2c232528d8b548670cd17354dab21ed72f4919d121e645f9081ca6"),
    ])
    def test_verify_report_bytes(self, tmp_path, graph, args, code, report_sha):
        path = tmp_path / "g.txt"
        path.write_bytes(graph)
        out = tmp_path / "report.json"
        assert main(["verify", str(path), *args, "--out", str(out)]) == code
        assert sha256_of(out) == report_sha

    def test_steer_bytes(self, capsys, chain_file, tmp_path):
        out = tmp_path / "traj.csv"
        assert main([
            "steer", chain_file, "--drivers", "0,2", "--x0", "1,0,-1,0.5",
            "--xf", "1,2,3,4", "--steps", "20", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out == (
            "final_state_relative_error=2.02726e-07 input_energy=503.113 "
            "gramian_condition=104.499\n"
        )
        assert sha256_of(out) == (
            "e1ed545b6c14ad02ef3b88d1f7e718ffc16ef640b09743b8a10103a5140c0311"
        )

    def test_readme_sweep_bytes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--model", "er", "--n", "500", "--k-max", "8", "--k-steps", "5",
            "--replicates", "20", "--seed", "0", "--out", str(out),
        ]) == 0
        assert sha256_of(out) == (
            "1d477974be3dc6f55633f76f5d5d327288cb0b58935d3e41035dc64d4d442a34"
        )
        assert sha256_of(tmp_path / "sweep.summary.json") == (
            "fb75e60f03fa48e7178dc8f20e3f00026b146b13272d5d99121a6fb336bc65d4"
        )


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

    def test_node_alternate_flag_is_a_bool_above_100_nodes(self, capsys, tmp_path):
        out = tmp_path / "g.txt"
        main(["generate", "--model", "er", "--n", "150", "--k", "1",
              "--seed", "1", "--out", str(out)])
        code, report = run_json(capsys, ["analyze", str(out)])
        assert code == 0
        assert report["input"]["node_count"] > 100
        flag = report["node_control"]["alternate_matchings"]
        assert isinstance(flag, bool)
        g = parse_edge_list(out.read_text())
        assert flag is has_alternate_maximum_matching_reference(g, maximum_matching(g))

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

    def test_sweep_skips_the_alternate_check_analyze_runs(
        self, capsys, star_file, tmp_path, monkeypatch
    ):
        def unexpected(b, m):
            raise AssertionError("the sweep never reports alternate_matchings")

        monkeypatch.setenv("NETCTL_THREADS", "1")
        monkeypatch.setattr("netctl.node_control.has_alternate_maximum_matching", unexpected)
        self.sweep(tmp_path)
        calls = []

        def counted(b, m):
            calls.append(m)
            return has_alternate_maximum_matching(b, m)

        monkeypatch.setattr("netctl.node_control.has_alternate_maximum_matching", counted)
        code, report = run_json(capsys, ["analyze", star_file])
        assert code == 0
        assert report["node_control"]["alternate_matchings"] is True
        assert len(calls) == 1

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

    def test_thread_env_is_capped_at_the_cpu_count(self, monkeypatch):
        # no pool starts: the count is read, never used
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        monkeypatch.setenv("NETCTL_THREADS", "5000")
        assert _worker_count(10**6) == 3
        assert _worker_count(2) == 2
        monkeypatch.setenv("NETCTL_THREADS", "0")
        assert _worker_count(10**6) == 1

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

    def test_unknown_driver_exits_2(self, capsys, star_file, tmp_path):
        assert main(["verify", star_file, "--drivers", "9"]) == 2
        # ids held as int64: no id of 2**63 or more is among them, even
        # where a float comparison would round it onto 2**63 - 1
        path = tmp_path / "int64_max.txt"
        path.write_text("9223372036854775807 0\n0 1\n")
        for driver in ("9223372036854775808", "18446744073709551616"):
            assert main(["verify", str(path), "--drivers", driver]) == 2

    def test_unknown_edge_exits_2(self, capsys, chain_file):
        assert main([
            "verify", chain_file, "--mode", "edge", "--drivers", "3-2",
        ]) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--drivers", "\u0660,+2"],
        ["verify", "--mode", "edge", "--drivers", "+0-1"],
        ["verify", "--drivers", "1_0"],
        ["steer", "--drivers", "+0", "--xf", "1,2,3"],
        ["verify", "--drivers", "1" * 5000],  # beyond Python's int-string digit limit
        ["steer", "--drivers", "1" * 5000, "--xf", "1,2,3"],
    ])
    def test_non_ascii_digit_driver_ids_exit_2(self, capsys, star_file, argv):
        assert main([argv[0], star_file, *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_oversize_graph_exits_2_with_guidance(self, capsys, tmp_path):
        big = tmp_path / "big.txt"
        main(["generate", "--model", "er", "--n", "30", "--k", "2",
              "--seed", "0", "--out", str(big)])
        assert main(["verify", str(big), "--drivers", "0"]) == 2
        assert "analyze" in capsys.readouterr().err

    def test_edge_mode_refuses_before_building_edge_space(
        self, capsys, tmp_path, monkeypatch
    ):
        # 6 nodes but 26 edges: edge mode has one state per edge
        pairs = [(i, j) for i in range(6) for j in range(6) if i != j][:26]
        path = tmp_path / "dense.txt"
        path.write_text("".join(f"{i} {j}\n" for i, j in pairs))

        def unexpected(g):
            raise AssertionError("edge space built for an oversize input")

        monkeypatch.setattr("netctl.cli.to_line_digraph", unexpected)
        # nor a tuple of every edge to look the named edges up in
        monkeypatch.setattr(DirectedGraph, "edges", property(unexpected))
        assert main(["verify", str(path), "--mode", "edge", "--drivers", "0-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "limited to 25 states, got 26" in err


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

    def test_overflowing_gramian_exits_3_with_one_line(
        self, capfd, recwarn, star_file, tmp_path
    ):
        # the star's Gramian grows like tf^3 and overflows long before 1e300
        out = tmp_path / "traj.csv"
        args = ["steer", star_file, "--drivers", "0,2", "--xf", "1,2,3",
                "--tf", "1e300", "--out", str(out)]
        assert main(args) == 3
        err = capfd.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "smaller tf" in err
        assert not recwarn.list
        assert not out.exists()

    def test_growing_system_is_advised_a_smaller_tf(self, capsys, tmp_path):
        # e^(At) of the 3-cycle grows: a longer horizon only worsens cond(W)
        path = tmp_path / "cycle.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        args = ["steer", str(path), "--drivers", "0,2", "--xf", "1,2,3", "--tf", "100"]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "condition number" in err
        assert "smaller tf" in err


NON_FINITE = ("nan", "inf", "-inf")


@pytest.mark.parametrize("argv", [
    *(["verify", "STAR", "--drivers", "0,2", f"--tol={v}"] for v in NON_FINITE),
    *(["steer", "STAR", "--drivers", "0,2", "--xf", "1,2,3", f"--tf={v}"]
      for v in NON_FINITE),
    *(["generate", "--model", model, "--n", "10", f"--k={v}"]
      for model in ("er", "sf") for v in NON_FINITE),
    *(["generate", "--model", "sf", "--n", "10", "--k", "1", f"--gamma={v}"]
      for v in NON_FINITE),
    *(["sweep", "--model", "er", "--n", "10", *bounds, "--k-steps", "2",
       "--replicates", "1", "--out", "OUT"]
      for v in NON_FINITE for bounds in ([f"--k-min={v}", "--k-max=2"], [f"--k-max={v}"])),
])
def test_non_finite_numeric_flags_exit_2(capsys, star_file, tmp_path, monkeypatch, argv):
    # a bare "-inf" reads as an option to argparse, hence "--flag=value"
    monkeypatch.setenv("NETCTL_THREADS", "1")
    stand_in = {"STAR": star_file, "OUT": str(tmp_path / "s.csv")}
    argv = [stand_in.get(a, a) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--model", "er", "--n", "5", "--k", "1e308"],
    ["generate", "--model", "er", "--n", "100000000000000000000", "--k", "0"],
    ["verify", "STAR", "--drivers", "0", "--seed=-1"],
    ["steer", "STAR", "--drivers", "0,2", "--xf", "1,2,3", "--seed=-1"],
])
def test_out_of_range_numbers_exit_2_with_one_line(capsys, star_file, argv):
    assert main([star_file if a == "STAR" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["100000001", "3037000500"])
def test_generate_refuses_node_count_above_cap_before_generating(capsys, monkeypatch, n):
    # a graph this size would not fit in memory: refuse it before any allocation
    def must_not_run(spec):
        raise AssertionError(f"generate ran for n = {spec.n}")

    monkeypatch.setattr(cli, "generate", must_not_run)
    assert main(["generate", "--model", "er", "--n", n, "--k", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and n in err


def test_cli_import_does_not_load_scipy():
    src = Path(netctl.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    # importlib.metadata costs ~20 ms per CLI start; the version is a literal
    # statistics and the process pool cost ~40 ms and serve only the sweep
    unwanted = ("scipy", "importlib.metadata", "concurrent.futures.process", "statistics")
    probe = f"import sys, netctl.cli; sys.exit(any(m in sys.modules for m in {unwanted!r}))"
    result = subprocess.run([sys.executable, "-c", probe], env=env)
    assert result.returncode == 0, f"importing netctl.cli loaded one of {unwanted}"


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
