"""Tests for the repro command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.engines import engine_methods
from repro.graphs.io import read_adjacency_graph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.adj"
    assert main(["gen", str(path), "--kind", "random", "--n", "500",
                 "--m", "2500", "--seed", "1"]) == 0
    return path


class TestGen:
    def test_random(self, tmp_path, capsys):
        out = tmp_path / "r.adj"
        assert main(["gen", str(out), "--n", "100", "--m", "300"]) == 0
        g = read_adjacency_graph(out)
        assert g.num_vertices == 100
        assert g.num_edges == 300
        assert "wrote random graph" in capsys.readouterr().out

    def test_rmat(self, tmp_path):
        out = tmp_path / "r.adj"
        assert main(["gen", str(out), "--kind", "rmat", "--scale", "8",
                     "--m", "600"]) == 0
        assert read_adjacency_graph(out).num_vertices == 256

    @pytest.mark.parametrize("kind", ["grid", "cycle", "path", "star", "complete"])
    def test_structured(self, tmp_path, kind):
        out = tmp_path / f"{kind}.adj"
        assert main(["gen", str(out), "--kind", kind, "--n", "25"]) == 0
        g = read_adjacency_graph(out)
        assert g.num_vertices >= 1

    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a.adj", tmp_path / "b.adj"
        main(["gen", str(a), "--seed", "9", "--n", "50", "--m", "100"])
        main(["gen", str(b), "--seed", "9", "--n", "50", "--m", "100"])
        assert a.read_text() == b.read_text()


class TestInfo:
    def test_stats_printed(self, graph_file, capsys):
        assert main(["info", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "vertices:    500" in out
        assert "edges:       2500" in out
        assert "max degree" in out


class TestMis:
    @pytest.mark.parametrize(
        "method",
        ["sequential", "parallel", "prefix", "rootset", "rootset-vec", "luby"],
    )
    def test_methods(self, graph_file, capsys, method):
        assert main(["mis", str(graph_file), "--method", method]) == 0
        out = capsys.readouterr().out
        assert "MIS size:" in out
        assert f"mis/{method}" in out

    def test_prefix_size_flag(self, graph_file, capsys):
        assert main(["mis", str(graph_file), "--prefix-size", "25"]) == 0
        assert "rounds:      20" in capsys.readouterr().out

    def test_deterministic_across_methods(self, graph_file, capsys):
        main(["mis", str(graph_file), "--method", "sequential", "--seed", "3"])
        a = capsys.readouterr().out.splitlines()[0]
        main(["mis", str(graph_file), "--method", "parallel", "--seed", "3"])
        b = capsys.readouterr().out.splitlines()[0]
        assert a == b  # identical "MIS size" line

    def test_parallel_vec_with_workers(self, graph_file, capsys):
        _assert_parallel_vec_refused("mis", graph_file, capsys)

    def test_backend_flag_rejected_elsewhere(self, graph_file, capsys):
        # --backend is retired: argparse rejects it for every method.
        for method in ("rootset-vec", "prefix"):
            with pytest.raises(SystemExit) as exc:
                main([
                    "mis", str(graph_file), "--method", method,
                    "--backend", "numpy",
                ])
            assert exc.value.code == 2
            assert "--backend" in capsys.readouterr().err


class TestMm:
    @pytest.mark.parametrize(
        "method", ["sequential", "parallel", "prefix", "rootset", "rootset-vec"]
    )
    def test_methods(self, graph_file, capsys, method):
        assert main(["mm", str(graph_file), "--method", method]) == 0
        out = capsys.readouterr().out
        assert "matching size:" in out

    def test_parallel_vec_with_workers(self, graph_file, capsys):
        _assert_parallel_vec_refused("mm", graph_file, capsys)


def _assert_parallel_vec_refused(command, graph_file, capsys):
    """``parallel-vec`` and the ``--workers`` flag of ``repro mis``/``mm``
    are retired: argparse refuses each with exit 2, and names the
    registered methods for the former."""
    problem = "mis" if command == "mis" else "matching"
    for argv, expected in (
        (["--method", "parallel-vec"], "invalid choice: 'parallel-vec'"),
        (["--workers", "2"], "unrecognized arguments: --workers 2"),
        (["--method", "parallel-vec", "--workers", "1"], "invalid choice"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, str(graph_file), "--seed", "5", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert expected in err
        if "parallel-vec" in expected:
            assert all(repr(m) in err for m in engine_methods(problem))


class TestDeps:
    def test_mis_target(self, graph_file, capsys):
        assert main(["deps", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "MIS dependence length:" in out
        assert "longest priority-DAG path:" in out

    def test_mm_target(self, graph_file, capsys):
        assert main(["deps", str(graph_file), "--target", "mm"]) == 0
        assert "MM dependence length:" in capsys.readouterr().out


class TestSweep:
    def test_mis_sweep_table(self, graph_file, capsys):
        assert main(["sweep", str(graph_file), "--points", "4",
                     "--processors", "1,16"]) == 0
        out = capsys.readouterr().out
        assert "prefix" in out and "t(P=16)" in out
        # Includes the full-input row.
        assert "500" in out

    def test_mm_sweep(self, graph_file, capsys):
        assert main(["sweep", str(graph_file), "--target", "mm",
                     "--points", "3"]) == 0
        assert "rounds" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_mis_method_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mis", "g.adj", "--method", "magic"])


class TestFiguresCommand:
    def test_figure3_prints_and_writes(self, graph_file, capsys, tmp_path):
        out_dir = tmp_path / "figs"
        assert main(["figures", str(graph_file), "--which", "3",
                     "--out-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "prefix-based MIS" in out
        assert (out_dir / "fig3-custom.json").exists()
        assert (out_dir / "fig3-custom.txt").exists()
        assert (out_dir / "fig3-custom.svg").read_text().startswith("<svg")

    def test_figure2_panels(self, graph_file, capsys):
        assert main(["figures", str(graph_file), "--which", "2"]) == 0
        out = capsys.readouterr().out
        assert "rounds" in out and "work" in out

    def test_figure4(self, graph_file, capsys):
        assert main(["figures", str(graph_file), "--which", "4",
                     "--label", "random"]) == 0
        assert "serial MM" in capsys.readouterr().out


class TestExitCodeTaxonomy:
    """The documented error→exit-code map (docs/api.md) is load-bearing:
    scripts and CI gate on it, so each class is asserted here both via a
    monkeypatched command and end to end where cheap."""

    @pytest.mark.parametrize(
        "error, code",
        [
            ("InvalidGraphError", 2),
            ("InvalidOrderingError", 2),
            ("EngineError", 2),
            ("BudgetExceededError", 3),
            ("InvariantViolationError", 4),
            ("ServiceError", 5),
            ("QueueFullError", 5),
            ("DeadlineExceededError", 5),
            ("WorkerCrashError", 5),
            ("CircuitOpenError", 5),
            ("GraphFormatError", 6),
        ],
    )
    def test_error_class_maps_to_exit_code(self, monkeypatch, capsys,
                                           error, code):
        from repro import cli, errors

        exc_type = getattr(errors, error)

        def boom(args):
            raise exc_type(f"synthetic {error}")

        monkeypatch.setitem(cli._COMMANDS, "info", boom)
        assert main(["info", "whatever.adj"]) == code
        assert f"synthetic {error}" in capsys.readouterr().err

    def test_budget_exhaustion_end_to_end(self, graph_file, capsys):
        assert main(["mis", str(graph_file), "--budget-steps", "1"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_garbage_graph_file_end_to_end(self, tmp_path, capsys):
        # A file that fails to *parse* is exit 6 (check the file), not
        # exit 2 (check the producing code).
        bad = tmp_path / "bad.adj"
        bad.write_text("this is not a graph\n")
        assert main(["info", str(bad)]) == 6
        assert "error:" in capsys.readouterr().err

    def test_bad_seeds_spec_is_invalid_input(self, graph_file, capsys):
        assert main(["batch", str(graph_file), "--seeds", "nope"]) == 2
        assert "--seeds" in capsys.readouterr().err


@pytest.mark.service
class TestBatchCommand:
    def test_batch_solves_seed_range(self, graph_file, capsys):
        assert main(["batch", str(graph_file), "--seeds", "0:3",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        for s in range(3):
            assert f"seed {s}: size" in out
        assert "3 completed, 0 failed" in out

    def test_batch_matching_json_stats(self, graph_file, capsys):
        import json
        assert main(["batch", str(graph_file), "--target", "mm",
                     "--seeds", "2", "--workers", "2", "--json"]) == 0
        out = capsys.readouterr().out
        stats = json.loads(out[out.index("{"):])
        assert stats["completed"] == 2
        assert stats["failed"] == 0

    def test_batch_matches_front_door_solve(self, graph_file, capsys):
        import repro
        assert main(["batch", str(graph_file), "--seeds", "5:6",
                     "--workers", "1"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        g = read_adjacency_graph(graph_file)
        ref = repro.solve("mis", g, seed=5)
        assert line.startswith(f"seed 5: size {ref.size}")

    def test_batch_file_rejects_retired_backend_option(self, tmp_path, capsys):
        path = tmp_path / "solves.jsonl"
        path.write_text(
            '{"graph": {"n": 3, "edges": [[0, 1]]}}\n'
            '{"graph": {"n": 3, "edges": [[0, 1]]}, '
            '"options": {"backend": "numpy"}}\n'
        )
        assert main(["batch", "--file", str(path), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert ":2:" in err and "backend" in err

    def test_batch_file_lines_equal_reference_dumps(self, tmp_path, capsys):
        import json

        import repro
        from repro.graphs.generators import uniform_random_graph
        from repro.core.options import SolveOptions
        from repro.service import schema

        graph = uniform_random_graph(40, 100, seed=3)
        el = graph.edge_list()
        wire_graph = {"n": 40, "edges": np.stack([el.u, el.v], axis=1).tolist()}
        ranks = np.random.default_rng(3).permutation(40)
        path = tmp_path / "solves.jsonl"
        path.write_text(
            json.dumps({"graph": wire_graph, "ranks": ranks.tolist()}) + "\n"
            + json.dumps({"problem": "mm", "graph": wire_graph, "seed": 7}) + "\n"
        )
        assert main(["batch", "--file", str(path), "--workers", "1"]) == 0
        method = SolveOptions().method
        references = [
            ("mis", repro.maximal_independent_set(graph, ranks, method=method)),
            ("matching", repro.maximal_matching(el, seed=7, method=method)),
        ]
        assert capsys.readouterr().out.splitlines() == [
            json.dumps(schema.encode_result(problem, result),
                       separators=(",", ":"), sort_keys=True)
            for problem, result in references
        ]


@pytest.mark.service
class TestServeCommand:
    def test_serve_clean_storm_survives(self, graph_file, capsys):
        assert main(["serve", str(graph_file), "--requests", "4",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "survived:        4/4 (0 mismatches)" in out

    def test_serve_chaos_storm_stays_bit_identical(self, graph_file, capsys):
        import json
        assert main(["serve", str(graph_file), "--requests", "6",
                     "--workers", "2", "--kill-probability", "0.4",
                     "--max-retries", "8", "--chaos-seed", "5",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mismatches"] == 0
        assert report["worker_crashes"] > 0
        assert report["completed"] == 6


@pytest.mark.service
class TestServeSignals:
    """``repro serve`` must drain and exit 0 on SIGINT/SIGTERM — never a
    traceback (the regression this class pins: Ctrl-C used to kill the
    storm mid-flight and leave worker processes behind)."""

    @staticmethod
    def _spawn(args):
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    def test_storm_sigint_drains_and_exits_zero(self, graph_file):
        import signal
        import time

        proc = self._spawn([
            "serve", str(graph_file), "--requests", "5000", "--workers", "2",
        ])
        try:
            time.sleep(2.5)  # let workers spawn and the storm get going
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert "Traceback" not in err
        assert "interrupted" in out + err

    def test_http_sigterm_drains_and_exits_zero(self, graph_file):
        import json
        import signal
        import time
        import urllib.request

        proc = self._spawn([
            "serve", str(graph_file), "--http", "127.0.0.1:0",
            "--cache-entries", "16", "--workers", "1",
        ])
        try:
            port = None
            deadline = time.time() + 30
            while time.time() < deadline:
                line = proc.stdout.readline()
                if "http://127.0.0.1:" in line:
                    port = int(line.split("http://127.0.0.1:")[1].split()[0])
                    break
            assert port is not None, "gateway never reported its address"
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/solve",
                data=json.dumps({"graph": "g"}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(req, timeout=30) as response:
                assert response.status == 200
                assert response.headers["X-Repro-Cache"] == "hit"
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert "Traceback" not in err
        assert "stopped cleanly" in out + err


class TestHealthAndReapCommands:
    @pytest.fixture(autouse=True)
    def isolated_ledger(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))

    def test_health_empty_inventory(self, capsys):
        assert main(["health"]) == 0
        out = capsys.readouterr().out
        assert "segments:    0 ledgered, 0 orphaned" in out

    def test_health_lists_live_segment(self, capsys):
        from repro.backends import SharedCSR
        from repro.graphs.generators import uniform_random_graph

        shared = SharedCSR.create(uniform_random_graph(40, 90, seed=0))
        try:
            assert main(["health"]) == 0
            out = capsys.readouterr().out
            assert shared.name in out and "live" in out
        finally:
            shared.close()
            shared.unlink()

    def test_health_json(self, capsys):
        import json
        assert main(["health", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"segments": [], "orphaned": 0}

    @pytest.mark.service
    def test_health_probe_reports_running_service(self, capsys):
        assert main(["health", "--probe", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "status:          ok" in out
        assert "1/1 alive" in out

    def test_reap_empty_ledger(self, capsys):
        assert main(["reap"]) == 0
        assert "0 orphaned segment(s)" in capsys.readouterr().out

    def test_reap_json_dry_run(self, capsys):
        import json
        assert main(["reap", "--json", "--dry-run"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dry_run"] is True
        assert report["reaped"] == []

    def test_reap_keeps_live_owner(self, capsys):
        from repro.backends import SharedCSR
        from repro.graphs.generators import uniform_random_graph

        shared = SharedCSR.create(uniform_random_graph(40, 90, seed=1))
        try:
            assert main(["reap"]) == 0
            out = capsys.readouterr().out
            assert "1 owner record(s), 1 live" in out
        finally:
            shared.close()
            shared.unlink()


class TestCompareCommand:
    def _write_figures(self, graph_file, out_dir):
        main(["figures", str(graph_file), "--which", "3",
              "--out-dir", str(out_dir)])

    def test_identical_files_exit_zero(self, graph_file, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        self._write_figures(graph_file, out_dir)
        capsys.readouterr()
        code = main(["compare", str(out_dir / "fig3-custom.json"),
                     str(out_dir / "fig3-custom.json")])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_drift_exits_nonzero(self, graph_file, tmp_path, capsys):
        import json
        out_dir = tmp_path / "figs"
        self._write_figures(graph_file, out_dir)
        base = out_dir / "fig3-custom.json"
        data = json.loads(base.read_text())
        name = next(iter(data["series"]))
        data["series"][name]["y"][0] *= 10
        cand = tmp_path / "drift.json"
        cand.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["compare", str(base), str(cand)]) == 1
        assert "DRIFT" in capsys.readouterr().out


@pytest.mark.sessions
class TestSessionSnapshotFile:
    """``session run --snapshot-out`` writes a JSON file that
    ``session restore`` revives at the same version and answer size."""

    @pytest.mark.parametrize("target", ["mis", "mm"])
    def test_snapshot_out_then_restore_verify(self, graph_file, tmp_path,
                                              capsys, target):
        import json
        import re

        snap_path = tmp_path / "snap.json"
        assert main(["session", "run", str(graph_file), "--target", target,
                     "--batches", "3", "--workers", "1", "--verify",
                     "--snapshot-out", str(snap_path)]) == 0
        out = capsys.readouterr().out
        size = int(re.search(r"verify: +OK \(.*size (\d+)\)", out).group(1))
        snap = json.loads(snap_path.read_text())
        assert snap["version"] == 3
        assert f"(version {snap['version']})" in out

        assert main(["session", "restore", str(snap_path), "--workers", "1",
                     "--verify", "--json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["verified"] is True
        assert body["version"] == snap["version"]
        assert body["size"] == size
