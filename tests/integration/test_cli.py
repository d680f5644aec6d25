"""CLI integration tests (in-process via cli.main, plus a ``serve``
subprocess for signal handling)."""

import io
import os
import re
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.relational import Relation, write_csv

from ..conftest import fleet_workers, repro_shm_segments

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_infer_arguments(self):
        args = build_parser().parse_args(
            ["infer", "a.csv", "b.csv", "--strategy", "L1S"]
        )
        assert args.strategy == "L1S"

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig9"])

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--index-cache-size", "0", "must be a positive integer"),
            ("--max-sessions", "0", "must be a positive integer"),
            ("--session-ttl", "-5", "must be non-negative"),
            ("--lease-ttl", "0", "must be positive"),
            ("--lease-ttl", "nan", "must be a finite number"),
            ("--lease-ttl", "inf", "must be a finite number"),
            ("--port", "70000", "must be between 0 and 65535"),
            ("--port", "-1", "must be between 0 and 65535"),
        ],
    )
    def test_serve_rejects_out_of_range_numbers(
        self, capsys, flag, value, message
    ):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}" in err

    def test_serve_fleet_without_store_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers requires --store" in capsys.readouterr().err

    def test_serve_session_ttl_zero_disables_eviction(self):
        from repro.cli import manager_from_args

        args = build_parser().parse_args(["serve", "--session-ttl", "0"])
        manager = manager_from_args(args)
        try:
            assert manager.ttl_seconds is None
        finally:
            manager.close()


class TestGenerate:
    def test_tpch(self, tmp_path, capsys):
        assert main(
            [
                "generate",
                "tpch",
                "--scale",
                "0.5",
                "--out-dir",
                str(tmp_path),
            ]
        ) == 0
        written = {p.name for p in tmp_path.glob("*.csv")}
        assert "part.csv" in written and "lineitem.csv" in written
        assert "wrote" in capsys.readouterr().out

    def test_synthetic(self, tmp_path, capsys):
        assert main(
            [
                "generate",
                "synthetic",
                "--config",
                "(2,3,8,5)",
                "--out-dir",
                str(tmp_path),
            ]
        ) == 0
        assert (tmp_path / "R.csv").exists()
        assert (tmp_path / "P.csv").exists()

    def test_bad_config(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "generate",
                    "synthetic",
                    "--config",
                    "nonsense",
                    "--out-dir",
                    str(tmp_path),
                ]
            )


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Flight" in out
        assert "questions" in out


class TestInfer:
    def _write_tables(self, tmp_path):
        left = Relation.build(
            "Products",
            ["sku", "cat"],
            [(1, 10), (2, 20)],
        )
        right = Relation.build(
            "Categories",
            ["code", "tax"],
            [(10, 1), (20, 2)],
        )
        left_path = tmp_path / "products.csv"
        right_path = tmp_path / "categories.csv"
        write_csv(left, left_path)
        write_csv(right, right_path)
        return left_path, right_path

    def test_infer_with_scripted_stdin(self, tmp_path, capsys, monkeypatch):
        left_path, right_path = self._write_tables(tmp_path)
        # Answer "yes" when sku/cat matches code positionally, else "no";
        # just feed a deterministic script long enough for any strategy.
        answers = io.StringIO("\n".join(["n"] * 30) + "\n")
        monkeypatch.setattr(
            "builtins.input", lambda prompt="": answers.readline().strip()
        )
        assert main(
            [
                "infer",
                str(left_path),
                str(right_path),
                "--strategy",
                "BU",
                "--infer-types",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Inferred join predicate" in out

    def test_infer_saves_transcript(self, tmp_path, capsys, monkeypatch):
        left_path, right_path = self._write_tables(tmp_path)
        answers = io.StringIO("\n".join(["n"] * 30) + "\n")
        monkeypatch.setattr(
            "builtins.input", lambda prompt="": answers.readline().strip()
        )
        transcript = tmp_path / "session.json"
        assert main(
            [
                "infer",
                str(left_path),
                str(right_path),
                "--strategy",
                "BU",
                "--infer-types",
                "--save-transcript",
                str(transcript),
            ]
        ) == 0
        from repro.core import loads
        from repro.core.session import InferenceResult

        restored = loads(transcript.read_text())
        assert isinstance(restored, InferenceResult)
        assert restored.interactions == len(restored.history)

    def test_infer_max_questions(self, tmp_path, capsys, monkeypatch):
        left_path, right_path = self._write_tables(tmp_path)
        answers = io.StringIO("\n".join(["y"] * 5) + "\n")
        monkeypatch.setattr(
            "builtins.input", lambda prompt="": answers.readline().strip()
        )
        assert main(
            [
                "infer",
                str(left_path),
                str(right_path),
                "--max-questions",
                "1",
                "--infer-types",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "(1 questions asked)" in out

    @pytest.mark.parametrize(
        "strategy,message",
        [
            ("XYZ", "unknown strategy 'XYZ'"),
            ("L0S", "lookahead depth must be >= 1"),
        ],
    )
    def test_infer_rejects_bad_strategy(
        self, tmp_path, capsys, strategy, message
    ):
        left_path, right_path = self._write_tables(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "infer",
                    str(left_path),
                    str(right_path),
                    "--strategy",
                    strategy,
                ]
            )
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --strategy: {message}" in err

    def test_infer_rejects_missing_csv(self, tmp_path, capsys):
        _, right_path = self._write_tables(tmp_path)
        missing = tmp_path / "missing.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["infer", str(missing), str(right_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot read {missing}: No such file or directory" in err


class TestExperimentCommand:
    def test_table1_smoke(self, capsys, monkeypatch):
        """Patch the heavy harness functions for a fast smoke run."""
        import repro.cli as cli_module
        from repro.core import strategy_by_name
        from repro.data import SyntheticConfig

        def fake_experiment(args):
            from repro.experiments import (
                figure7,
                render_figure7,
            )

            cells = figure7(
                configs=(SyntheticConfig(2, 2, 8, 5),),
                goal_sizes=(0,),
                runs=1,
                strategies=[strategy_by_name("BU")],
                seed=0,
            )
            print(render_figure7(cells))
            return 0

        monkeypatch.setattr(cli_module, "_cmd_experiment", fake_experiment)
        assert main(["experiment", "table1"]) == 0
        assert "interactions" in capsys.readouterr().out


class TestServeShutdown:
    def test_sigterm_drains_manager_and_store(self, tmp_path):
        """SIGTERM on a solo server takes SIGINT's shutdown path: exit
        0, every acknowledged answer journaled, and every published
        shared-memory segment unlinked."""
        from repro.service import ServiceClient, SqliteSessionStore

        db = tmp_path / "sessions.db"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        before = repro_shm_segments()
        server = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--port", "0", "--store", str(db),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            # A timer, not a read timeout: reading blocks until the
            # server prints its address (or dies).
            killer = threading.Timer(60, server.kill)
            killer.start()
            port = None
            for line in server.stdout:
                port = re.search(rb"127\.0\.0\.1:(\d+)", line)
                if port:
                    break
            killer.cancel()
            assert port, "server exited before printing its address"
            labels = []
            with ServiceClient("127.0.0.1", int(port.group(1))) as client:
                session_id = client.create_session(
                    workload="synthetic/0", strategy="L2S", seed=3
                )["session_id"]
                for turn in range(4):
                    question = client.next_question(session_id)
                    if question is None:
                        break
                    label = "+-"[turn % 2]
                    client.post_answer(
                        session_id, question["question_id"], label
                    )
                    labels.append(label)
            assert labels
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        stderr = server.stderr.read().decode()
        server.stdout.close()
        server.stderr.close()
        assert server.returncode == 0, stderr
        assert repro_shm_segments() - before == set()
        store = SqliteSessionStore(str(db))
        try:
            stored = store.load(session_id)
        finally:
            store.close()
        assert stored is not None
        assert [label for _, label in stored.payload["labeled"]] == labels


def _serve_until_exit(*argv: str) -> tuple[int, str, list[int]]:
    """Run ``repro serve`` in a process group of its own until it exits;
    returns its exit code, its stderr and the fleet workers it left in
    that group (killed before returning)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )
    try:
        _, stderr = server.communicate(timeout=120)
    finally:
        left = fleet_workers(server.pid)
        try:
            os.killpg(server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.wait()
    return server.returncode, stderr.decode(), left


FLEET = ("--workers", "2")


class TestServeStartupErrors:
    """A server that cannot start says why in one line: no traceback,
    and no fleet worker left behind."""

    @pytest.mark.parametrize("fleet", [False, True], ids=["solo", "fleet"])
    def test_busy_port_exits_1_naming_the_address(self, tmp_path, fleet):
        fleet_args = (*FLEET, "--store", str(tmp_path / "s.db"))
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            code, stderr, left = _serve_until_exit(
                "--port", str(port), *(fleet_args if fleet else ())
            )
        assert code == 1, stderr
        assert "Traceback" not in stderr
        assert f"repro serve: cannot listen on 127.0.0.1:{port}: " in stderr
        assert "address already in use" in stderr
        assert left == []

    @pytest.mark.parametrize("fleet", [False, True], ids=["solo", "fleet"])
    def test_unusable_store_is_a_usage_error_naming_the_path(
        self, tmp_path, fleet
    ):
        store = tmp_path / "missing" / "s.db"
        code, stderr, left = _serve_until_exit(
            "--port", "0", "--store", str(store), *(FLEET if fleet else ())
        )
        assert code == 2, stderr
        assert "Traceback" not in stderr
        assert f"cannot open --store {store}: " in stderr
        assert left == []
