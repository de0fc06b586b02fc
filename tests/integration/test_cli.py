"""Tests for the ``python -m repro`` command line."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def input_dir(tmp_path):
    data = tmp_path / "inputs"
    data.mkdir()
    for i in range(4):
        (data / f"f{i}.txt").write_text(f"hello {i}\n" * (i + 1))
    return str(data)


class TestRunSubcommand:
    def test_basic_run(self, input_dir, capsys):
        code = main(["run", input_dir, "--command", "wc -l $inp1", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tasks=4/4" in out

    def test_pairwise_grouping(self, input_dir, capsys):
        code = main(
            [
                "run", input_dir,
                "--command", "cat $inp1 $inp2 > /dev/null",
                "--grouping", "pairwise_adjacent",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tasks=2/2" in out

    def test_report_written(self, input_dir, tmp_path, capsys):
        report = str(tmp_path / "out.json")
        code = main(
            ["run", input_dir, "--command", "true $inp1", "--report", report]
        )
        assert code == 0
        with open(report) as fh:
            payload = json.load(fh)
        assert payload["tasks"]["completed"] == 4

    def test_timeline_printed(self, input_dir, capsys):
        main(["run", input_dir, "--command", "true $inp1", "--timeline"])
        assert "timeline:" in capsys.readouterr().out

    def test_failing_command_nonzero_exit(self, input_dir, capsys):
        code = main(["run", input_dir, "--command", "false $inp1"])
        assert code == 1
        assert "failed=" in capsys.readouterr().out

    def test_empty_directory_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["run", str(empty), "--command", "true $inp1"]) == 2

    def test_pattern_filter(self, input_dir, capsys):
        code = main(
            ["run", input_dir, "--command", "true $inp1", "--pattern", "f1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tasks=1/1" in out

    def test_tcp_engine(self, input_dir, capsys):
        code = main(
            ["run", input_dir, "--command", "true $inp1", "--engine", "tcp",
             "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tasks=4/4" in out

    def test_strategy_choice(self, input_dir, capsys):
        code = main(
            ["run", input_dir, "--command", "true $inp1",
             "--strategy", "pre_partitioned_remote"]
        )
        assert code == 0
        assert "pre_partitioned_remote" in capsys.readouterr().out


class TestOtherSubcommands:
    def test_strategies_listing(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for kind in ("real_time", "common_data", "pairwise_adjacent"):
            assert kind in out

    def test_advise_transfer_bound(self, capsys):
        assert main(["advise", "--bytes-per-compute-second", "5e6"]) == 0
        assert capsys.readouterr().out.strip() == "real_time"

    def test_advise_uniform_compute_bound(self, capsys):
        assert main(
            ["advise", "--bytes-per-compute-second", "100", "--task-cost-cv", "0.0"]
        ) == 0
        assert capsys.readouterr().out.strip() == "pre_partitioned_remote"
