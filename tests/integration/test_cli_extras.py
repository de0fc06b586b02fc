"""Remaining CLI surface: chunk groupings, plot flag, report output."""

import pytest

from repro.cli import main as frieda_main
from repro.experiments.cli import main as experiments_main


@pytest.fixture
def input_dir(tmp_path):
    data = tmp_path / "in"
    data.mkdir()
    for i in range(6):
        (data / f"f{i}.txt").write_text("x" * (i + 1))
    return str(data)


class TestChunkGroupings:
    def test_round_robin_chunks(self, input_dir, capsys):
        code = frieda_main(
            [
                "run", input_dir,
                "--command", "cat $inp1 $inp2 $inp3 > /dev/null",
                "--grouping", "round_robin_chunks",
                "--chunks", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tasks=2/2" in out

    def test_size_balanced_chunks(self, input_dir, capsys):
        code = frieda_main(
            [
                "run", input_dir,
                "--command", "true $inp1 $inp2",
                "--grouping", "size_balanced_chunks",
                "--chunks", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tasks=3/3" in out


class TestAdvise:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--bytes-per-compute-second", "-5", "--task-cost-cv", "-2"],
            ["--bytes-per-compute-second", "nan"],
        ],
        ids=["negative", "nan"],
    )
    def test_impossible_workload_exits_2(self, argv, capsys):
        code = frieda_main(["advise", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error: " in captured.err and "must be finite and >= 0" in captured.err


class TestExperimentsPlotFlag:
    def test_fig6_plot(self, capsys):
        code = experiments_main(["fig6", "--scale", "0.05", "--plot"])
        out = capsys.readouterr().out
        assert code == 0
        assert "▒" in out and "█" in out  # stacked bars rendered

    def test_fig7_plot(self, capsys):
        code = experiments_main(["fig7", "--scale", "0.05", "--plot"])
        out = capsys.readouterr().out
        assert code == 0
        assert "legend" in out


class TestExperimentsArguments:
    @pytest.mark.parametrize("scale", ["0", "-1", "abc"])
    def test_non_positive_scale_is_a_usage_error(self, scale, capsys):
        with pytest.raises(SystemExit) as exc:
            experiments_main(["table1", "--scale", scale])
        assert exc.value.code == 2
        assert "--scale: must be a number > 0" in capsys.readouterr().err
