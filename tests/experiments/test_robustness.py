"""Tests for the robustness extension experiment."""

from pathlib import Path

import pytest

from repro.experiments.robustness import (
    render_robustness,
    run_robustness,
    shapes_hold,
)
from repro.util.tables import render_table


@pytest.fixture(scope="module")
def cells():
    return run_robustness(0.05, mttfs=(500.0, 5_000.0), seed=1)


class TestRobustnessSweep:
    def test_all_cells_present(self, cells):
        assert len(cells) == 4  # 2 MTTFs x 2 policies

    def test_shapes_hold(self, cells):
        assert shapes_hold(cells)

    def test_retry_dominates_isolation(self, cells):
        for mttf in (500.0, 5_000.0):
            paper = next(
                c for c in cells if c.mttf == mttf and c.policy == "paper_isolation"
            )
            retry = next(
                c for c in cells if c.mttf == mttf and c.policy == "retry_extension"
            )
            assert retry.completion_rate >= paper.completion_rate

    def test_high_failure_rate_loses_tasks_without_retry(self, cells):
        worst = next(
            c for c in cells if c.mttf == 500.0 and c.policy == "paper_isolation"
        )
        assert worst.outcome.tasks_lost > 0

    def test_render(self, cells):
        text = render_table(render_robustness(cells, 0.05))
        assert "paper_isolation" in text
        assert "retry_extension" in text

    def test_accounting_balances(self, cells):
        for cell in cells:
            outcome = cell.outcome
            assert (
                outcome.tasks_completed + outcome.tasks_lost + outcome.tasks_failed
                <= outcome.tasks_total
            )


@pytest.fixture(scope="module")
def chaos_cells():
    from repro.experiments.robustness import run_chaos_sweep

    return run_chaos_sweep(0.05, seed=0)


class TestChaosSweep:
    def test_grid_complete(self, chaos_cells):
        assert len(chaos_cells) == 4  # 2 MTTFs x 1 link MTBF x 2 policies

    def test_shapes_hold(self, chaos_cells):
        from repro.experiments.robustness import chaos_shapes_hold

        assert chaos_shapes_hold(chaos_cells)

    def test_resilient_completes_everything(self, chaos_cells):
        for cell in chaos_cells:
            if cell.policy == "resilient":
                assert cell.completion_rate == 1.0

    def test_paper_faithful_documents_losses(self, chaos_cells):
        losses = sum(
            c.outcome.tasks_lost + c.outcome.tasks_failed
            for c in chaos_cells
            if c.policy == "paper_faithful"
        )
        assert losses > 0
        failures = sum(
            c.outcome.extra["transfer_failures"]
            for c in chaos_cells
            if c.policy == "paper_faithful"
        )
        assert failures > 0

    def test_digest_reproducible(self, chaos_cells):
        from repro.experiments.robustness import chaos_digest, run_chaos_sweep

        again = run_chaos_sweep(0.05, seed=0)
        assert chaos_digest(chaos_cells) == chaos_digest(again)

    def test_digest_pinned(self, chaos_cells):
        # The digest line `make chaos` prints, pinned: refactors that
        # claim the chaos sweep byte-equal are checked against it.
        from repro.experiments.robustness import chaos_digest

        pinned = (Path(__file__).parent / "chaos_digest.txt").read_text().strip()
        assert f"chaos digest: {chaos_digest(chaos_cells)}" == pinned

    def test_digest_sensitive_to_seed(self, chaos_cells):
        from repro.experiments.robustness import chaos_digest, run_chaos_sweep

        other = run_chaos_sweep(0.05, seed=1)
        assert chaos_digest(chaos_cells) != chaos_digest(other)

    def test_render(self, chaos_cells):
        from repro.experiments.robustness import render_chaos

        text = render_table(render_chaos(chaos_cells, 0.05))
        assert "paper_faithful" in text
        assert "resilient" in text

    def test_cli_chaos_subcommand(self, capsys):
        from repro.experiments.cli import main

        assert main(["chaos", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "chaos digest: " in out
