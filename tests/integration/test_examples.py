"""Smoke tests: every bundled example must run end to end.

Examples are user-facing documentation; a broken example is a broken
deliverable. Each test runs the example's ``main()`` in-process (with
small arguments where supported) and checks it completes.
"""

import os
import runpy
import sys


EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def run_example(name: str, argv: list[str] | None = None) -> None:
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    assert os.path.isfile(path), f"example missing: {path}"
    old_argv = sys.argv
    try:
        sys.argv = [path] + list(argv or [])
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "doc0.txt" in out

    def test_image_analysis_small(self, capsys):
        run_example("image_analysis.py", ["4"])
        out = capsys.readouterr().out
        assert "comparisons" in out
        assert "similar" in out

    def test_blast_pipeline_small(self, capsys):
        run_example("blast_pipeline.py", ["2"])
        out = capsys.readouterr().out
        assert "queries matched the database" in out

    def test_cloud_simulation(self, capsys):
        run_example("cloud_simulation.py")
        out = capsys.readouterr().out
        assert "strategy comparison" in out
        assert "retry extension" in out
        assert "elastic 4->6" in out

    def test_adaptive_strategy(self, capsys):
        run_example("adaptive_strategy.py")
        out = capsys.readouterr().out
        assert "cold start" in out
        assert "history-driven recommendations" in out

    def test_ring_analysis(self, capsys):
        run_example("ring_analysis.py", ["4"])
        out = capsys.readouterr().out
        assert "rings at" in out
        assert "same-sample" in out
