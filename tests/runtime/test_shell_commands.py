"""Shell-template commands run the same way on both real engines.

Both engines execute every task through ``execute_command``: a template
is rendered with the task's worker-local paths and run through the
shell; a non-zero exit is a task error with the same accounting.
"""

import os
import shlex

import pytest

from repro.core.framework import Frieda
from repro.runtime.local import ThreadedEngine
from repro.runtime.tcp import TcpEngine


@pytest.fixture
def input_files(tmp_path):
    paths = []
    for i in range(6):
        path = tmp_path / "in" / f"in{i}.dat"
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(bytes([65 + i]) * (100 + i))
        paths.append(str(path))
    return paths


def test_template_run_on_tcp_completes_every_task(input_files, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    outcome = Frieda.tcp(2, run_timeout=60).run(
        input_files, command=f"cp $inp1 {shlex.quote(str(out))}/"
    )
    assert outcome.tasks_completed == len(input_files)
    assert outcome.tasks_failed == 0
    for path in input_files:
        with open(path, "rb") as src, open(out / os.path.basename(path), "rb") as got:
            assert got.read() == src.read()


def test_failing_template_is_accounted_alike_on_both_engines(input_files):
    def conclusion(outcome, prefix):
        isolated = sorted(
            e.detail.removeprefix(prefix)
            for e in outcome.controller_events
            if e.kind == "WORKER_ISOLATED"
        )
        errors = sorted(r.error for r in outcome.task_records if not r.ok)
        return outcome.tasks_failed, outcome.tasks_completed, isolated, errors

    tcp = TcpEngine(num_workers=2, run_timeout=60).run(input_files, command="false")
    local = ThreadedEngine(num_workers=2).run(input_files, command="false")
    assert conclusion(tcp, "tcp:") == conclusion(local, "local:")
    assert conclusion(tcp, "tcp:") == (2, 0, ["0", "1"], ["exit code 1"] * 2)


def test_command_timeout_applies_on_tcp(input_files):
    outcome = TcpEngine(num_workers=1, run_timeout=60, command_timeout=0.05).run(
        input_files[:1], command="sleep 2 # $inp1"
    )
    assert outcome.tasks_failed == 1
    assert outcome.task_records[0].error == "command timed out after 0.05s"
