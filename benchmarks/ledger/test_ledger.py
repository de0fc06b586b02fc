"""Self-test of the ledger: ``python -m pytest benchmarks/ledger -q``.

Not collected by tier-1 (``testpaths = tests``).  Runs every workload
at ``--scale 0.05`` — numbers at that size mean nothing, the point is
that every name in ``BENCHMARK.json`` comes out exactly once, with a
unit, and that a wrong byte or a missing source tree fails the run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from . import metrics as catalogue
from .compare import spread, verdict
from .harness import LEDGER_DIR, ROOT, RUN_PY
from .workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_py(*args: str, cwd=ROOT, script=RUN_PY) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def git_status() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


@pytest.fixture(scope="module")
def scaled_ledger(tmp_path_factory) -> dict:
    """The whole ledger at 1/20 size, as two halves side by side (the
    numbers are meaningless at this size, so sharing the box is fine)."""
    out_dir = tmp_path_factory.mktemp("ledger")
    before = git_status()
    names = list(WORKLOADS)
    halves = []
    for i, half in enumerate((names[0::2], names[1::2])):
        out = out_dir / f"half{i}.json"
        halves.append((out, subprocess.Popen(
            [sys.executable, str(RUN_PY), "--seed", "0", "--scale", "0.05",
             "--seconds", "0.2", "--workloads", ",".join(half), "--out", str(out)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )))
    ledger: dict = {"workloads": {}}
    for out, process in halves:
        log, _ = process.communicate(timeout=120)
        assert process.returncode == 0, log[-3000:]
        half = json.loads(out.read_text())
        ledger["scale"] = half["scale"]
        ledger["workloads"].update(half["workloads"])
    ledger["git_status"] = (before, git_status())
    return ledger


def test_benchmark_json_lists_the_catalogue():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in BENCHMARK["workloads"])
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == list(catalogue.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == catalogue.per_layer()
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(BENCHMARK["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


def test_every_workload_emits_every_metric_once(scaled_ledger):
    assert scaled_ledger["scale"] == 0.05  # a scaled run says so
    assert set(scaled_ledger["workloads"]) == set(WORKLOADS)
    end_to_end = {name: unit for name, unit, _b, _bound in catalogue.END_TO_END}
    per_layer = {name: unit for name, unit, _b in catalogue.per_layer()}
    for name, entry in scaled_ledger["workloads"].items():
        assert entry["failed_frac"] == 0, (name, entry["problems"])
        assert {m: s["unit"] for m, s in entry["end_to_end"].items()} == end_to_end
        assert all(len(s["values"]) == 1 and s["values"][0] > 0
                   for s in entry["end_to_end"].values()), name
        assert {m: c["unit"] for m, c in entry["per_layer"].items()} == per_layer
        assert (
            entry["per_layer"]["trace.unattributed_frac"]["value"]
            <= catalogue.MAX_UNATTRIBUTED_FRAC
        ), name


def test_each_workload_exercises_its_own_layers(scaled_ledger):
    def layer(workload: str, metric: str) -> float:
        return scaled_ledger["workloads"][workload]["per_layer"][metric]["value"]

    assert layer("sim_prepart_wide", "cloud.maxmin.solve.calls") > 0
    assert layer("sim_prepart_wide", "sim.pure_kernel_tasks_per_s") > 0
    assert layer("svc_wide_pool", "service.core.lease.calls") > 0
    assert layer("svc_wide_pool", "service.journal.records") == 0  # journal off
    assert layer("svc_journal_write", "service.journalfs.append.calls") > 0
    assert layer("svc_journal_write", "service.journal.bytes") > 0
    assert layer("svc_recover", "service.core.recover.records_replayed") > 0
    assert layer("thr_small_tasks", "core.messages.encode.calls") == 0  # no wire
    assert layer("tcp_small_tasks", "core.messages.encode.calls") > 0
    assert layer("tcp_bulk_payload", "codec.checksum.self_s") > 0


def test_wrong_byte_in_a_dataset_file_fails_the_run():
    done = run_py(
        "--workload", "thr_small_tasks", "--scale", "0.05", "--seconds", "0.1",
        "--corrupt-input",
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode != 0
    assert result["correct"] is False
    assert result["failed"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    bare = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(LEDGER_DIR, bare, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_py(
        "--workload", "svc_wide_pool", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=bare / "run.py",
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_a_run_leaves_nothing_behind(scaled_ledger):
    before, after = scaled_ledger["git_status"]
    assert after == before  # all it writes is under build/, which git ignores
    leftovers = [p.name for p in (ROOT / "build" / "ledger").iterdir() if p.is_dir()]
    assert leftovers == []  # every run's scratch directory is gone


def test_compare_rule():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert spread(steady) < 0.03
    spreads = (spread(steady), spread(steady))
    assert verdict(steady, [v * 0.97 for v in steady], spreads, "higher", 0.10) == "ok"
    assert verdict(steady, [v * 0.80 for v in steady], spreads, "higher", 0.10) == "worse"
    assert verdict(steady, [v * 1.20 for v in steady], spreads, "lower", 0.10) == "worse"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    wide = (spread(noisy), spread(noisy))
    assert verdict(noisy, [v * 0.95 for v in noisy], wide, "higher", 0.10) == "unresolved"
    assert verdict(noisy, [v + 200 for v in noisy], wide, "higher", 0.10) == "ok"
