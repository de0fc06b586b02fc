"""Integration tests for the threaded engine (real files, real programs)."""

import os
import threading

import pytest

from repro.core.fault import RetryPolicy
from repro.core.strategies import StrategyKind
from repro.data.partition import PartitionScheme
from repro.errors import ConfigurationError
from repro.runtime.local import ThreadedEngine
from repro.runtime.tcp import TcpEngine


@pytest.fixture
def input_files(tmp_path):
    paths = []
    for i in range(8):
        path = tmp_path / f"in{i}.txt"
        path.write_text(f"contents-{i}\n" * (i + 1))
        paths.append(str(path))
    return paths


class TestBasicExecution:
    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_callable_program_all_strategies(self, input_files, strategy):
        seen = []
        lock = threading.Lock()

        def program(path):
            with lock:
                seen.append(os.path.basename(path))

        engine = ThreadedEngine(num_workers=3)
        outcome = engine.run(input_files, command=program, strategy=strategy)
        assert outcome.tasks_completed == 8
        assert sorted(seen) == sorted(os.path.basename(p) for p in input_files)

    def test_shell_command(self, input_files, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        engine = ThreadedEngine(num_workers=2)
        outcome = engine.run(
            input_files[:4],
            command=f"cp $inp1 {marker_dir}/$$.copy && true",
            strategy=StrategyKind.REAL_TIME,
        )
        assert outcome.tasks_completed == 4

    def test_pairwise_grouping(self, input_files):
        pairs = []
        lock = threading.Lock()

        def program(a, b):
            with lock:
                pairs.append((os.path.basename(a), os.path.basename(b)))

        outcome = ThreadedEngine(num_workers=2).run(
            input_files,
            command=program,
            grouping=PartitionScheme.PAIRWISE_ADJACENT,
        )
        assert outcome.tasks_completed == 4
        assert all(a.replace("in", "")[0] != b for a, b in pairs)

    def test_missing_input_rejected(self):
        with pytest.raises(ConfigurationError):
            ThreadedEngine().run(["/no/such/file"], command=print)

    @pytest.mark.parametrize(
        "kwargs",
        [{"num_workers": 0}, {"command_timeout": 0}, {"command_timeout": -1}],
        ids=["workers=0", "timeout=0", "timeout=-1"],
    )
    @pytest.mark.parametrize("engine_cls", [ThreadedEngine, TcpEngine], ids=lambda c: c.__name__)
    def test_constructor_validation(self, engine_cls, kwargs):
        with pytest.raises(ConfigurationError):
            engine_cls(**kwargs)


class TestDataManagement:
    def test_remote_strategies_copy_to_scratch(self, input_files):
        observed_dirs = set()
        lock = threading.Lock()
        source_dir = os.path.dirname(input_files[0])

        def program(path):
            with lock:
                observed_dirs.add(os.path.dirname(path))

        ThreadedEngine(num_workers=2).run(
            input_files, command=program, strategy=StrategyKind.REAL_TIME
        )
        assert all(d != source_dir for d in observed_dirs)

    def test_local_strategy_uses_original_paths(self, input_files):
        observed = set()
        lock = threading.Lock()

        def program(path):
            with lock:
                observed.add(path)

        ThreadedEngine(num_workers=2).run(
            input_files, command=program, strategy=StrategyKind.PRE_PARTITIONED_LOCAL
        )
        assert observed == set(input_files)

    def test_common_data_replicates_to_all_workers(self, input_files):
        dirs_per_file: dict[str, set] = {}
        lock = threading.Lock()

        def program(path):
            with lock:
                dirs_per_file.setdefault(os.path.basename(path), set()).add(
                    os.path.dirname(path)
                )

        ThreadedEngine(num_workers=2).run(
            input_files[:4], command=program, strategy=StrategyKind.COMMON_DATA
        )
        # Each worker has its own scratch; with 2 workers the 4 tasks
        # land in at most 2 distinct scratch dirs overall.
        all_dirs = set().union(*dirs_per_file.values())
        assert 1 <= len(all_dirs) <= 2

    def test_transfer_time_accounted_for_remote(self, input_files):
        outcome = ThreadedEngine(num_workers=2).run(
            input_files,
            command=lambda p: None,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
        )
        assert outcome.transfer_time >= 0.0
        assert outcome.bytes_transferred > 0


class TestFailureHandling:
    def test_task_error_recorded(self, input_files):
        def flaky(path):
            if path.endswith("in3.txt"):
                raise RuntimeError("bad input")

        outcome = ThreadedEngine(num_workers=2).run(
            input_files, command=flaky, strategy=StrategyKind.REAL_TIME,
            isolate_after=10,
        )
        assert outcome.tasks_failed == 1
        assert outcome.tasks_completed == 7
        failed = [r for r in outcome.task_records if not r.ok]
        assert "bad input" in failed[0].error

    def test_isolation_after_first_error(self, input_files):
        # isolate_after=1: the worker that hits the bad task is cut off;
        # survivors finish the rest.
        def flaky(path):
            if path.endswith("in0.txt"):
                raise RuntimeError("boom")

        outcome = ThreadedEngine(num_workers=2).run(
            input_files, command=flaky, strategy=StrategyKind.REAL_TIME,
            isolate_after=1,
        )
        assert outcome.tasks_failed == 1
        assert outcome.tasks_completed >= 6

    def test_retry_policy_reruns_failed_task(self, input_files):
        attempts = {}
        lock = threading.Lock()

        def flaky_once(path):
            name = os.path.basename(path)
            with lock:
                attempts[name] = attempts.get(name, 0) + 1
                if name == "in2.txt" and attempts[name] == 1:
                    raise RuntimeError("transient")

        outcome = ThreadedEngine(num_workers=2).run(
            input_files,
            command=flaky_once,
            strategy=StrategyKind.REAL_TIME,
            retry_policy=RetryPolicy(max_attempts=3, retry_on_task_error=True),
            isolate_after=10,
        )
        assert outcome.tasks_completed == 8
        assert attempts["in2.txt"] == 2

    def test_failing_shell_command_reports_stderr(self, input_files):
        outcome = ThreadedEngine(num_workers=1).run(
            input_files[:2],
            command="ls /definitely/not/here/$inp1",
            strategy=StrategyKind.REAL_TIME,
            isolate_after=10,
        )
        assert outcome.tasks_failed == 2
        assert any(r.error for r in outcome.task_records)


class TestOutcomeBookkeeping:
    def test_worker_busy_per_worker(self, input_files):
        outcome = ThreadedEngine(num_workers=3).run(
            input_files, command=lambda p: None
        )
        assert set(outcome.worker_busy) == {f"local:{i}" for i in range(3)}

    def test_task_records_sorted_by_start(self, input_files):
        outcome = ThreadedEngine(num_workers=2).run(
            input_files, command=lambda p: None
        )
        starts = [r.start for r in outcome.task_records]
        assert starts == sorted(starts)
