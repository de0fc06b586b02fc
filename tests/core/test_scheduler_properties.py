"""Property-based tests for scheduler invariants.

Under any interleaving of requests/successes/errors/losses/rescinds:

- a task id is never completed twice,
- completed + failed + lost + in-flight + queued == total, exactly
  (every task has at most one in-flight copy),
- a rescind rolls the task's attempt count back by one,
- with no failures every task completes exactly once (work
  conservation),
- pull mode never hands out more than `total` assignments when
  retries are off.
"""

from hypothesis import given, settings, strategies as st

from repro.core.fault import FaultTracker, RetryPolicy
from repro.core.scheduler import MasterScheduler
from repro.core.strategies import StrategyKind, strategy_for
from repro.data.files import synthetic_dataset
from repro.data.partition import PartitionScheme, generate_groups


def build(n_files, strategy, workers, retry=None, isolate_after=1):
    groups = generate_groups(synthetic_dataset("d", n_files, 10), PartitionScheme.SINGLE)
    sched = MasterScheduler(
        groups,
        strategy_for(strategy),
        retry_policy=retry,
        fault_tracker=FaultTracker(isolate_after=isolate_after),
    )
    for w in workers:
        sched.register_worker(w)
    sched.partition_among()
    return sched


@given(
    st.integers(0, 30),
    st.sampled_from([StrategyKind.REAL_TIME, StrategyKind.PRE_PARTITIONED_REMOTE]),
    st.integers(1, 5),
)
@settings(max_examples=60)
def test_work_conservation_no_failures(n_files, strategy, n_workers):
    workers = [f"w{i}" for i in range(n_workers)]
    sched = build(n_files, strategy, workers)
    completed = []
    progressed = True
    while progressed:
        progressed = False
        for wid in workers:
            assignment = sched.next_for(wid)
            if assignment is not None:
                sched.report_success(wid, assignment.task_id)
                completed.append(assignment.task_id)
                progressed = True
    assert sched.done
    assert sorted(completed) == list(range(n_files))


@given(
    st.integers(1, 25),
    st.sampled_from([StrategyKind.REAL_TIME, StrategyKind.PRE_PARTITIONED_REMOTE]),
    st.integers(2, 4),
    st.data(),
)
@settings(max_examples=80)
def test_accounting_invariant_with_chaos(n_files, strategy, n_workers, data):
    workers = [f"w{i}" for i in range(n_workers)]
    retry = data.draw(
        st.sampled_from([None, RetryPolicy.resilient(), RetryPolicy(2, True, False)])
    )
    sched = build(n_files, strategy, workers, retry=retry, isolate_after=3)
    alive = set(workers)
    seen_completed: set[int] = set()
    for _ in range(n_files * 6):
        if sched.done or not alive:
            break
        wid = data.draw(st.sampled_from(sorted(alive)))
        action = data.draw(
            st.sampled_from(["ok", "ok", "ok", "err", "lose", "rescind"])
        )
        assignment = sched.next_for(wid)
        if assignment is None:
            if action == "lose" and len(alive) > 1:
                sched.worker_lost(wid)
                alive.discard(wid)
            continue
        if action == "lose" and len(alive) > 1:
            sched.worker_lost(wid)
            alive.discard(wid)
        elif action == "err":
            sched.report_error(wid, assignment.task_id, "chaos")
        elif action == "rescind":
            sched.rescind(wid, assignment.task_id)
            assert sched._attempts[assignment.task_id] == assignment.attempt - 1
        else:
            assert assignment.task_id not in seen_completed, "double completion"
            sched.report_success(wid, assignment.task_id)
            seen_completed.add(assignment.task_id)
        # Accounting invariant after every step.
        summary = sched.summary()
        assert (
            summary["completed"]
            + summary["failed"]
            + summary["lost"]
            + summary["in_flight"]
            + sched.pending_count
            == n_files
        )
        assert summary["completed"] == len(seen_completed)
    # Terminal states are consistent.
    assert len(sched.completed) == len(seen_completed)
    assert set(sched.completed) == seen_completed


@given(st.integers(1, 20), st.integers(1, 4))
@settings(max_examples=60)
def test_static_chunks_partition_tasks(n_files, n_workers):
    workers = [f"w{i}" for i in range(n_workers)]
    sched = build(n_files, StrategyKind.PRE_PARTITIONED_REMOTE, workers)
    union: list[int] = []
    for wid in workers:
        chunk = [g.index for g in sched.planned_chunk(wid)]
        union.extend(chunk)
        # Contiguity of each chunk.
        assert chunk == sorted(chunk)
        if chunk:
            assert chunk[-1] - chunk[0] == len(chunk) - 1
    assert sorted(union) == list(range(n_files))
    # Balance: sizes differ by at most one.
    sizes = [len(sched.planned_chunk(w)) for w in workers]
    assert max(sizes) - min(sizes) <= 1
