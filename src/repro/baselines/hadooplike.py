"""A Hadoop-like transparent-locality execution engine (baseline).

The model captures the two properties the paper attributes to
MapReduce-style systems:

1. **Transparent placement**: input files are scattered HDFS-style —
   each file replicated ``replication`` times on worker nodes chosen
   pseudo-randomly; the user does not control placement ("Hadoop
   provides minimal control over data distribution", §VI).
2. **Locality-greedy scheduling**: an idle worker is handed the queued
   task with the most input bytes already on its node; files it lacks
   are read remotely from a replica holder over the network.

Contrast with FRIEDA: a *pairwise* application (two inputs per task)
only runs fully local when both files landed on one node by luck —
FRIEDA's partition generator co-locates them by construction. A
*common-data* application (BLAST's database) cannot be block-scattered
at all; Hadoop-style placement leaves most reads remote. Those are
exactly the "applications that don't fit the paradigm" (§I).

The engine reuses the cloud substrate (cluster, flow network, compute
models) so its numbers are directly comparable with FRIEDA runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


from repro.cloud.cluster import ClusterSpec, Provisioner
from repro.cloud.instance import VirtualMachine
from repro.core.framework import RunOutcome, TaskRecord
from repro.core.strategies import StrategyKind
from repro.data.files import Dataset
from repro.data.partition import PartitionScheme, TaskGroup, generate_groups
from repro.engines.compute import ComputeModel
from repro.errors import ConfigurationError
from repro.sim.collector import sparse_collection
from repro.sim.kernel import Environment, Event
from repro.util.seeding import make_rng
from repro.util.stats import union_time


@dataclass(frozen=True)
class BlockPlacement:
    """Where each file's replicas live (node ids per file)."""

    holders: dict[str, tuple[str, ...]]

    def nodes_for(self, file_name: str) -> tuple[str, ...]:
        return self.holders.get(file_name, ())

    def add_replica(self, file_name: str, node_id: str) -> None:
        current = self.holders.get(file_name, ())
        if node_id not in current:
            self.holders[file_name] = current + (node_id,)

    def local_bytes(self, group: TaskGroup, node_id: str) -> int:
        return sum(f.size for f in group.files if node_id in self.nodes_for(f.name))


def scatter_blocks(
    dataset: Dataset,
    node_ids: Sequence[str],
    *,
    replication: int = 2,
    seed: int = 0,
) -> BlockPlacement:
    """HDFS-style pseudo-random replica placement."""
    if replication < 1:
        raise ConfigurationError("replication must be >= 1")
    if not node_ids:
        raise ConfigurationError("cannot scatter blocks over zero nodes")
    rng = make_rng(seed, "hdfs-scatter")
    replication = min(replication, len(node_ids))
    holders: dict[str, tuple[str, ...]] = {}
    for f in dataset:
        chosen = rng.choice(len(node_ids), size=replication, replace=False)
        holders[f.name] = tuple(node_ids[i] for i in chosen)
    return BlockPlacement(holders=holders)


class HadoopLikeEngine:
    """Transparent-locality execution on the simulated substrate."""

    def __init__(
        self,
        cluster_spec: ClusterSpec | None = None,
        *,
        replication: int = 2,
        seed: int = 0,
        control_rtt: float = 0.002,
        include_disk_io: bool = True,
        cache_remote_reads: bool = False,
    ):
        self.spec = cluster_spec or ClusterSpec()
        self.replication = replication
        self.seed = seed
        self.control_rtt = control_rtt
        self.include_disk_io = include_disk_io
        #: When True, a remotely-read file becomes a local replica
        #: (distributed-cache flavour). Off by default: the transparent
        #: system has no application knowledge about reuse (§VI).
        self.cache_remote_reads = cache_remote_reads

    def run(
        self,
        dataset: Dataset,
        *,
        compute_model: ComputeModel,
        grouping: PartitionScheme | str = PartitionScheme.SINGLE,
        grouping_options: dict | None = None,
        multicore: bool = True,
    ) -> RunOutcome:
        """Execute the workload with locality-greedy scheduling."""
        with sparse_collection():
            env = Environment()
            cluster = Provisioner(env).provision_now(self.spec)
            workers = [vm for vm in cluster.worker_vms if vm.is_running]
            if not workers:
                raise ConfigurationError("no running workers")
            node_ids = [vm.vm_id for vm in workers]
            groups = generate_groups(dataset, grouping, **(grouping_options or {}))
            placement = scatter_blocks(
                dataset, node_ids, replication=self.replication, seed=self.seed
            )
            # Blocks pre-exist on node disks (data already "in HDFS").
            for f in dataset:
                for node_id in placement.nodes_for(f.name):
                    cluster.vm(node_id).local_disk.store_file(f.name, f.size)

            queue: list[TaskGroup] = list(groups)
            records: list[TaskRecord] = []
            busy: dict[str, float] = {}
            local_tasks = [0]
            remote_bytes = [0.0]
            exec_spans: list[tuple[float, float]] = []
            transfer_spans: list[tuple[float, float]] = []
            done_event = Event(env)
            outstanding = [len(groups)]
            start_time = env.now

            def pick_task(node_id: str) -> Optional[TaskGroup]:
                """Most-local-bytes-first (Hadoop's locality preference)."""
                if not queue:
                    return None
                best_index = 0
                best_bytes = -1
                for index, group in enumerate(queue):
                    local = placement.local_bytes(group, node_id)
                    if local > best_bytes:
                        best_index, best_bytes = index, local
                    if local == group.total_size:
                        best_index = index
                        break  # fully local: take it immediately
                return queue.pop(best_index)

            def worker_clone(vm: VirtualMachine, wid: str):
                busy.setdefault(wid, 0.0)
                while True:
                    yield env.timeout(self.control_rtt)
                    group = pick_task(vm.vm_id)
                    if group is None:
                        return
                    task_start = env.now
                    # Remote reads: stream missing files from a replica
                    # holder over the network.
                    missing = [
                        f
                        for f in group.files
                        if vm.vm_id not in placement.nodes_for(f.name)
                    ]
                    fully_local = not missing
                    flows = []
                    for f in missing:
                        holder = placement.nodes_for(f.name)[0]
                        path = (
                            cluster.vm(holder).local_disk.read_path()
                            + cluster.route_between(holder, vm.vm_id)
                        )
                        flows.append(
                            cluster.network.start_flow(path, f.size, tag=f"remote:{wid}")
                        )
                        remote_bytes[0] += f.size
                    if flows:
                        yield env.all_of([fl.done for fl in flows])
                        if self.cache_remote_reads and vm.is_running:
                            for f in missing:
                                vm.local_disk.store_file(f.name, f.size)
                                placement.add_replica(f.name, vm.vm_id)
                    with vm.cpu.request() as slot:
                        yield slot
                        exec_start = env.now
                        if self.include_disk_io and fully_local and group.total_size > 0:
                            read = cluster.network.start_flow(
                                vm.local_disk.read_path(), group.total_size, tag=f"read:{wid}"
                            )
                            yield read.done
                        cost = float(compute_model.cost(group)) / vm.itype.core_speed
                        if cost > 0:
                            yield env.timeout(cost)
                    busy[wid] += env.now - exec_start
                    if fully_local:
                        local_tasks[0] += 1
                    exec_spans.append((exec_start, env.now))
                    if flows:
                        transfer_spans.append((task_start, exec_start))
                    records.append(
                        TaskRecord(
                            task_id=group.index,
                            worker_id=wid,
                            node_id=vm.vm_id,
                            start=task_start,
                            end=env.now,
                            ok=True,
                            transfer_seconds=exec_start - task_start if flows else 0.0,
                        )
                    )
                    outstanding[0] -= 1
                    if outstanding[0] == 0 and not done_event.triggered:
                        done_event.succeed()

            for vm in workers:
                clones = vm.itype.cores if multicore else 1
                for index in range(clones):
                    env.process(worker_clone(vm, f"{vm.vm_id}:{index}"))
            if groups:
                env.run(until=done_event)
            makespan = env.now - start_time
            for vm in cluster.vms.values():
                vm.terminate()
            outcome = RunOutcome(
                strategy=StrategyKind.REAL_TIME,  # closest descriptor: pull-based
                grouping=PartitionScheme(grouping),
                makespan=makespan,
                transfer_time=union_time(transfer_spans),
                execution_time=union_time(exec_spans),
                tasks_total=len(groups),
                tasks_completed=len(records),
                bytes_transferred=remote_bytes[0],
                task_records=sorted(records, key=lambda r: (r.start, r.task_id)),
                worker_busy=busy,
                extra={
                    "engine": "hadoop-like",
                    "replication": self.replication,
                    "locality_rate": (local_tasks[0] / len(groups)) if groups else 1.0,
                },
            )
            return outcome
