"""FRIEDA core: the two-plane architecture.

Control plane (§II-A): :class:`~repro.core.controller.ControllerLogic`
plus the partition generator (:mod:`repro.data.partition`). Execution
plane (§II-B): the master scheduler
(:class:`~repro.core.scheduler.MasterScheduler`) and workers.

The state machines here are engine-agnostic pure logic; the simulated
engine (:mod:`repro.engines.simulated`) and the real runtimes
(:mod:`repro.runtime`) both drive them, which is exactly the
"separation of concerns" the paper claims enables plugging different
execution environments under one control plane (§II).
"""

from repro.core.messages import (
    AddWorker,
    ConfigUpdate,
    ConnectionAck,
    ExecStatus,
    FileData,
    FileMetadata,
    Message,
    NoMoreData,
    RegisterWorker,
    RemoveWorker,
    RequestData,
    SetPartitionInfo,
    StartMaster,
    WorkerFailed,
    decode_message,
    encode_message,
)
from repro.core.commands import CommandTemplate
from repro.core.strategies import DataManagementStrategy, StrategyKind, strategy_for
from repro.core.scheduler import Assignment, MasterScheduler
from repro.core.controller import ControllerLogic, ControllerEvent
from repro.core.worker import WorkerLogic
from repro.core.fault import FaultTracker, RetryPolicy
from repro.core.elasticity import ElasticityManager, ScaleEvent
from repro.core.advisor import StrategyAdvisor, RunRecord
from repro.core.framework import Frieda, RunOutcome, TaskRecord

__all__ = [
    "Message",
    "StartMaster",
    "SetPartitionInfo",
    "RegisterWorker",
    "ConnectionAck",
    "RequestData",
    "FileMetadata",
    "FileData",
    "ExecStatus",
    "NoMoreData",
    "WorkerFailed",
    "AddWorker",
    "RemoveWorker",
    "ConfigUpdate",
    "decode_message",
    "encode_message",
    "CommandTemplate",
    "DataManagementStrategy",
    "StrategyKind",
    "strategy_for",
    "Assignment",
    "MasterScheduler",
    "ControllerLogic",
    "ControllerEvent",
    "WorkerLogic",
    "FaultTracker",
    "RetryPolicy",
    "ElasticityManager",
    "ScaleEvent",
    "StrategyAdvisor",
    "RunRecord",
    "Frieda",
    "RunOutcome",
    "TaskRecord",
]
