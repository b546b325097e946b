"""Chaos engineering for the SecureCloud reproduction.

The paper's orchestration use case (Section VI) is *reacting* to
anomalies; this package supplies the anomalies.  A seeded
:class:`ChaosInjector` makes order-independent, deterministic fault
decisions (service crashes, bus message drops/duplicates/delays,
broker failures, whole-node crashes and network partitions, syscall
stalls, transfer-frame corruption, storage hiccups);
:class:`FaultSchedule` fires scripted failures at planned
virtual times through the discrete-event kernel; and the wrappers turn
any bus / volume / network / syscall executor / sharded plane hostile
without touching happy-path code.

Recovery machinery lives with the subsystems it heals (checkpointed
map/reduce, reliable transfer, replicated SCBR broker, NACK-based bus
redelivery); this package only breaks things -- reproducibly.
"""

from repro.chaos.injector import ChaosConfig, ChaosInjector, FaultSchedule
from repro.chaos.wrappers import (
    ChaosBus,
    ChaosNetwork,
    ChaosPlane,
    ChaosSyscallExecutor,
    ChaosVolume,
    node_fault_step,
)

__all__ = [
    "ChaosBus",
    "ChaosConfig",
    "ChaosInjector",
    "ChaosNetwork",
    "ChaosPlane",
    "ChaosSyscallExecutor",
    "ChaosVolume",
    "FaultSchedule",
    "node_fault_step",
]
