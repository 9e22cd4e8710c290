"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.config import SystemConfig
from repro.core.metrics import MetricsBoard
from repro.core.profile import EnergyProfile, ProfileConfig
from repro.cpu.topology import MachineSpec, Topology
from repro.sched.domains import build_domains
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task
from repro.workloads.behavior import InstructionMix, PhaseSpec, StaticBehavior

import numpy as np


def make_mix(power_scale: float = 1.0, ipc: float = 1.0) -> InstructionMix:
    """A small instruction mix for unit tests (rates scale linearly)."""
    rates = np.array([1.0, 0.5, 0.0, 0.2, 0.001, 0.1]) * power_scale
    return InstructionMix(rates_per_cycle=rates, ipc=ipc, label="test")


def make_behavior(rng: random.Random | None = None) -> StaticBehavior:
    rng = rng if rng is not None else random.Random(0)
    phase = PhaseSpec(mix=make_mix(), mean_duration_s=1e9)
    return StaticBehavior(phase, rng, wobble_sigma=0.0)


def make_task(
    pid: int = 1,
    power_w: float | None = None,
    name: str = "test",
    inode: int = 42,
    job_instructions: float = 1e12,
) -> Task:
    """A task with an optionally primed energy profile."""
    task = Task(
        pid=pid,
        name=name,
        inode=inode,
        behavior=make_behavior(),
        job_instructions=job_instructions,
    )
    task.profile = EnergyProfile(ProfileConfig(), initial_power_w=power_w)
    return task


class Harness:
    """Scheduler-state harness: topology, runqueues, domains, metrics.

    Lets balancer/migration/placement tests build arbitrary scheduler
    states without a full :class:`repro.system.System`.
    """

    def __init__(
        self,
        spec: MachineSpec,
        max_power_w: float = 60.0,
        tau_s: float = 20.0,
        initial_thermal_w: float = 6.8,
    ) -> None:
        self.topology = Topology(spec)
        self.runqueues = {c: RunQueue(c) for c in range(len(self.topology))}
        self.hierarchy = build_domains(self.topology)
        self.metrics = MetricsBoard(
            self.topology,
            self.runqueues,
            tau_s=tau_s,
            max_power_w=max_power_w,
            initial_thermal_w=initial_thermal_w,
        )
        self.migrations: list[tuple[int, int, int, str]] = []
        self._next_pid = 100

    def add_task(self, cpu: int, power_w: float, running: bool = False) -> Task:
        task = make_task(pid=self._next_pid, power_w=power_w)
        self._next_pid += 1
        rq = self.runqueues[cpu]
        rq.enqueue(task)
        if running:
            if rq.current is not None:
                raise ValueError(f"CPU {cpu} already has a running task")
            picked = rq.pick_next()
            while picked is not task:
                # Rotate until the requested task is current.
                picked = rq.pick_next()
        return task

    def set_thermal(self, cpu: int, power_w: float) -> None:
        self.metrics.thermal_w[cpu] = float(power_w)
        self.metrics.thermal_epoch += 1

    def migrate(self, task: Task, src: int, dst: int, reason: str = "test") -> None:
        """Migration callback recording moves and applying them."""
        self.runqueues[src].remove(task)
        self.runqueues[dst].enqueue(task)
        self.migrations.append((task.pid, src, dst, reason))


@pytest.fixture
def smp4() -> Harness:
    """Flat 4-CPU SMP harness."""
    return Harness(MachineSpec.smp(4))


@pytest.fixture
def x445() -> Harness:
    """The paper's 16-logical-CPU machine."""
    return Harness(MachineSpec.ibm_x445(smt=True), max_power_w=20.0)


@pytest.fixture
def x445_nosmt() -> Harness:
    return Harness(MachineSpec.ibm_x445(smt=False))


@pytest.fixture
def fast_config() -> SystemConfig:
    """A small, fast system configuration for integration tests."""
    return SystemConfig(
        machine=MachineSpec.smp(4),
        max_power_per_cpu_w=60.0,
        seed=1234,
        sample_interval_s=0.5,
    )
