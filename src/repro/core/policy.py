"""Scheduling-policy facades.

The simulator kernel is policy-agnostic; it calls the hooks below at the
three places the paper modifies Linux (§5):

1. the periodic balancer (``periodic_balance``),
2. active hot-task migration checks (``check_active_migration``),
3. fork/exec placement of new tasks (``place_new_task``).

:class:`BaselinePolicy` is the unmodified scheduler — vanilla load
balancing, least-loaded placement, no active migration.
:class:`EnergyAwarePolicy` is the paper's scheduler; each of its three
components can be switched off individually for ablation studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Protocol

from repro.core.energy_balance import EnergyBalanceConfig, EnergyBalancer
from repro.core.hot_migration import HotMigrationConfig, HotTaskMigrator
from repro.core.metrics import MetricsBoard
from repro.core.placement import InitialPlacement, PlacementConfig
from repro.core.profile import ProfileConfig
from repro.sched.domains import DomainHierarchy
from repro.sched.load_balance import LoadBalanceConfig, load_balance_pass
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task

MigrateFn = Callable[[Task, int, int, str], None]


class SchedulingPolicy(Protocol):
    """The hook surface the kernel exposes to a policy."""

    def place_new_task(self, task: Task) -> int:
        """CPU for a task entering the system via fork/exec."""
        ...

    def periodic_balance(self, cpu_id: int) -> int:
        """Periodic balancing pass for a CPU; returns tasks moved.

        A pass moves a task only off a queue that holds at least 2
        tasks; the housekeeping gates of both engines (``System`` and
        ``FleetEngine``) skip passes through :func:`balance_can_move`,
        so they depend on this.
        """
        ...

    def check_active_migration(self, cpu_id: int) -> bool:
        """Active (hot-task) migration opportunity check."""
        ...

    def initial_profile_power(self, task: Task) -> float:
        """Power to prime a new task's energy profile with."""
        ...

    def on_first_timeslice(self, task: Task, power_w: float) -> None:
        """A task completed its first timeslice at ``power_w``."""
        ...


def balance_can_move(runqueues: Iterable[RunQueue]) -> bool:
    """Could a :meth:`SchedulingPolicy.periodic_balance` pass move a task?

    Only if some queue holds at least 2 tasks (``RunQueue.nr``, read
    live).  False means every pass over these queues is a no-op.
    """
    for rq in runqueues:
        if rq.nr >= 2:
            return True
    return False


@dataclass(frozen=True, slots=True)
class EnergyAwareConfig:
    """Complete configuration of the paper's scheduler."""

    profile: ProfileConfig = ProfileConfig()
    balance: EnergyBalanceConfig = EnergyBalanceConfig()
    hot: HotMigrationConfig = HotMigrationConfig()
    placement: PlacementConfig = PlacementConfig()
    enable_energy_balance: bool = True
    enable_hot_migration: bool = True
    enable_placement: bool = True


class BaselinePolicy:
    """Vanilla Linux behaviour: load balancing and least-loaded placement."""

    def __init__(
        self,
        hierarchy: DomainHierarchy,
        runqueues: Mapping[int, RunQueue],
        migrate: MigrateFn,
        load_config: LoadBalanceConfig | None = None,
        profile_config: ProfileConfig | None = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.runqueues = runqueues
        self._migrate = migrate
        self.load_config = load_config if load_config is not None else LoadBalanceConfig()
        self.profile_config = (
            profile_config if profile_config is not None else ProfileConfig()
        )

    def place_new_task(self, task: Task) -> int:
        return min(
            (rq for rq in self.runqueues.values() if task.allowed_on(rq.cpu_id)),
            key=lambda rq: (rq.nr_running, rq.cpu_id),
        ).cpu_id

    def periodic_balance(self, cpu_id: int) -> int:
        return load_balance_pass(
            cpu_id,
            self.hierarchy,
            self.runqueues,
            migrate=lambda task, src, dst: self._migrate(task, src, dst, "load_balance"),
            config=self.load_config,
        )

    def check_active_migration(self, cpu_id: int) -> bool:
        return False

    def initial_profile_power(self, task: Task) -> float:
        # The baseline keeps profiles too (they cost nothing and feed the
        # evaluation's instrumentation) but never uses them for decisions.
        return self.profile_config.default_power_w

    def on_first_timeslice(self, task: Task, power_w: float) -> None:
        pass


class EnergyAwarePolicy:
    """The paper's scheduler: merged balancing + hot migration + placement."""

    def __init__(
        self,
        metrics: MetricsBoard,
        hierarchy: DomainHierarchy,
        runqueues: Mapping[int, RunQueue],
        migrate: MigrateFn,
        config: EnergyAwareConfig | None = None,
    ) -> None:
        self.config = config if config is not None else EnergyAwareConfig()
        self.metrics = metrics
        self.hierarchy = hierarchy
        self.runqueues = runqueues
        self._migrate = migrate
        self.balancer = EnergyBalancer(
            metrics, hierarchy, runqueues, migrate, self.config.balance
        )
        self.hot_migrator = HotTaskMigrator(
            metrics, hierarchy, runqueues, migrate, self.config.hot
        )
        self.placement = InitialPlacement(metrics, runqueues, self.config.placement)
        self._fallback = BaselinePolicy(
            hierarchy,
            runqueues,
            migrate,
            load_config=self.config.balance.load,
            profile_config=self.config.profile,
        )

    def place_new_task(self, task: Task) -> int:
        if not self.config.enable_placement:
            return self._fallback.place_new_task(task)
        return self.placement.place(task)

    def periodic_balance(self, cpu_id: int) -> int:
        if not self.config.enable_energy_balance:
            return self._fallback.periodic_balance(cpu_id)
        return self.balancer.balance(cpu_id)

    def check_active_migration(self, cpu_id: int) -> bool:
        if not self.config.enable_hot_migration:
            return False
        return self.hot_migrator.check(cpu_id)

    def initial_profile_power(self, task: Task) -> float:
        return self.placement.initial_power_for(task.inode)

    def on_first_timeslice(self, task: Task, power_w: float) -> None:
        self.placement.record_first_timeslice(task, power_w)
