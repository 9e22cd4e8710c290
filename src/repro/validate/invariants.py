"""Runtime invariant registry and checker.

The paper's correctness rests on properties the simulator asserts
nowhere at runtime: Eq. 1 energy accounting must conserve, the §4.4
dual hysteresis must forbid a pull unless *both* power ratios exceed
the local ones, §4.5 hot-task migration must never fire off a
multi-task runqueue.  This module catalogues those properties as
checkable predicates over :class:`repro.system.System` state and
installs lightweight hooks to evaluate them while a simulation runs —
the schedule-against-invariants shape of temperature-aware scheduling
analyses (arXiv:0801.4238) rather than endpoint-only testing.

Three hook surfaces:

* :meth:`InvariantChecker.after_tick` — tick invariants (energy
  conservation, thermal bounds, EWMA decay, bookkeeping), sampled every
  ``sample_every`` ticks;
* :meth:`InvariantChecker.before_migration` — event invariants
  evaluated on the pre-migration state (hysteresis, hot-migration
  preconditions);
* :meth:`InvariantChecker.on_placement` — the §4.6 minimum-runqueue-
  length rule for newly forked tasks.

Validation is off by default; :class:`repro.system.System` installs a
checker only when built with ``validate=``, and the disabled cost is a
single ``is None`` test per hook site.  The pure ``*_violation``
helpers at the bottom take scheduler state directly so property tests
can drive them over arbitrary topologies without a full system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.core.energy_balance import EnergyBalanceConfig
from repro.core.hot_migration import HotMigrationConfig
from repro.core.metrics import MetricsBoard
from repro.cpu.topology import Topology
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.clock import Clock
    from repro.system import System

#: Fault kinds a :class:`repro.validate.faults.FaultPlan` can activate;
#: each invariant lists the kinds that legitimately break it.
FAULT_KINDS = (
    "counter_read",      # jitter spikes on counter reads
    "counter_register",  # raw corruption of a counter register
    "migration_drop",    # migration requests silently dropped
    "thermal",           # heat-sink coefficient jitter / sensor drift
)


class InvariantViolation(AssertionError):
    """Raised in ``mode='raise'`` when an invariant fails."""


@dataclass(frozen=True, slots=True)
class Violation:
    """One recorded invariant failure."""

    tick: int
    invariant: str
    message: str

    def to_dict(self) -> dict:
        return {
            "tick": self.tick,
            "invariant": self.invariant,
            "message": self.message,
        }


@dataclass(frozen=True, slots=True)
class Invariant:
    """Registry entry: one checkable predicate over system state.

    Attributes
    ----------
    name:
        Stable identifier (violations and reports key on it).
    kind:
        ``tick`` (evaluated by :meth:`InvariantChecker.after_tick`),
        ``migration`` or ``placement`` (event hooks).
    paper_ref:
        The paper section the predicate encodes.
    fault_sensitive:
        Fault kinds (see :data:`FAULT_KINDS`) that are *expected* to
        break the invariant — under such a fault a failure is reported,
        not treated as a breach.
    """

    name: str
    kind: str
    paper_ref: str
    description: str
    fault_sensitive: frozenset[str] = frozenset()


REGISTRY: tuple[Invariant, ...] = (
    Invariant(
        "energy-package-conservation", "tick", "§3.2, Eq. 1",
        "Estimated package power equals the sum of its running CPUs' "
        "per-tick Eq. 1 estimates (halted packages draw the hlt power).",
    ),
    Invariant(
        "energy-task-accounting", "tick", "§3.3",
        "Between consecutive ticks the total energy charged to tasks "
        "grows by exactly the energy the execution step estimated.",
    ),
    Invariant(
        "energy-nonnegative", "tick", "§3.2",
        "Every power and energy quantity is finite and non-negative.",
    ),
    Invariant(
        "temperature-rc-bounds", "tick", "§4.2",
        "Package temperatures stay between ambient and the RC model's "
        "steady state for a generous power cap.",
        fault_sensitive=frozenset({"thermal"}),
    ),
    Invariant(
        "ewma-thermal-decay", "tick", "§4.3",
        "Each thermal-power EWMA step is a contraction: the new value "
        "lies between the previous value and the tick's input power.",
    ),
    Invariant(
        "counter-bounds", "tick", "§3.1/§5",
        "Event counter registers stay within [0, 2^40).",
        fault_sensitive=frozenset({"counter_register"}),
    ),
    Invariant(
        "runqueue-bookkeeping", "tick", "§4.1/§5",
        "Each runqueue's cached length matches its membership and every "
        "member's CPU back-reference and state are consistent.",
    ),
    Invariant(
        "task-residency", "tick", "§4.1",
        "Every runnable task sits on exactly one runqueue, blocked "
        "tasks on none, and domain groups partition their spans.",
    ),
    Invariant(
        "throttle-state", "tick", "§6.2",
        "Throttle and DVFS state agree with the configured temperature-"
        "control mode; frequency scales stay in (0, 1].",
    ),
    Invariant(
        "dvfs-energy-accounting", "tick", "§2.3/Eq. 1",
        "Frequency scales come off the configured DVFS ladder (exactly "
        "1.0 outside DVFS mode) and each package's accumulated energy "
        "grows by estimated power x tick time between consecutive ticks.",
    ),
    Invariant(
        "placement-cache-consistency", "tick", "§4.6",
        "The inode-keyed first-timeslice table holds finite non-negative "
        "powers for inodes the workload actually runs.",
    ),
    Invariant(
        "balance-hysteresis", "migration", "§4.4",
        "An energy-balance pull requires the source to exceed the "
        "destination on *both* enabled power ratios plus margins.",
    ),
    Invariant(
        "hot-migration-preconditions", "migration", "§4.5/§4.7",
        "Hot-task migration fires only off a single-task queue near its "
        "package power limit, onto a considerably cooler package.",
    ),
    Invariant(
        "placement-min-length", "placement", "§4.6",
        "A new task is placed on a CPU with the minimum runqueue length "
        "among its allowed CPUs.",
    ),
)

_BY_NAME: dict[str, Invariant] = {inv.name: inv for inv in REGISTRY}


def invariant_by_name(name: str) -> Invariant:
    """Look up a registry entry; raises ``ValueError`` with valid names."""
    try:
        return _BY_NAME[name]
    except KeyError:
        valid = ", ".join(sorted(_BY_NAME))
        raise ValueError(
            f"unknown invariant {name!r}; expected one of {valid}"
        ) from None


@dataclass(frozen=True, slots=True)
class ValidationConfig:
    """How the checker runs.

    Attributes
    ----------
    sample_every:
        Evaluate tick invariants every N ticks (1 = every tick).  The
        two history-coupled invariants (task-energy accounting, EWMA
        decay) need consecutive samples and skip themselves when N > 1.
    mode:
        ``record`` collects :class:`Violation` objects; ``raise``
        raises :class:`InvariantViolation` on the first failure.
    only:
        Restrict checking to these invariant names (``None`` = all).
    """

    sample_every: int = 1
    mode: str = "record"
    only: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.mode not in ("record", "raise"):
            raise ValueError(f"unknown validation mode {self.mode!r}")
        if self.only is not None:
            for name in self.only:
                invariant_by_name(name)


class InvariantChecker:
    """Evaluates the registry against one live :class:`System`.

    Installed by ``System(..., validate=...)``; the system calls the
    three hooks from its tick loop, migration callback, and fork path.
    """

    #: Tolerance for recomputed-float comparisons.  Both tick paths are
    #: bit-identical by construction, so the slack only absorbs the
    #: one-ulp effects of re-deriving sums in a different expression.
    REL_TOL = 1e-9
    ABS_TOL = 1e-9

    def __init__(self, system: "System", config: ValidationConfig | None = None) -> None:
        self.system = system
        self.config = config if config is not None else ValidationConfig()
        self.violations: list[Violation] = []
        #: invariant name -> evaluations performed (reporting/tests).
        self.checks_run: dict[str, int] = {}
        self._enabled = {
            inv.name
            for inv in REGISTRY
            if self.config.only is None or inv.name in self.config.only
        }
        self._last_tick = -1
        # History for the consecutive-tick invariants.
        self._prev_tick = -1
        self._prev_thermal: list[float] | None = None
        self._prev_task_energy: float | None = None
        self._prev_pkg_energy: list[float] | None = None

    # -- reporting ----------------------------------------------------------
    def violations_for(self, name: str) -> list[Violation]:
        return [v for v in self.violations if v.invariant == name]

    def _emit(self, tick: int, name: str, message: str) -> None:
        violation = Violation(tick=tick, invariant=name, message=message)
        if self.config.mode == "raise":
            raise InvariantViolation(f"[tick {tick}] {name}: {message}")
        self.violations.append(violation)

    def _ran(self, name: str) -> None:
        self.checks_run[name] = self.checks_run.get(name, 0) + 1

    # -- hook: per tick -----------------------------------------------------
    def after_tick(self, clock: "Clock") -> None:
        if clock.ticks % self.config.sample_every != 0:
            return
        self.check_now(clock.ticks, clock.tick_s)

    def check_now(self, tick: int, tick_s: float) -> None:
        """Run every enabled tick invariant against the current state."""
        self._last_tick = tick
        enabled = self._enabled
        if "energy-package-conservation" in enabled:
            self._check_package_conservation(tick)
        if "energy-task-accounting" in enabled:
            self._check_task_accounting(tick, tick_s)
        if "energy-nonnegative" in enabled:
            self._check_nonnegative(tick)
        if "temperature-rc-bounds" in enabled:
            self._check_temperature_bounds(tick)
        if "ewma-thermal-decay" in enabled:
            self._check_ewma_decay(tick)
        if "counter-bounds" in enabled:
            self._check_counter_bounds(tick)
        if "runqueue-bookkeeping" in enabled:
            self._check_runqueue_bookkeeping(tick)
        if "task-residency" in enabled:
            self._check_task_residency(tick)
        if "throttle-state" in enabled:
            self._check_throttle_state(tick)
        if "dvfs-energy-accounting" in enabled:
            self._check_dvfs_energy(tick, tick_s)
        if "placement-cache-consistency" in enabled:
            self._check_placement_cache(tick)
        # Snapshot for the next sample's history-coupled checks.
        self._prev_tick = tick
        self._prev_thermal = list(self.system.metrics.thermal_w)
        self._prev_task_energy = self._task_energy_sum()
        self._prev_pkg_energy = list(self.system._pkg_energy_j)

    # -- hook: migration events --------------------------------------------
    def before_migration(self, task: Task, src: int, dst: int, reason: str) -> None:
        """Validate a migration request against the pre-move state."""
        system = self.system
        tick = self._last_tick if self._last_tick >= 0 else 0
        policy_config = getattr(system.policy, "config", None)
        if reason == "energy_balance" and "balance-hysteresis" in self._enabled:
            self._ran("balance-hysteresis")
            balance = getattr(policy_config, "balance", None)
            message = hysteresis_violation(
                system.metrics,
                balance if balance is not None else EnergyBalanceConfig(),
                src,
                dst,
            )
            if message is not None:
                self._emit(tick, "balance-hysteresis", message)
        elif reason == "hot_task" and "hot-migration-preconditions" in self._enabled:
            self._ran("hot-migration-preconditions")
            hot = getattr(policy_config, "hot", None)
            message = hot_migration_violation(
                system.metrics,
                system.runqueues,
                system.topology,
                hot if hot is not None else HotMigrationConfig(),
                task,
                src,
                dst,
            )
            if message is not None:
                self._emit(tick, "hot-migration-preconditions", message)

    # -- hook: placement ----------------------------------------------------
    def on_placement(self, task: Task, chosen: int) -> None:
        """Validate a §4.6 placement decision before the enqueue."""
        if "placement-min-length" not in self._enabled:
            return
        self._ran("placement-min-length")
        message = placement_violation(self.system.runqueues, task, chosen)
        if message is not None:
            tick = self._last_tick if self._last_tick >= 0 else 0
            self._emit(tick, "placement-min-length", message)

    # -- tick invariants ----------------------------------------------------
    def _close(self, a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=self.REL_TOL, abs_tol=self.ABS_TOL)

    def _task_energy_sum(self) -> float:
        """Total energy charged to tasks, summed in stable pid order.

        Sorting makes the accumulation independent of slot/exit order,
        so violation diffs are stable across runs and Python versions
        (the same reason the Eq. 1 counter summary sorts its keys).
        """
        system = self.system
        tasks = [t for t in system.live_tasks()] + list(system.exited_tasks)
        return sum(t.total_energy_j for t in sorted(tasks, key=lambda t: t.pid))

    def _check_package_conservation(self, tick: int) -> None:
        self._ran("energy-package-conservation")
        system = self.system
        halted_w = system.config.power.halted_package_w
        for pkg, cpus in enumerate(system._pkg_cpus):
            est_sum = 0.0
            any_running = False
            for c in cpus:
                if system._running[c]:
                    any_running = True
                    est_sum += system._est_power[c]
            expected = est_sum if any_running else halted_w
            actual = system._est_pkg_power[pkg]
            if not self._close(actual, expected):
                self._emit(
                    tick, "energy-package-conservation",
                    f"package {pkg}: recorded {actual!r} W but running-CPU "
                    f"Eq. 1 estimates sum to {expected!r} W",
                )

    def _check_task_accounting(self, tick: int, tick_s: float) -> None:
        if self._prev_tick != tick - 1 or self._prev_task_energy is None:
            return  # needs consecutive samples
        self._ran("energy-task-accounting")
        system = self.system
        charged = sum(p * tick_s for p in system._est_power)
        actual = self._task_energy_sum() - self._prev_task_energy
        if not math.isclose(actual, charged, rel_tol=1e-6, abs_tol=1e-9):
            self._emit(
                tick, "energy-task-accounting",
                f"task energies grew by {actual!r} J this tick but the "
                f"execution step estimated {charged!r} J",
            )

    def _check_nonnegative(self, tick: int) -> None:
        self._ran("energy-nonnegative")
        system = self.system

        def bad(value: float) -> bool:
            return not math.isfinite(value) or value < 0.0

        for c in range(system.n_cpus):
            if bad(system._est_power[c]) or bad(system._dyn_power[c]):
                self._emit(
                    tick, "energy-nonnegative",
                    f"CPU {c}: est/dyn power "
                    f"({system._est_power[c]!r}/{system._dyn_power[c]!r}) W",
                )
            if bad(system._interval_energy[c]):
                self._emit(
                    tick, "energy-nonnegative",
                    f"CPU {c}: interval energy {system._interval_energy[c]!r} J",
                )
            if bad(system.metrics.thermal_w[c]):
                self._emit(
                    tick, "energy-nonnegative",
                    f"CPU {c}: thermal power {system.metrics.thermal_w[c]!r} W",
                )
        for task in system.live_tasks() + system.exited_tasks:
            if bad(task.total_energy_j) or bad(task.profile_power_w):
                self._emit(
                    tick, "energy-nonnegative",
                    f"task pid={task.pid}: energy {task.total_energy_j!r} J, "
                    f"profile {task.profile_power_w!r} W",
                )

    def _check_temperature_bounds(self, tick: int) -> None:
        self._ran("temperature-rc-bounds")
        system = self.system
        config = system.config
        floor_slack_c = 1.0
        for pkg in range(config.machine.n_packages):
            cap_c = temperature_cap_c(config, pkg)
            floor_c = config.thermal_for_package(pkg).ambient_c - floor_slack_c
            for label, temp in (
                ("true", system.true_rc[pkg].temperature_c),
                ("estimated", system.est_rc[pkg].temperature_c),
            ):
                if not (floor_c <= temp <= cap_c) or not math.isfinite(temp):
                    self._emit(
                        tick, "temperature-rc-bounds",
                        f"package {pkg}: {label} temperature {temp!r} degC "
                        f"outside RC bounds [{floor_c:.1f}, {cap_c:.1f}]",
                    )

    def _ewma_inputs(self) -> list[float]:
        """Recompute this tick's thermal-EWMA input powers.

        Mirrors the idle/halted attribution of both thermal steps: a
        running CPU feeds its Eq. 1 estimate, a fully halted package
        spreads the hlt draw over its threads, an idle thread beside a
        busy sibling contributes nothing.
        """
        system = self.system
        pkg_all_halted = [
            not any(system._running[c] for c in cpus)
            for cpus in system._pkg_cpus
        ]
        inputs = []
        for c in range(system.n_cpus):
            if system._running[c]:
                inputs.append(system._est_power[c])
            elif pkg_all_halted[system._pkg_of[c]]:
                inputs.append(system._halted_share_w)
            else:
                inputs.append(0.0)
        return inputs

    def _check_ewma_decay(self, tick: int) -> None:
        if self._prev_tick != tick - 1 or self._prev_thermal is None:
            return  # needs consecutive samples
        self._ran("ewma-thermal-decay")
        system = self.system
        inputs = self._ewma_inputs()
        thermal = system.metrics.thermal_w
        for c in range(system.n_cpus):
            prev = self._prev_thermal[c]
            new = thermal[c]
            lo = min(prev, inputs[c])
            hi = max(prev, inputs[c])
            slack = self.ABS_TOL + self.REL_TOL * max(abs(lo), abs(hi))
            if not (lo - slack <= new <= hi + slack):
                self._emit(
                    tick, "ewma-thermal-decay",
                    f"CPU {c}: thermal EWMA moved {prev!r} -> {new!r} W, "
                    f"outside the contraction toward input {inputs[c]!r} W",
                )

    def _check_counter_bounds(self, tick: int) -> None:
        self._ran("counter-bounds")
        system = self.system
        counts = system._counts_mx
        modulus = system._counter_modulus
        # The valid-mask form (not its complement) catches NaN corruption
        # too: a NaN register fails *both* range comparisons.
        valid = (counts >= 0.0) & (counts < modulus)
        if not valid.all():
            for c in range(system.n_cpus):
                if not valid[c].all():
                    self._emit(
                        tick, "counter-bounds",
                        f"CPU {c}: counter registers {counts[c].tolist()} "
                        f"outside [0, {modulus:.0f})",
                    )

    def _check_runqueue_bookkeeping(self, tick: int) -> None:
        self._ran("runqueue-bookkeeping")
        for rq in self.system.runqueues.values():
            expected_nr = (1 if rq.current is not None else 0) + len(rq._queue)
            if rq.nr != expected_nr:
                self._emit(
                    tick, "runqueue-bookkeeping",
                    f"CPU {rq.cpu_id}: nr={rq.nr} but membership counts "
                    f"{expected_nr}",
                )
            if rq.current is not None and rq.current.state is not TaskState.RUNNING:
                self._emit(
                    tick, "runqueue-bookkeeping",
                    f"CPU {rq.cpu_id}: current pid={rq.current.pid} in state "
                    f"{rq.current.state.value}",
                )
            for task in rq._queue:
                if task.state is not TaskState.READY:
                    self._emit(
                        tick, "runqueue-bookkeeping",
                        f"CPU {rq.cpu_id}: queued pid={task.pid} in state "
                        f"{task.state.value}",
                    )
            for task in rq.tasks():
                if task.cpu != rq.cpu_id:
                    self._emit(
                        tick, "runqueue-bookkeeping",
                        f"CPU {rq.cpu_id}: member pid={task.pid} back-"
                        f"references CPU {task.cpu}",
                    )

    def _check_task_residency(self, tick: int) -> None:
        self._ran("task-residency")
        system = self.system
        occurrences: dict[int, int] = {}
        for rq in system.runqueues.values():
            for task in rq.tasks():
                occurrences[task.pid] = occurrences.get(task.pid, 0) + 1
        blocked_pids = {task.pid for _, task, _ in system._blocked}
        for task in system.live_tasks():
            count = occurrences.get(task.pid, 0)
            if task.is_runnable and count != 1:
                self._emit(
                    tick, "task-residency",
                    f"runnable pid={task.pid} appears on {count} runqueues",
                )
            elif task.state is TaskState.BLOCKED and (
                count != 0 or task.pid not in blocked_pids
            ):
                self._emit(
                    tick, "task-residency",
                    f"blocked pid={task.pid} on {count} runqueues "
                    f"(in wait list: {task.pid in blocked_pids})",
                )
        for cpu in range(system.n_cpus):
            for domain in system.hierarchy.chain(cpu):
                covered = sorted(c for g in domain.groups for c in g.cpus)
                if covered != sorted(domain.span):
                    self._emit(
                        tick, "task-residency",
                        f"domain {domain.name!r}: groups do not partition "
                        f"span {domain.span}",
                    )

    def _check_throttle_state(self, tick: int) -> None:
        self._ran("throttle-state")
        system = self.system
        throttle_config = system.config.throttle
        hlt_active = throttle_config.enabled and throttle_config.mode == "hlt"
        for c in range(system.n_cpus):
            scale = system._freq_scale[c]
            if not (0.0 < scale <= 1.0):
                self._emit(
                    tick, "throttle-state",
                    f"CPU {c}: frequency scale {scale!r} outside (0, 1]",
                )
            if system.throttle.throttled[c] and not hlt_active:
                self._emit(
                    tick, "throttle-state",
                    f"CPU {c}: throttled although hlt temperature control "
                    f"is not active (enabled={throttle_config.enabled}, "
                    f"mode={throttle_config.mode!r})",
                )
            if scale < 1.0 and not system._dvfs_mode:
                self._emit(
                    tick, "throttle-state",
                    f"CPU {c}: frequency scale {scale!r} < 1 outside DVFS mode",
                )

    def _check_dvfs_energy(self, tick: int, tick_s: float) -> None:
        self._ran("dvfs-energy-accounting")
        system = self.system
        ladder = set(system.dvfs.config.levels)
        for c in range(system.n_cpus):
            scale = system._freq_scale[c]
            if system._dvfs_mode:
                if scale not in ladder:
                    self._emit(
                        tick, "dvfs-energy-accounting",
                        f"CPU {c}: frequency scale {scale!r} is not on the "
                        f"configured ladder {sorted(ladder, reverse=True)}",
                    )
            elif scale != 1.0:
                self._emit(
                    tick, "dvfs-energy-accounting",
                    f"CPU {c}: frequency scale {scale!r} != 1.0 although "
                    "DVFS is not active",
                )
        for pkg, total in enumerate(system._pkg_energy_j):
            if not math.isfinite(total) or total < 0.0:
                self._emit(
                    tick, "dvfs-energy-accounting",
                    f"package {pkg}: accumulated energy {total!r} J",
                )
        # Frequency-aware Eq. 1 conservation: between consecutive ticks
        # the ledger grows by exactly est-power x tick (the DVFS-scaled
        # estimate, so the invariant holds at any frequency).
        if self._prev_tick != tick - 1 or self._prev_pkg_energy is None:
            return  # needs consecutive samples
        for pkg in range(len(system._pkg_energy_j)):
            grew = system._pkg_energy_j[pkg] - self._prev_pkg_energy[pkg]
            expected = system._est_pkg_power[pkg] * tick_s
            if not self._close(grew, expected):
                self._emit(
                    tick, "dvfs-energy-accounting",
                    f"package {pkg}: energy grew {grew!r} J this tick but "
                    f"estimated power x tick is {expected!r} J",
                )

    def _check_placement_cache(self, tick: int) -> None:
        placement = getattr(self.system.policy, "placement", None)
        if placement is None:
            return  # baseline policy has no first-timeslice table
        self._ran("placement-cache-consistency")
        known_inodes = {
            slot.spec.program.inode for slot in self.system.slots
        }
        for inode, power_w in sorted(placement._first_slice_power.items()):
            if not math.isfinite(power_w) or power_w < 0.0:
                self._emit(
                    tick, "placement-cache-consistency",
                    f"inode {inode}: first-timeslice power {power_w!r} W",
                )
            if inode not in known_inodes:
                self._emit(
                    tick, "placement-cache-consistency",
                    f"inode {inode} in the first-timeslice table but no "
                    f"workload slot runs that binary",
                )


# ---------------------------------------------------------------------------
# Pure predicate helpers — usable without a System (property tests, the
# event hooks above, ad-hoc harnesses).
# ---------------------------------------------------------------------------

def temperature_cap_c(config, package: int) -> float:
    """A generous upper bound on a package's RC temperature.

    Derived from the *configured* thermal parameters (not the live RC
    objects), so a fault that perturbs the heat-sink coefficients or
    drifts the sensor is detected as a model mismatch.  The power cap
    allows 60 W of dynamic power per thread on top of the active base —
    far above any calibrated program — plus 25% meter-noise headroom.
    """
    params = config.thermal_for_package(package)
    threads = config.machine.threads_per_core * config.machine.cores_per_package
    cap_w = (config.power.base_active_w + 60.0 * threads) * 1.25
    return params.steady_state_c(cap_w)


def hysteresis_violation(
    metrics: MetricsBoard,
    config: EnergyBalanceConfig,
    src: int,
    dst: int,
) -> str | None:
    """§4.4 dual condition for an ``energy_balance`` pull from ``src``
    to ``dst``; returns a message when the pull is forbidden."""
    problems = []
    if config.use_thermal_condition:
        src_ratio = metrics.thermal_power_ratio(src)
        dst_ratio = metrics.thermal_power_ratio(dst)
        if not src_ratio > dst_ratio + config.thermal_margin_ratio:
            problems.append(
                f"thermal ratio {src_ratio:.4f} !> {dst_ratio:.4f} + "
                f"{config.thermal_margin_ratio}"
            )
    if config.use_rq_condition:
        src_ratio = metrics.runqueue_power_ratio(src)
        dst_ratio = metrics.runqueue_power_ratio(dst)
        if not src_ratio > dst_ratio + config.rq_margin_ratio:
            problems.append(
                f"runqueue ratio {src_ratio:.4f} !> {dst_ratio:.4f} + "
                f"{config.rq_margin_ratio}"
            )
    if not problems:
        return None
    return (
        f"energy-balance pull {src} -> {dst} without hysteresis: "
        + "; ".join(problems)
    )


def hot_migration_violation(
    metrics: MetricsBoard,
    runqueues: Mapping[int, RunQueue],
    topology: Topology,
    config: HotMigrationConfig,
    task: Task,
    src: int,
    dst: int,
) -> str | None:
    """§4.5 preconditions for a ``hot_task`` move; ``None`` when legal."""
    problems = []
    if runqueues[src].nr_running != 1:
        problems.append(
            f"source queue holds {runqueues[src].nr_running} tasks (need 1)"
        )
    source_heat = metrics.package_thermal_sum_w(src)
    limit = metrics.package_max_power_w(src)
    if not source_heat > limit - config.trigger_margin_w:
        problems.append(
            f"source package {source_heat:.2f} W not within "
            f"{config.trigger_margin_w} W of its {limit:.2f} W limit"
        )
    dest_heat = metrics.package_thermal_sum_w(dst)
    if source_heat - dest_heat < config.min_delta_w:
        problems.append(
            f"destination only {source_heat - dest_heat:.2f} W cooler "
            f"(need >= {config.min_delta_w} W)"
        )
    if topology.package_of(src) == topology.package_of(dst):
        problems.append("destination shares the source package (§4.7)")
    dest_rq = runqueues[dst]
    if not dest_rq.is_idle:
        current = dest_rq.current
        single_cool = (
            dest_rq.nr_running == 1
            and current is not None
            and current.profile_power_w
            < task.profile_power_w - config.cool_task_margin_w
        )
        if not single_cool:
            problems.append(
                f"destination queue neither idle nor running a single "
                f"cool task (nr={dest_rq.nr_running})"
            )
    if not problems:
        return None
    return f"hot-task migration {src} -> {dst}: " + "; ".join(problems)


def placement_violation(
    runqueues: Mapping[int, RunQueue],
    task: Task,
    chosen: int,
) -> str | None:
    """§4.6 minimum-runqueue-length rule; ``None`` when legal."""
    allowed = [cpu for cpu in runqueues if task.allowed_on(cpu)]
    if chosen not in allowed:
        return (
            f"placement chose CPU {chosen}, outside the affinity set "
            f"{sorted(allowed)}"
        )
    min_len = min(runqueues[cpu].nr_running for cpu in allowed)
    if runqueues[chosen].nr_running != min_len:
        return (
            f"placement chose CPU {chosen} with {runqueues[chosen].nr_running} "
            f"runnable tasks; minimum over allowed CPUs is {min_len}"
        )
    return None
