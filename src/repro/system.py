"""The simulated machine: hardware + kernel + workload, advanced per tick.

:class:`System` wires every substrate together the way §5 describes the
kernel integration:

* an execution step runs each logical CPU's current task for one tick,
  crediting event counters and retiring instructions;
* the energy estimator turns counter deltas into energy, charged to the
  running task's profile at interval boundaries (task switch, timeslice
  end, blocking — the variable-period EWMA) and into the CPU's thermal
  power every tick;
* a thermal step integrates each package's true RC temperature from
  ground-truth power (and a parallel RC from *estimated* power, so the
  §4.2 "< 1 K estimation error" claim is checkable);
* the throttle controller halts CPUs whose thermal power exceeds the
  limit (when temperature control is enabled);
* scheduler housekeeping expires timeslices, runs the policy's periodic
  balancer (staggered per CPU), and checks hot-task migration;
* the workload driver forks task slots and respawns finished jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclasses_replace
from functools import lru_cache
from math import cos as _cos, inf, lcm, log as _log, sin as _sin, sqrt as _sqrt
from random import TWOPI as _TWOPI
from time import perf_counter

import numpy as np

from repro.config import SystemConfig
from repro.core.containers import ContainerConfig, ContainerManager
from repro.core.metrics import CpuStateBlock, MetricsBoard
from repro.core.policy import (
    BaselinePolicy,
    EnergyAwareConfig,
    EnergyAwarePolicy,
    SchedulingPolicy,
    balance_can_move,
)
from repro.core.policyspec import PolicySpec
from repro.core.profile import EnergyProfile
from repro.core.estimator import build_calibrated_estimator
from repro.cpu.dvfs import (
    DvfsController,
    TemperatureDvfsController,
    dynamic_power_scale,
)
from repro.cpu.frequency import ExecutionModel
from repro.cpu.events import N_EVENTS
from repro.cpu.pmc import CounterBank
from repro.cpu.power import GroundTruthPower, TickEnergyCache
from repro.cpu.thermal import ThermalDiode, ThermalRC, rc_decay
from repro.cpu.throttle import ThrottleController
from repro.cpu.topology import Topology
from repro.sched.domains import build_domains
from repro.sched.priorities import timeslice_ms
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task, TaskState
from repro.sim.clock import Clock
from repro.sim.events import EventKind, EventRecord
from repro.sim.rng import RngFactory
from repro.sim.trace import Tracer
from repro.workloads.generator import TaskSpec, WorkloadSpec
from repro.workloads.programs import PROGRAMS


#: Checkpoint format identity.  The schema string names the container
#: layout (header fields + pickled machine payload); the version bumps
#: whenever either changes incompatibly.  Loaders reject anything else.
CHECKPOINT_SCHEMA = "repro-checkpoint"
CHECKPOINT_VERSION = 1

#: Attributes excluded from pickling: every one is *derived* — either a
#: pure memo (cleared and recomputed on demand, values bit-identical by
#: construction) or an alias into state that pickle cannot preserve
#: (numpy views lose their base; bound-method shadows rebind to the old
#: object).  ``__setstate__`` re-derives them all.
_DERIVED_ATTRS = (
    "tick",            # profiled-tick method shadow (bound to the old self)
    "_bank_rows",      # views into _counts_mx (numpy pickles views as copies)
    "_pmc_gauss",      # bound methods of the per-CPU jitter streams
    "_pmc_rngs",       # the jitter stream objects themselves
    "_meter_gauss",    # bound methods of the per-package meter streams
    "_mix_cache",      # id()-keyed memo of dynamic power per mix
    "_tick_cache",     # id()-keyed memo of per-(mix, cycles) tick energy
    "_cycles_for_dt",  # per-tick-length memo
    "_rc_decay_dt",    # per-tick-length memo
    "_rc_decays",      # per-tick-length memo
    "_sib1",           # single-SMT-sibling index table (from _siblings)
    "_hk_tables",      # housekeeping fire tables (from the tick periods)
    "_next_fork_ms",   # earliest arrival among unforked slots (inf: none)
    "_exec_memo",      # per-CPU (mix, cycles, entry) memo over _tick_cache
    "_jit_scratch",    # per-tick counter-credit scratch row
    "_pkg_pairs",      # two-CPU package index pairs (from _pkg_cpus)
    "_obs_audit",      # alias of observer.audit (None when obs is off)
    "_obs_balance_hist",  # alias of observer.balance_hist (ditto)
)

#: Housekeeping fire tables repeat with period lcm(balance, idle, hot)
#: ticks; beyond this many entries the table is not worth the memory and
#: :meth:`System._housekeeping` computes each tick's fires by modulo.
_HK_TABLE_MAX = 16384


def _hk_fires(
    ticks: int, b: int, i: int, h: int, n_cpus: int
) -> tuple[tuple[int, int], ...]:
    """Which CPUs' periodic work fires on tick ``ticks``, as ``(cpu, mask)``.

    Mask bits: 1 = balance fires, 2 = idle balance candidate, 4 = hot
    check fires, for balance / idle / hot periods ``b`` / ``i`` / ``h``
    ticks.  CPUs with no work that tick are left out.
    """
    fires = []
    for c in range(n_cpus):
        mask = 0
        if (ticks + c * 3) % b == 0:
            mask |= 1
        if (ticks + c) % i == 0:
            mask |= 2
        if (ticks + c) % h == 0:
            mask |= 4
        if mask:
            fires.append((c, mask))
    return tuple(fires)


@lru_cache(maxsize=16)
def _hk_fire_table(
    b: int, i: int, h: int, n_cpus: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """:func:`_hk_fires` for each residue of the stagger period
    lcm(b, i, h), shared by every machine with the same cadences."""
    return tuple(_hk_fires(r, b, i, h, n_cpus) for r in range(lcm(b, i, h)))


def _next_arrival_ms(slots: list[SlotState]) -> float:
    """Earliest arrival (ms) among the slots not yet forked; inf if none."""
    return min(
        (slot.spec.arrival_s * 1000 for slot in slots if not slot.forked),
        default=inf,
    )


def _sib1_table(siblings: list[tuple[int, ...]]) -> list[int]:
    """Per-CPU single-sibling index for the fast execution path.

    ``sib1[c]`` is the lone SMT sibling of ``c`` when the core runs two
    threads, ``-1`` when ``c`` has no sibling, and ``-2`` when a core
    runs more than two threads (the general loop handles that case).
    """
    return [
        s[0] if len(s) == 1 else (-1 if not s else -2) for s in siblings
    ]


@dataclass
class SlotState:
    """Runtime state of one workload slot."""

    index: int
    spec: TaskSpec
    task: Task | None = None
    forked: bool = False
    finished_jobs: int = 0


class System:
    """One complete simulated machine plus its workload."""

    def __init__(
        self,
        config: SystemConfig,
        workload: WorkloadSpec,
        policy: PolicySpec | str = "energy",
        policy_config: EnergyAwareConfig | None = None,
        tracer: Tracer | None = None,
        fast_path: bool = True,
        validate=False,
        obs=False,
    ) -> None:
        policy = PolicySpec.coerce(policy)
        if policy.scheduling == "baseline" and policy_config is not None:
            raise ValueError(
                "policy_config configures the energy-aware scheduler and is "
                "meaningless with policy='baseline'; pass policy='energy' or "
                "drop policy_config"
            )
        # A policy that implies a temperature-control mode (hlt-throttle,
        # the DVFS family) forces it into the run's config up front, so
        # everything downstream — the throttle step, fleet eligibility,
        # checkpoint headers, the validator — sees one effective config.
        forced_throttle = policy.throttle_override(config.throttle)
        if forced_throttle is not None:
            config = dataclasses_replace(config, throttle=forced_throttle)
        self.config = config
        self.workload = workload
        self.policy_spec = policy
        self.policy_name = policy.name
        self.fast_path = bool(fast_path)
        self.tracer = tracer if tracer is not None else Tracer(config.sample_interval_s)
        self.rng = RngFactory(config.seed)
        spec = config.machine

        # -- hardware ---------------------------------------------------------
        self.topology = Topology(spec)
        self.n_cpus = len(self.topology)
        self.exec_model = ExecutionModel(
            freq_hz=spec.freq_hz, smt_thread_factor=config.smt_thread_factor
        )
        self.power = GroundTruthPower(config.power)
        self.banks = [
            CounterBank(c, self.rng.stream(f"pmc:{c}"), config.counter_jitter_sigma)
            for c in range(self.n_cpus)
        ]
        self._threads_per_pkg = spec.threads_per_core * spec.cores_per_package
        self._halted_share_w = config.power.halted_package_w / self._threads_per_pkg
        idle_temps = []
        self.true_rc: list[ThermalRC] = []
        self.est_rc: list[ThermalRC] = []
        for pkg in range(spec.n_packages):
            params = config.thermal_for_package(pkg)
            idle_temp = params.steady_state_c(config.power.halted_package_w)
            idle_temps.append(idle_temp)
            self.true_rc.append(ThermalRC(params, initial_c=idle_temp))
            self.est_rc.append(ThermalRC(params, initial_c=idle_temp))
        self.throttle = ThrottleController(self.n_cpus, config.throttle)
        self._dvfs_kind = policy.dvfs_kind or "reactive"
        if self._dvfs_kind == "proactive":
            self.dvfs: DvfsController | TemperatureDvfsController = (
                TemperatureDvfsController(self.n_cpus, policy.dvfs_config())
            )
            # Per-package temperature targets: the thermal limit (or the
            # steady-state temperature of the package power budget when
            # no explicit limit is set) minus the safety margin.  An
            # unconstrained package gets an unreachable target and the
            # governor never scales.
            margin = self.dvfs.config.target_margin_c
            self._dvfs_target_c = []
            for pkg in range(spec.n_packages):
                limit_c = (
                    config.temp_limit_c
                    if config.temp_limit_c is not None
                    else config.thermal_for_package(pkg).steady_state_c(
                        config.package_max_power_w(pkg)
                    )
                )
                self._dvfs_target_c.append(limit_c - margin)
        else:
            self.dvfs = DvfsController(self.n_cpus, policy.dvfs_config())
            self._dvfs_target_c = []
        self._dvfs_mode = config.throttle.enabled and config.throttle.mode == "dvfs"
        self._freq_scale = [1.0] * self.n_cpus

        # -- estimator (calibrated as in §3.2) ---------------------------------
        self.estimator = build_calibrated_estimator(
            self.power,
            self.exec_model,
            PROGRAMS.values(),
            self.rng.stream("calibration"),
            smt=spec.smt_enabled,
        )

        # -- scheduler --------------------------------------------------------
        self.runqueues = {c: RunQueue(c) for c in range(self.n_cpus)}
        self.hierarchy = build_domains(self.topology)
        max_power = {
            c: config.cpu_max_power_w(self.topology.package_of(c))
            for c in range(self.n_cpus)
        }
        # Per-logical thermal power uses the package's RC time constant.
        tau_by_cpu = {
            c: config.thermal_for_package(self.topology.package_of(c)).tau_s
            for c in range(self.n_cpus)
        }
        self.metrics = MetricsBoard(
            self.topology,
            self.runqueues,
            tau_s=tau_by_cpu,
            max_power_w=max_power,
            initial_thermal_w=self._halted_share_w,
            fast=self.fast_path,
        )

        self.policy: SchedulingPolicy
        if policy.scheduling == "energy":
            effective_config = policy_config
            if not policy.hot_migration:
                # The pure DVFS variants strip hot-CPU migration from the
                # lever set so the governor is the only thermal response.
                effective_config = dataclasses_replace(
                    effective_config
                    if effective_config is not None
                    else EnergyAwareConfig(),
                    enable_hot_migration=False,
                )
            self.policy = EnergyAwarePolicy(
                self.metrics,
                self.hierarchy,
                self.runqueues,
                self._migrate,
                effective_config,
            )
            self._profile_config = self.policy.config.profile
        else:
            base = BaselinePolicy(
                self.hierarchy, self.runqueues, self._migrate
            )
            self.policy = base
            self._profile_config = base.profile_config

        # -- workload ----------------------------------------------------------
        self.slots = [SlotState(i, s) for i, s in enumerate(workload.tasks)]
        self.containers = ContainerManager()
        self.exited_tasks: list[Task] = []
        self._next_pid = 1
        self._blocked: list[tuple[int, Task, int]] = []  # (wake_ms, task, cpu)

        # -- per-tick bookkeeping ----------------------------------------------
        self._interval_energy = [0.0] * self.n_cpus
        self._interval_busy = [0.0] * self.n_cpus
        self._running = [False] * self.n_cpus
        self._est_power = [0.0] * self.n_cpus
        self._dyn_power = [0.0] * self.n_cpus
        self._mix_cache: dict[int, tuple[object, float]] = {}
        self.instructions_retired: dict[str, float] = {}
        self._est_err_sum = 0.0
        self._est_err_n = 0
        self._busy_ticks = [0] * self.n_cpus
        self._total_ticks = 0
        self._est_pkg_power = [0.0] * spec.n_packages
        # Frequency-aware Eq. 1 energy ledger: per-package estimated
        # energy, integrated as est-power x tick every thermal step.
        # Real run state (not derived), so it pickles with checkpoints.
        self._pkg_energy_j = [0.0] * spec.n_packages
        self._pkg_temp_c = list(idle_temps)
        self._pkg_est_temp_c = list(idle_temps)
        self.diode = ThermalDiode()
        self._now_ms = 0
        self.max_temp_err_k = 0.0
        self.max_temp_seen_c = max(idle_temps)

        # -- struct-of-arrays state block ---------------------------------------
        # All columns are shared by reference with the board, the throttle
        # controller, and the per-tick lists above; the block is a live
        # window onto the machine state, advanced wholesale by the batched
        # tick path.
        self.state = CpuStateBlock(
            thermal_w=self.metrics.thermal_w,
            max_power_w=self.metrics.max_power,
            est_power_w=self._est_power,
            dyn_power_w=self._dyn_power,
            running=self._running,
            freq_scale=self._freq_scale,
            throttled=self.throttle.throttled,
            pkg_temp_c=self._pkg_temp_c,
            pkg_est_temp_c=self._pkg_est_temp_c,
            pkg_est_power_w=self._est_pkg_power,
        )

        # -- fast-path scratch ---------------------------------------------------
        # Hoisted topology tables (pure lookups, identical values to the
        # Topology methods the scalar path calls) and memoisation keyed on
        # the tick length, which is constant within a run.
        self._pkg_cpus = [
            tuple(self.topology.cpus_of_package(p)) for p in range(spec.n_packages)
        ]
        self._pkg_of = [self.topology.package_of(c) for c in range(self.n_cpus)]
        self._siblings = [tuple(self.topology.siblings_of(c)) for c in range(self.n_cpus)]
        self._meter_rngs = [
            self.rng.stream(f"meter:{pkg}") for pkg in range(spec.n_packages)
        ]
        self._meter_gauss = [r.gauss for r in self._meter_rngs]
        self._rq_list = [self.runqueues[c] for c in range(self.n_cpus)]
        self._tick_cache = TickEnergyCache(
            self.estimator, self.power, self.exec_model.freq_hz
        )
        # Bound gauss methods of the per-CPU PMC jitter streams — the
        # factory caches streams, so these are the very same RNG objects
        # the counter banks draw from.
        self._pmc_rngs = [self.rng.stream(f"pmc:{c}") for c in range(self.n_cpus)]
        self._pmc_gauss = [r.gauss for r in self._pmc_rngs]
        self._sib1 = _sib1_table(self._siblings)
        self._exec_memo: list[tuple | None] = [None] * self.n_cpus
        self._jit_scratch = np.zeros(N_EVENTS)
        self._pkg_pairs = [
            cpus if len(cpus) == 2 else None for cpus in self._pkg_cpus
        ]
        # The container manager only ever holds tasks whose slot carries a
        # power cap, and respawns reuse the same slot specs, so a capless
        # workload keeps it empty for the whole run.
        self._has_power_caps = any(
            s.power_cap_w is not None for s in workload.tasks
        )
        # All counter banks share one counts matrix so the batched path
        # can apply the wraparound modulus once per tick; the per-bank
        # credit path mutates its row in place and stays equivalent.
        self._counts_mx = np.zeros((self.n_cpus, N_EVENTS))
        for c, bank in enumerate(self.banks):
            bank.bind_row(self._counts_mx[c])
        self._bank_rows = [self._counts_mx[c] for c in range(self.n_cpus)]
        self._counter_modulus = self.banks[0].modulus
        self._thermal_in_w = [0.0] * self.n_cpus
        self._cycles_for_dt: tuple[float, float, float] | None = None
        self._rc_decay_dt: float | None = None
        self._rc_decays: list[float] = []

        # -- optional runtime validation -----------------------------------------
        # Off by default: the disabled cost is one attribute test per
        # hook site.  ``validate`` accepts True or a ValidationConfig;
        # the import is lazy to keep the validate package optional on
        # the hot import path (and to avoid a cycle through repro.api).
        self.validator = None
        self.fault_injector = None  # installed by repro.validate.faults
        if validate:
            from repro.validate.invariants import InvariantChecker, ValidationConfig

            vconfig = validate if isinstance(validate, ValidationConfig) else None
            self.validator = InvariantChecker(self, vconfig)

        # -- optional observability ----------------------------------------------
        # Same opt-in pattern as the validator: ``None`` unless the run
        # asked for it, one attribute test per hook site when disabled,
        # lazy import to keep repro.obs off the hot import path.
        self.observer = None
        # Pre-bound hook-site aliases: the tick-rate paths read one
        # attribute (almost always None) instead of chasing
        # observer -> audit / balance_hist and branching every tick.
        self._obs_audit = None
        self._obs_balance_hist = None
        if obs:
            from repro.obs.observer import ObservabilityConfig, Observer

            oconfig = ObservabilityConfig.coerce(obs)
            if oconfig is not None:
                self.observer = Observer(self, oconfig)
                self._obs_audit = self.observer.audit
                self._obs_balance_hist = self.observer.balance_hist
                if self.observer.profile is not None:
                    # Shadow the bound method with the timed variant so
                    # the normal tick loop carries no profiling branch.
                    self.tick = self._tick_profiled

        # Tick periods.
        tick = config.tick_ms
        self._timeslice_ticks = max(1, config.timeslice_ms // tick)
        self._balance_ticks = max(1, config.balance_interval_ms // tick)
        self._idle_balance_ticks = max(1, config.idle_balance_interval_ms // tick)
        self._hot_check_ticks = max(1, config.hot_check_interval_ms // tick)
        self._sample_every = max(1, int(config.sample_interval_s * 1000) // tick)
        self._hk_tables: tuple[tuple[tuple[int, int], ...], ...] | None = None
        self._next_fork_ms = _next_arrival_ms(self.slots)

    # ------------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------------
    # Pickle captures the whole machine: tasks, runqueues, EWMA profiles,
    # thermal RC state, the RNG factory with the exact Mersenne state of
    # every stream, tracer series/events/counters, and (when enabled)
    # the validator and observer.  Shared references — streams handed to
    # behaviors and banks, list columns shared between the metrics board
    # and the state block, tasks on runqueues and in slots — survive via
    # the pickle memo.  Only the derived attributes in _DERIVED_ATTRS
    # are dropped and rebuilt, so a restored system continues the run
    # bit-identically (asserted per pinned scenario in
    # tests/test_resilience_checkpoint.py).

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in _DERIVED_ATTRS:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Re-alias each counter bank onto its matrix row: the values are
        # already equal (the row and the bank's standalone copy pickled
        # from the same memory), so rebinding only restores the aliasing
        # the batched path needs.
        for c, bank in enumerate(self.banks):
            bank.bind_row(self._counts_mx[c])
        self._bank_rows = [self._counts_mx[c] for c in range(self.n_cpus)]
        self._pmc_rngs = [self.rng.stream(f"pmc:{c}") for c in range(self.n_cpus)]
        self._pmc_gauss = [r.gauss for r in self._pmc_rngs]
        self._meter_gauss = [r.gauss for r in self._meter_rngs]
        self._sib1 = _sib1_table(self._siblings)
        self._hk_tables = None
        self._next_fork_ms = _next_arrival_ms(self.slots)
        self._exec_memo = [None] * self.n_cpus
        self._jit_scratch = np.zeros(N_EVENTS)
        self._pkg_pairs = [
            cpus if len(cpus) == 2 else None for cpus in self._pkg_cpus
        ]
        self._mix_cache = {}
        self._tick_cache = TickEnergyCache(
            self.estimator, self.power, self.exec_model.freq_hz
        )
        self._cycles_for_dt = None
        self._rc_decay_dt = None
        self._rc_decays = []
        observer = self.observer
        self._obs_audit = observer.audit if observer is not None else None
        self._obs_balance_hist = (
            observer.balance_hist if observer is not None else None
        )
        if observer is not None:
            if observer.audit is not None:
                observer.audit.rearm(lambda: self._now_ms)
            if observer.profile is not None:
                self.tick = self._tick_profiled

    def snapshot(self) -> dict:
        """A versioned, self-contained checkpoint of the machine.

        The returned dict is the in-memory checkpoint format:
        identifying header fields plus the pickled machine as the
        ``payload``.  :func:`repro.resilience.checkpoint.save_checkpoint`
        writes it to disk atomically; :meth:`restore` rebuilds the
        system.  Snapshotting reads state only — taking one mid-run does
        not perturb the run.
        """
        import pickle

        return {
            "schema": f"{CHECKPOINT_SCHEMA}/{CHECKPOINT_VERSION}",
            "version": CHECKPOINT_VERSION,
            "tick_ms": self.config.tick_ms,
            "now_ms": self._now_ms,
            "ticks": self._now_ms // self.config.tick_ms,
            "policy": self.policy_name,
            "fast_path": self.fast_path,
            "payload": pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL),
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "System":
        """Rebuild a machine from a :meth:`snapshot` dict.

        Validates the schema/version header before unpickling and
        raises ``ValueError`` on anything this code cannot load.
        """
        schema = snapshot.get("schema")
        expected = f"{CHECKPOINT_SCHEMA}/{CHECKPOINT_VERSION}"
        if schema != expected:
            raise ValueError(
                f"unsupported checkpoint schema {schema!r}; this build "
                f"reads {expected!r}"
            )
        import pickle

        system = pickle.loads(snapshot["payload"])
        if not isinstance(system, cls):
            raise ValueError(
                f"checkpoint payload is {type(system).__name__}, not a System"
            )
        return system

    # ------------------------------------------------------------------------
    # Tick phases
    # ------------------------------------------------------------------------
    def tick(self, clock: Clock) -> None:
        now_ms = clock.now_ms
        self._now_ms = now_ms
        if self._has_power_caps and len(self.containers):
            self.containers.refill_all(clock.tick_s)
        self._wake_due(now_ms)
        self._fork_due(now_ms)
        self._dispatch()
        if self.fast_path:
            self._execute_fast(clock)
            self._thermal_step_fast(clock)
        else:
            self._execute(clock)
            self._thermal_step(clock)
        self._throttle_step(clock)
        self._housekeeping(clock)
        # The first tick samples too, so every series starts near t=0
        # instead of one interval in.
        if clock.ticks == 1 or clock.ticks % self._sample_every == 0:
            self._sample_traces(clock)
        if self.validator is not None:
            self.validator.after_tick(clock)

    def _tick_profiled(self, clock: Clock) -> None:
        """The tick loop with per-phase wall timers.

        Installed over :meth:`tick` when the run's
        :class:`~repro.obs.observer.ObservabilityConfig` enables
        profiling.  Calls the same phase methods in the same order —
        both the fast and the scalar execution path go through here —
        so results are unchanged; only wall time is observed.
        """
        prof = self.observer.profile
        now = perf_counter
        now_ms = clock.now_ms
        self._now_ms = now_ms
        t0 = now()
        if self._has_power_caps and len(self.containers):
            self.containers.refill_all(clock.tick_s)
        self._wake_due(now_ms)
        self._fork_due(now_ms)
        t1 = now()
        prof.add("wake_fork", t1 - t0)
        self._dispatch()
        t2 = now()
        prof.add("dispatch", t2 - t1)
        if self.fast_path:
            self._execute_fast(clock)
            t3 = now()
            prof.add("execute", t3 - t2)
            self._thermal_step_fast(clock)
        else:
            self._execute(clock)
            t3 = now()
            prof.add("execute", t3 - t2)
            self._thermal_step(clock)
        t4 = now()
        prof.add("thermal", t4 - t3)
        self._throttle_step(clock)
        t5 = now()
        prof.add("throttle", t5 - t4)
        self._housekeeping(clock)
        t6 = now()
        prof.add("housekeeping", t6 - t5)
        if clock.ticks == 1 or clock.ticks % self._sample_every == 0:
            self._sample_traces(clock)
            t7 = now()
            prof.add("sample", t7 - t6)
        else:
            t7 = t6
        if self.validator is not None:
            self.validator.after_tick(clock)
            prof.add("validate", now() - t7)
        prof.tick_done()

    # -- wakeups and forks ------------------------------------------------------
    def _wake_due(self, now_ms: int) -> None:
        if not self._blocked:
            return
        still: list[tuple[int, Task, int]] = []
        for wake_ms, task, cpu in self._blocked:
            if wake_ms <= now_ms:
                self._resample_run_budget(task)
                task.note_ready(now_ms)
                self.runqueues[cpu].enqueue(task)
                self.tracer.event(
                    EventRecord(now_ms, EventKind.TASK_WAKE, cpu=cpu, pid=task.pid)
                )
            else:
                still.append((wake_ms, task, cpu))
        self._blocked = still

    def _fork_due(self, now_ms: int) -> None:
        # Slots fork exactly once, in slot order; until the earliest
        # pending arrival this is one comparison per tick.
        if now_ms < self._next_fork_ms:
            return
        next_ms = inf
        for slot in self.slots:
            if not slot.forked:
                arrival_ms = slot.spec.arrival_s * 1000
                if arrival_ms <= now_ms:
                    self._fork(slot, now_ms)
                elif arrival_ms < next_ms:
                    next_ms = arrival_ms
        self._next_fork_ms = next_ms

    def _fork(self, slot: SlotState, now_ms: int) -> Task:
        """Create a new task for a slot and place it via the policy (§4.6)."""
        spec = slot.spec
        program = spec.program
        behavior = program.build_behavior(
            self.power,
            self.exec_model.freq_hz,
            self.rng.stream(f"behavior:slot{slot.index}"),
        )
        task = Task(
            pid=self._next_pid,
            name=program.name,
            inode=program.inode,
            behavior=behavior,
            job_instructions=spec.job_instructions(self.exec_model.freq_hz),
            spec=spec,
            nice=spec.nice,
            cpus_allowed=(
                frozenset(spec.cpus_allowed) if spec.cpus_allowed is not None else None
            ),
        )
        self._next_pid += 1
        task.started_at_ms = now_ms
        task.profile = EnergyProfile(
            self._profile_config,
            initial_power_w=self.policy.initial_profile_power(task),
        )
        self._resample_run_budget(task)
        if spec.power_cap_w is not None:
            self.containers.assign(task, ContainerConfig(refill_w=spec.power_cap_w))
        cpu = self.policy.place_new_task(task)
        if self.validator is not None:
            self.validator.on_placement(task, cpu)
        task.note_ready(now_ms)
        self.runqueues[cpu].enqueue(task)
        slot.task = task
        slot.forked = True
        self.tracer.event(
            EventRecord(now_ms, EventKind.TASK_START, cpu=cpu, pid=task.pid,
                        detail={"name": program.name, "slot": slot.index})
        )
        return task

    def _resample_run_budget(self, task: Task) -> None:
        interactive = task.spec.program.interactive if task.spec else None
        if interactive is None:
            task.run_remaining_s = None
            return
        mean_run_s, _ = interactive
        rng = self.rng.stream(f"interactive:{task.name}")
        task.run_remaining_s = rng.expovariate(1.0 / mean_run_s)

    # -- dispatch and execution ---------------------------------------------------
    def _timeslice_for(self, task: Task) -> float:
        """Timeslice length for a task (priority-scaled, §3.3's premise)."""
        return timeslice_ms(task.nice, self.config.timeslice_ms)

    def _dispatch(self) -> None:
        eligible = (
            self.containers.eligible
            if self._has_power_caps and len(self.containers)
            else None
        )
        for rq in self._rq_list:
            if rq.current is None and rq.nr:
                task = rq.pick_next(eligible)
                if task is not None and task.timeslice_remaining_ms <= 0:
                    task.timeslice_remaining_ms = self._timeslice_for(task)

    def _execute(self, clock: Clock) -> None:
        tick_s = clock.tick_s
        topology = self.topology
        running = self._running
        for c in range(self.n_cpus):
            rq = self.runqueues[c]
            running[c] = rq.current is not None and not self.throttle.is_throttled(c)
            self._est_power[c] = 0.0
            self._dyn_power[c] = 0.0
        self._total_ticks += 1
        for c in range(self.n_cpus):
            if not running[c]:
                continue
            self._busy_ticks[c] += 1
            rq = self.runqueues[c]
            task = rq.current
            assert task is not None
            if task.ready_since_ms is not None:
                task.note_dispatched(self._now_ms)
            siblings = topology.siblings_of(c)
            n_busy_threads = 1 + sum(1 for s in siblings if running[s])
            sibling_busy = n_busy_threads > 1
            mix = task.behavior.step(tick_s)
            dyn_w = self._dynamic_power(mix)
            cycles = self.exec_model.effective_cycles(tick_s, sibling_busy)
            if sibling_busy:
                dyn_w *= self.exec_model.smt_thread_factor
            scale = self._freq_scale[c]
            if scale < 1.0:
                # DVFS: work slows linearly, dynamic power cubically.
                cycles *= scale
                dyn_w *= dynamic_power_scale(scale)
            bank = self.banks[c]
            jitter = bank.draw_jitter(cycles)
            base_increments = mix.rates_per_cycle * cycles
            unit_nj = self.estimator.unit_energy_nj(base_increments)
            bank.credit(
                base_increments if jitter == 1.0 else base_increments * jitter
            )
            # The kernel set the frequency, so it corrects the per-event
            # energy for the lower voltage (counts already carry one
            # factor of the frequency).  Jitter and the voltage correction
            # are multiplicative on the whole event term (Eq. 1 factored
            # form) — the batched path computes the identical expression.
            scale_factor = jitter if scale == 1.0 else jitter * (scale * scale)
            est_e = self.estimator.tick_energy_j(
                unit_nj, scale_factor, tick_s, 1.0 / n_busy_threads
            )
            if len(self.containers):
                self.containers.charge(task, est_e)
            self._interval_energy[c] += est_e
            self._interval_busy[c] += tick_s
            self._est_power[c] = est_e / tick_s
            self._dyn_power[c] = dyn_w
            task.total_busy_s += tick_s
            task.total_energy_j += est_e
            name = task.name
            instructions = cycles * mix.ipc
            if task.cold_instructions_remaining > 0.0:
                instructions = self._apply_cache_warmup(task, instructions)
            self.instructions_retired[name] = (
                self.instructions_retired.get(name, 0.0) + instructions
            )
            job_done = task.retire(instructions)
            task.timeslice_remaining_ms -= clock.tick_ms
            if task.run_remaining_s is not None:
                task.run_remaining_s -= tick_s
            if job_done:
                self._complete_job(task, clock)
                if rq.current is not task:
                    continue  # task exited (fork_new/none respawn)
            if task.run_remaining_s is not None and task.run_remaining_s <= 0:
                self._block(task, clock)
                continue
            container_exhausted = (
                len(self.containers) > 0 and not self.containers.eligible(task)
            )
            if task.timeslice_remaining_ms <= 0 or container_exhausted:
                self._end_interval(c, task)
                eligible = (
                    self.containers.eligible if len(self.containers) else None
                )
                nxt = rq.pick_next(eligible)
                if nxt is not None and nxt.timeslice_remaining_ms <= 0:
                    nxt.timeslice_remaining_ms = self._timeslice_for(nxt)

    def _execute_fast(self, clock: Clock) -> None:
        """The batched execution step.

        Performs exactly the arithmetic of :meth:`_execute` — the Eq. 1
        factored energy, the same RNG draws in the same order — over the
        struct-of-arrays columns, with the per-tick invariants hoisted:
        effective cycle counts are memoised per tick length, per-(mix,
        cycles) counter increments and unit energies come from the
        :class:`~repro.cpu.power.TickEnergyCache`, and attribute lookups
        are bound once per tick instead of once per CPU.
        """
        tick_s = clock.tick_s
        tick_ms = clock.tick_ms
        now_ms = self._now_ms
        n_cpus = self.n_cpus
        rq_list = self._rq_list
        running = self._running
        throttled = self.throttle.throttled
        est_power = self._est_power
        dyn_power = self._dyn_power
        # CPUs only ever throttle when hlt-throttling is active (DVFS
        # rescales instead of halting), so the flag test can be hoisted.
        use_throttled = self.config.throttle.enabled and not self._dvfs_mode
        if use_throttled:
            for c in range(n_cpus):
                running[c] = rq_list[c].current is not None and not throttled[c]
                est_power[c] = 0.0
                dyn_power[c] = 0.0
        else:
            for c in range(n_cpus):
                running[c] = rq_list[c].current is not None
                est_power[c] = 0.0
                dyn_power[c] = 0.0
        self._total_ticks += 1
        cached = self._cycles_for_dt
        if cached is None or cached[0] != tick_s:
            cached = (
                tick_s,
                self.exec_model.effective_cycles(tick_s, False),
                self.exec_model.effective_cycles(tick_s, True),
            )
            self._cycles_for_dt = cached
        cycles_solo, cycles_smt = cached[1], cached[2]
        smt_factor = self.exec_model.smt_thread_factor
        siblings = self._siblings
        bank_rows = self._bank_rows
        freq_scale = self._freq_scale
        busy_ticks = self._busy_ticks
        interval_energy = self._interval_energy
        interval_busy = self._interval_busy
        containers = self.containers
        # When no workload slot carries a power cap the container manager
        # stays empty for the whole run; skip its per-CPU checks outright.
        use_containers = self._has_power_caps
        cache_get = self._tick_cache.cache.get
        cache_miss = self._tick_cache.miss
        pmc_rngs = self._pmc_rngs
        pmc_gauss = self._pmc_gauss
        # The fault injector perturbs counters by shadowing the jitter
        # streams' gauss; with one installed, draws must go through the
        # (possibly wrapped) bound methods instead of the inline copy.
        inline_gauss = self.fault_injector is None
        sib1 = self._sib1
        exec_memo = self._exec_memo
        jit_scratch = self._jit_scratch
        jitter_sigma = self.config.counter_jitter_sigma
        dvfs_on = self._dvfs_mode
        base_w = self.estimator.base_w
        bwts = base_w * tick_s
        retired = self.instructions_retired
        retired_get = retired.get
        for c in range(n_cpus):
            if not running[c]:
                continue
            busy_ticks[c] += 1
            rq = rq_list[c]
            task = rq.current
            if task.ready_since_ms is not None:
                task.note_dispatched(now_ms)
            # Two-thread cores (the common topology) read their lone
            # sibling directly; -1 means no SMT, -2 falls back to the
            # general scan.
            s = sib1[c]
            if s >= 0:
                sibling_busy = running[s]
                n_busy_threads = 2 if sibling_busy else 1
            elif s == -1:
                sibling_busy = False
                n_busy_threads = 1
            else:
                n_busy_threads = 1
                for s in siblings[c]:
                    if running[s]:
                        n_busy_threads += 1
                sibling_busy = n_busy_threads > 1
            # Inlined Behavior.step common case (no wobble resample, no
            # phase expiry): take the cached mix and advance the two
            # timers, exactly as step() would.  Everything else falls
            # through to the full method.
            beh = task.behavior
            if (
                beh._wobble_remaining_s > 0.0
                and beh._phase_remaining_s > tick_s
                and beh._cached_mix is not None
            ):
                mix = beh._cached_mix
                beh._phase_remaining_s -= tick_s
                beh._wobble_remaining_s -= tick_s
            else:
                mix = beh.step(tick_s)
            cycles = cycles_smt if sibling_busy else cycles_solo
            # freq_scale stays pinned at 1.0 unless the DVFS controller
            # is driving it, so the read can be skipped outright.
            scale = freq_scale[c] if dvfs_on else 1.0
            if scale < 1.0:
                # DVFS: work slows linearly (power is rescaled below).
                cycles *= scale
            # One-entry memo per CPU in front of the shared tick cache:
            # mixes are stable across many ticks, so the identity check
            # usually short-circuits the tuple build + dict probe.
            memo = exec_memo[c]
            if memo is not None and memo[0] is mix and memo[1] == cycles:
                entry = memo[2]
            else:
                entry = cache_get((id(mix), cycles))
                if entry is None or entry[0] is not mix:
                    entry = cache_miss(mix, cycles)
                exec_memo[c] = (mix, cycles, entry)
            dyn_w = entry[3]
            if sibling_busy:
                dyn_w *= smt_factor
            if scale < 1.0:
                # DVFS: dynamic power falls cubically.
                dyn_w *= dynamic_power_scale(scale)
            # Inlined CounterBank.draw_jitter — same condition, same
            # values (the branch is max(0.0, x) spelled out), same RNG
            # stream, with random.gauss itself inlined: the identical
            # Box-Muller expressions on the same Random state, and
            # ``0.0 + z*sigma == z*sigma`` bit for bit (the +0.0 of the
            # library's mu-add only normalises -0.0, which the outer
            # 1.0+ add does anyway).
            if jitter_sigma and cycles > 0:
                if inline_gauss:
                    rng = pmc_rngs[c]
                    z = rng.gauss_next
                    rng.gauss_next = None
                    if z is None:
                        u = rng.random
                        x2pi = u() * _TWOPI
                        g2rad = _sqrt(-2.0 * _log(1.0 - u()))
                        z = _cos(x2pi) * g2rad
                        rng.gauss_next = _sin(x2pi) * g2rad
                    jitter = 1.0 + z * jitter_sigma
                else:
                    jitter = 1.0 + pmc_gauss[c](0.0, jitter_sigma)
                if jitter < 0.0:
                    jitter = 0.0
            else:
                jitter = 1.0
            # Credit the counter bank through its shared matrix row; the
            # wraparound modulus is applied once per tick below, which is
            # exact (x % m == x while the counters stay below m, so the
            # deferred reduction matches per-credit reduction bit for
            # bit).
            base_increments = entry[1]
            row = bank_rows[c]
            if jitter == 1.0:
                row += base_increments
            else:
                # Same product values through a preallocated scratch
                # row instead of a fresh temporary per credit.
                np.multiply(base_increments, jitter, out=jit_scratch)
                row += jit_scratch
            scale_factor = jitter if scale == 1.0 else jitter * (scale * scale)
            # Inlined LinearEnergyEstimator.tick_energy_j — same
            # expression, same evaluation order, so the two paths agree
            # bit for bit.
            est_e = bwts * (1.0 / n_busy_threads) + entry[2] * scale_factor * 1e-9
            if use_containers and len(containers):
                containers.charge(task, est_e)
            interval_energy[c] += est_e
            interval_busy[c] += tick_s
            est_power[c] = est_e / tick_s
            dyn_power[c] = dyn_w
            task.total_busy_s += tick_s
            task.total_energy_j += est_e
            name = task.name
            instructions = cycles * mix.ipc
            if task.cold_instructions_remaining > 0.0:
                instructions = self._apply_cache_warmup(task, instructions)
            retired[name] = retired_get(name, 0.0) + instructions
            # Inlined Task.retire; its non-negativity guard is
            # unreachable here (instructions = cycles * ipc >= 0).
            rem = task.instructions_remaining - instructions
            task.instructions_remaining = rem
            if rem <= 0:
                task.jobs_completed += 1
                job_done = True
            else:
                job_done = False
            task.timeslice_remaining_ms -= tick_ms
            if task.run_remaining_s is not None:
                task.run_remaining_s -= tick_s
            if job_done:
                self._complete_job(task, clock)
                if rq.current is not task:
                    continue  # task exited (fork_new/none respawn)
            if task.run_remaining_s is not None and task.run_remaining_s <= 0:
                self._block(task, clock)
                continue
            container_exhausted = (
                use_containers
                and len(containers) > 0
                and not containers.eligible(task)
            )
            if task.timeslice_remaining_ms <= 0 or container_exhausted:
                self._end_interval(c, task)
                eligible = (
                    containers.eligible
                    if use_containers and len(containers)
                    else None
                )
                nxt = rq.pick_next(eligible)
                if nxt is not None and nxt.timeslice_remaining_ms <= 0:
                    nxt.timeslice_remaining_ms = self._timeslice_for(nxt)
        # One wraparound reduction for all banks.  Each bank is credited
        # at most once per tick, so reducing here instead of per credit
        # yields the exact same counter values as CounterBank.credit.
        self._counts_mx %= self._counter_modulus

    def _apply_cache_warmup(self, task: Task, instructions: float) -> float:
        """Retire fewer instructions while the task re-warms caches.

        §6.5: a migrated task runs slower until it has executed "some
        millions of instructions"; the lost work is what the paper
        weighs against the gain of not throttling.
        """
        factor = self.config.cold_cache_ipc_factor
        cold_capacity = instructions * factor
        if task.cold_instructions_remaining >= cold_capacity:
            executed = cold_capacity
            task.cold_instructions_remaining -= cold_capacity
        else:
            cold_part = task.cold_instructions_remaining
            warm_time_fraction = 1.0 - cold_part / cold_capacity
            executed = cold_part + instructions * warm_time_fraction
            task.cold_instructions_remaining = 0.0
        task.warmup_instructions_lost += instructions - executed
        return executed

    def _dynamic_power(self, mix) -> float:
        key = id(mix)
        cached = self._mix_cache.get(key)
        if cached is not None and cached[0] is mix:
            return cached[1]
        dyn = self.power.dynamic_power_w(mix.rates_per_cycle, self.exec_model.freq_hz)
        self._mix_cache[key] = (mix, dyn)
        if len(self._mix_cache) > 4096:
            self._mix_cache.clear()
        return dyn

    # -- interval accounting (profile updates, §3.3) --------------------------------
    def _end_interval(self, cpu: int, task: Task) -> None:
        busy = self._interval_busy[cpu]
        if busy <= 0:
            return
        energy = self._interval_energy[cpu]
        assert task.profile is not None
        task.profile.record(energy, busy)
        # The task's profile power changed, so any memoised runqueue
        # power sum that includes it is stale.
        self.runqueues[cpu].version += 1
        if not task.first_timeslice_done:
            task.first_timeslice_done = True
            self.policy.on_first_timeslice(task, energy / busy)
        self._interval_energy[cpu] = 0.0
        self._interval_busy[cpu] = 0.0

    # -- job lifecycle -----------------------------------------------------------
    def _complete_job(self, task: Task, clock: Clock) -> None:
        self.tracer.counters.add("jobs_total")
        self.tracer.counters.add(f"jobs:{task.name}")
        slot = self._slot_of(task)
        if slot is not None:
            slot.finished_jobs += 1
        respawn = task.spec.respawn if task.spec else "restart_same"
        if respawn == "restart_same":
            task.start_job()
            return
        # fork_new / none: the task exits.
        cpu = task.cpu
        self._end_interval(cpu, task)
        self.runqueues[cpu].remove(task)
        task.state = TaskState.EXITED
        self.containers.release(task)
        self.exited_tasks.append(task)
        self.tracer.event(
            EventRecord(clock.now_ms, EventKind.TASK_EXIT, cpu=cpu, pid=task.pid)
        )
        if slot is not None:
            slot.task = None
            if respawn == "fork_new":
                self._fork(slot, clock.now_ms)

    def _slot_of(self, task: Task) -> SlotState | None:
        for slot in self.slots:
            if slot.task is task:
                return slot
        return None

    def _block(self, task: Task, clock: Clock) -> None:
        cpu = task.cpu
        self._end_interval(cpu, task)
        self.runqueues[cpu].remove(task)
        task.state = TaskState.BLOCKED
        interactive = task.spec.program.interactive if task.spec else None
        mean_block_s = interactive[1] if interactive else 0.1
        rng = self.rng.stream(f"interactive:{task.name}")
        wake_ms = clock.now_ms + max(
            clock.tick_ms, int(rng.expovariate(1.0 / mean_block_s) * 1000)
        )
        self._blocked.append((wake_ms, task, cpu))
        self.tracer.event(
            EventRecord(clock.now_ms, EventKind.TASK_BLOCK, cpu=cpu, pid=task.pid)
        )

    # -- thermal and throttling -----------------------------------------------------
    def _thermal_step(self, clock: Clock) -> None:
        tick_s = clock.tick_s
        topology = self.topology
        spec = self.config.machine
        pkg_all_halted = [False] * spec.n_packages
        for pkg in range(spec.n_packages):
            cpus = topology.cpus_of_package(pkg)
            dyns = [self._dyn_power[c] for c in cpus if self._running[c]]
            all_halted = not dyns
            pkg_all_halted[pkg] = all_halted
            true_w = self.power.sample_package_power_w(
                dyns, all_halted, self.rng.stream(f"meter:{pkg}")
            )
            true_temp = self.true_rc[pkg].step(true_w, tick_s)
            self._pkg_temp_c[pkg] = true_temp
            if all_halted:
                est_w = self.config.power.halted_package_w
            else:
                est_w = sum(self._est_power[c] for c in cpus if self._running[c])
            self._est_pkg_power[pkg] = est_w
            self._pkg_energy_j[pkg] += est_w * tick_s
            est_temp = self.est_rc[pkg].step(est_w, tick_s)
            self._pkg_est_temp_c[pkg] = est_temp
            err = abs(est_temp - true_temp)
            if err > self.max_temp_err_k:
                self.max_temp_err_k = err
            if true_temp > self.max_temp_seen_c:
                self.max_temp_seen_c = true_temp
            if not all_halted and clock.ticks % self._sample_every == 0:
                self._est_err_sum += abs(est_w - true_w) / true_w
                self._est_err_n += 1
        for c in range(self.n_cpus):
            if self._running[c]:
                power = self._est_power[c]
            elif pkg_all_halted[self.topology.package_of(c)]:
                # Fully halted package: each thread carries its share of
                # the residual hlt draw, so idle packages settle at 13.6 W.
                power = self._halted_share_w
            else:
                # Idle/halted thread beside a busy sibling: the active
                # thread's estimate already covers the package's static
                # power, so this thread contributes nothing extra.
                power = 0.0
            self.metrics.update_thermal(c, power, tick_s)

    def _thermal_step_fast(self, clock: Clock) -> None:
        """The batched thermal step.

        Same per-package integration and error tracking as
        :meth:`_thermal_step` with the ``exp`` factors memoised (the
        tick length is constant within a run), followed by one
        :meth:`~repro.core.metrics.MetricsBoard.update_thermal_batch`
        advancing the whole thermal-power column.
        """
        tick_s = clock.tick_s
        if self._rc_decay_dt != tick_s:
            self._rc_decays = [
                rc_decay(rc.params.tau_s, tick_s) for rc in self.true_rc
            ]
            self._rc_decay_dt = tick_s
        decays = self._rc_decays
        sample_tick = clock.ticks % self._sample_every == 0
        halted_pkg_w = self.config.power.halted_package_w
        halted_share_w = self._halted_share_w
        running = self._running
        est_power = self._est_power
        dyn_power = self._dyn_power
        thermal_in = self._thermal_in_w
        pkg_temp = self._pkg_temp_c
        pkg_est_temp = self._pkg_est_temp_c
        est_pkg_power = self._est_pkg_power
        pkg_energy = self._pkg_energy_j
        true_rc = self.true_rc
        est_rc = self.est_rc
        meter_rngs = self._meter_rngs
        power_params = self.power.params
        base_active_w = power_params.base_active_w
        noise_sigma = power_params.noise_sigma
        pkg_pairs = self._pkg_pairs
        for pkg, cpus in enumerate(self._pkg_cpus):
            # Single pass accumulating what sample_package_power_w and
            # the estimate sum would compute; starting from 0.0 matches
            # sum()'s int-0 start exactly (the first add is exact either
            # way) and the left-to-right order is identical.  Two-CPU
            # packages (the common topology) unroll the scans.
            dyn_sum = 0.0
            est_sum = 0.0
            pair = pkg_pairs[pkg]
            if pair is not None:
                c0, c1 = pair
                r0 = running[c0]
                r1 = running[c1]
                all_halted = not (r0 or r1)
                if r0:
                    dyn_sum += dyn_power[c0]
                    est_sum += est_power[c0]
                if r1:
                    dyn_sum += dyn_power[c1]
                    est_sum += est_power[c1]
            else:
                all_halted = True
                for c in cpus:
                    if running[c]:
                        all_halted = False
                        dyn_sum += dyn_power[c]
                        est_sum += est_power[c]
            # Inlined PowerModel.sample_package_power_w — same
            # expression, same RNG stream, with random.gauss inlined the
            # same way as the jitter draw in _execute_fast.
            clean = halted_pkg_w if all_halted else base_active_w + dyn_sum
            rng = meter_rngs[pkg]
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                u = rng.random
                x2pi = u() * _TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - u()))
                z = _cos(x2pi) * g2rad
                rng.gauss_next = _sin(x2pi) * g2rad
            true_w = clean * (1.0 + z * noise_sigma)
            decay = decays[pkg]
            # Inlined ThermalRC.step_with_decay (both RCs) — same
            # expression on the same cached operands.
            rc = true_rc[pkg]
            target = rc._ambient_c + true_w * rc._r_k_per_w
            true_temp = target + (rc._temp_c - target) * decay
            rc._temp_c = true_temp
            pkg_temp[pkg] = true_temp
            if all_halted:
                est_w = halted_pkg_w
                # Fully halted package: each thread carries its share
                # of the residual hlt draw (13.6 W at idle).
                if pair is not None:
                    thermal_in[c0] = halted_share_w
                    thermal_in[c1] = halted_share_w
                else:
                    for c in cpus:
                        thermal_in[c] = halted_share_w
            else:
                est_w = est_sum
                # Idle thread beside a busy sibling contributes
                # nothing extra: the active thread's estimate already
                # covers the package's static power.
                if pair is not None:
                    thermal_in[c0] = est_power[c0] if r0 else 0.0
                    thermal_in[c1] = est_power[c1] if r1 else 0.0
                else:
                    for c in cpus:
                        thermal_in[c] = est_power[c] if running[c] else 0.0
            est_pkg_power[pkg] = est_w
            pkg_energy[pkg] += est_w * tick_s
            rc = est_rc[pkg]
            target = rc._ambient_c + est_w * rc._r_k_per_w
            est_temp = target + (rc._temp_c - target) * decay
            rc._temp_c = est_temp
            pkg_est_temp[pkg] = est_temp
            err = abs(est_temp - true_temp)
            if err > self.max_temp_err_k:
                self.max_temp_err_k = err
            if true_temp > self.max_temp_seen_c:
                self.max_temp_seen_c = true_temp
            if not all_halted and sample_tick:
                self._est_err_sum += abs(est_w - true_w) / true_w
                self._est_err_n += 1
        self.metrics.update_thermal_batch(thermal_in, tick_s)

    def _throttle_step(self, clock: Clock) -> None:
        if not self.config.throttle.enabled:
            return
        audit = self._obs_audit
        if self._dvfs_mode and self._dvfs_kind == "proactive":
            # Temperature-tracking DVFS: steer each package's *estimated*
            # die temperature (§4.2) toward its target instead of
            # reacting to the thermal-power limit.
            targets = self._dvfs_target_c
            pkg_est_temp = self._pkg_est_temp_c
            pkg_of = self._pkg_of
            for c in range(self.n_cpus):
                pkg = pkg_of[c]
                was = self._freq_scale[c]
                now = self.dvfs.update(c, pkg_est_temp[pkg], targets[pkg])
                self._freq_scale[c] = now
                if audit is not None and now != was:
                    audit.record(
                        site="dvfs",
                        cpu=c,
                        accepted=True,
                        detail={
                            "scale": now,
                            "est_temp_c": pkg_est_temp[pkg],
                            "target_c": targets[pkg],
                        },
                    )
            return
        package_scope = self.config.throttle.scope == "package"
        for c in range(self.n_cpus):
            if package_scope:
                thermal = self.metrics.package_thermal_sum_w(c)
                limit = self.metrics.package_max_power_w(c)
            else:
                thermal = self.metrics.thermal_power_w(c)
                limit = self.metrics.max_power_w(c)
            if self._dvfs_mode:
                was = self._freq_scale[c]
                now = self.dvfs.update(c, thermal, limit)
                self._freq_scale[c] = now
                if audit is not None and now != was:
                    audit.record(
                        site="dvfs",
                        cpu=c,
                        accepted=True,
                        detail={
                            "scale": now,
                            "thermal_w": thermal,
                            "limit_w": limit,
                        },
                    )
                continue
            was = self.throttle.is_throttled(c)
            now = self.throttle.update(c, thermal, limit)
            if now != was:
                kind = EventKind.THROTTLE_ON if now else EventKind.THROTTLE_OFF
                self.tracer.event(EventRecord(clock.now_ms, kind, cpu=c))

    # -- periodic policy work -----------------------------------------------------
    def _housekeeping(self, clock: Clock) -> None:
        ticks = clock.ticks
        tables = self._hk_tables
        if tables is None:
            b, i, h = (
                self._balance_ticks, self._idle_balance_ticks, self._hot_check_ticks
            )
            # An empty tuple marks a stagger period too long to table.
            tables = self._hk_tables = (
                _hk_fire_table(b, i, h, self.n_cpus)
                if lcm(b, i, h) <= _HK_TABLE_MAX
                else ()
            )
        if tables:
            fires = tables[ticks % len(tables)]
        else:
            fires = _hk_fires(
                ticks, self._balance_ticks, self._idle_balance_ticks,
                self._hot_check_ticks, self.n_cpus,
            )
        if not fires:
            return
        hist = self._obs_balance_hist
        rqs = self._rq_list
        policy = self.policy
        # The §4.4 gate: a pass moves a task only off a queue holding at
        # least 2 (balance_can_move), so the unobserved fast path skips
        # due passes while no queue does.  None means "read the queues
        # at the next balance candidate"; a hot migration resets it, as
        # an exchange whose first half a fault plan drops leaves 2 tasks
        # on one queue.  The scalar path (the specification) and
        # observed runs (the audit log and the balance histogram see
        # every pass) keep every pass.
        crowded = (
            None if self.fast_path and hist is None and self._obs_audit is None
            else True
        )
        # The idle-balance runqueue test runs lazily at its CPU's
        # position, in ascending-CPU order.
        for c, mask in fires:
            if (mask & 1) or (mask & 2 and not rqs[c].nr):
                if crowded is None:
                    crowded = balance_can_move(rqs)
                if crowded:
                    if hist is None:
                        policy.periodic_balance(c)
                    else:
                        t0 = perf_counter()
                        policy.periodic_balance(c)
                        hist.observe(perf_counter() - t0)
            if mask & 4 and policy.check_active_migration(c) and crowded is False:
                crowded = None

    # -- migration callback ---------------------------------------------------------
    def _migrate(self, task: Task, src: int, dst: int, reason: str) -> None:
        if src == dst:
            raise ValueError("migration source and destination are identical")
        if not task.allowed_on(dst):
            raise ValueError(
                f"task pid={task.pid} affinity {sorted(task.cpus_allowed or ())} "
                f"forbids CPU {dst}"
            )
        if self.validator is not None:
            # Validate against the pre-migration state, before any
            # runqueue mutation.
            self.validator.before_migration(task, src, dst, reason)
        if self.fault_injector is not None and self.fault_injector.intercept_migration(
            task, src, dst, reason
        ):
            return  # fault plan dropped the request; no state changed
        src_rq = self.runqueues[src]
        if task is src_rq.current:
            self._end_interval(src, task)
        src_rq.remove(task)
        self.runqueues[dst].enqueue(task)
        task.migrations += 1
        warmup = self.config.cache_warmup_instructions
        if warmup > 0:
            if self.topology.node_of(src) != self.topology.node_of(dst):
                warmup *= self.config.numa_warmup_factor
            task.cold_instructions_remaining = warmup
        self.tracer.counters.add("migrations")
        self.tracer.counters.add(f"migrations:{reason}")
        self.tracer.event(
            EventRecord(
                self._now_ms,
                EventKind.MIGRATION,
                cpu=dst,
                pid=task.pid,
                detail={"src": src, "dst": dst, "reason": reason},
            )
        )
        audit = self._obs_audit
        if audit is not None:
            # Exactly one outcome record per committed migration; the
            # decision sites record the comparisons that led here.
            audit.record(
                site="migration",
                cpu=src,
                pid=task.pid,
                chosen=dst,
                accepted=True,
                detail={"dst": dst, "reason": reason, "src": src},
            )

    # -- tracing -----------------------------------------------------------------
    def _sample_traces(self, clock: Clock) -> None:
        t = clock.now_s
        tracer = self.tracer
        for c in range(self.n_cpus):
            tracer.sample(f"thermal_power.cpu{c:02d}", t, self.metrics.thermal_power_w(c))
        for pkg in range(self.config.machine.n_packages):
            true_temp = self.true_rc[pkg].temperature_c
            tracer.sample(f"temperature.pkg{pkg}", t, true_temp)
            # What an online calibrator (§4.2) would observe: the coarse
            # diode reading and the counter-estimated package power.
            tracer.sample(f"diode.pkg{pkg}", t, self.diode.read(true_temp))
            tracer.sample(f"est_power.pkg{pkg}", t, self._est_pkg_power[pkg])

    # -- results helpers ------------------------------------------------------------
    def fractional_jobs(self) -> float:
        """Completed jobs plus fractional progress of in-flight jobs."""
        total = 0.0
        for slot in self.slots:
            total += slot.finished_jobs
            task = slot.task
            if task is not None and task.state is not TaskState.EXITED:
                done = 1.0 - task.instructions_remaining / task.job_instructions
                total += max(0.0, min(1.0, done))
        return total

    def estimation_error(self) -> float:
        """Mean relative error of package power estimates vs ground truth."""
        if self._est_err_n == 0:
            return 0.0
        return self._est_err_sum / self._est_err_n

    def cpu_utilization(self, cpu_id: int) -> float:
        """Fraction of elapsed time this CPU executed a task."""
        if self._total_ticks == 0:
            return 0.0
        return self._busy_ticks[cpu_id] / self._total_ticks

    def live_tasks(self) -> list[Task]:
        return [slot.task for slot in self.slots if slot.task is not None]
