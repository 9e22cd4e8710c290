"""Workload scenario builders for the paper's experiments.

A :class:`WorkloadSpec` is a list of :class:`TaskSpec` slots.  Each slot
runs jobs of one program in a closed loop (a new job starts when the
previous finishes), so *throughput* — jobs finished per unit time, the
paper's metric — is well defined and saturates the machine for the
all-CPUs-busy scenarios.

Respawn semantics matter for §4.6: with ``respawn="fork_new"`` every job
is a fresh task created through the scheduler's fork/exec path, so the
initial-placement policy decides its CPU (the short-task experiment);
with ``respawn="restart_same"`` the task persists and simply starts the
next job (the long-running experiments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.sched.priorities import validate_nice
from repro.workloads.programs import PROGRAMS, ProgramSpec, program


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """One closed-loop task slot.

    Attributes
    ----------
    program:
        The program this slot runs.
    arrival_s:
        When the first job of the slot is forked.
    solo_job_s:
        Override of the program's nominal solo job duration.
    respawn:
        ``restart_same`` | ``fork_new`` | ``none`` (run one job, exit).
    nice:
        Unix nice level; scales the timeslice per the 2.6 O(1) rules.
    cpus_allowed:
        Optional CPU affinity mask for the slot's tasks.
    power_cap_w:
        Optional energy-container cap: the task's long-run average
        power is limited to this value (§2.3's orthogonal limiting
        policy, combinable with energy-aware scheduling).
    """

    program: ProgramSpec
    arrival_s: float = 0.0
    solo_job_s: float | None = None
    respawn: str = "restart_same"
    nice: int = 0
    cpus_allowed: tuple[int, ...] | None = None
    power_cap_w: float | None = None

    def __post_init__(self) -> None:
        # NaN compares False against every bound, so each numeric check
        # requires finiteness explicitly — a NaN arrival or duration
        # would otherwise wander into the tick loop and poison every
        # derived quantity (same failure mode as the Tracer interval
        # fix).
        if not math.isfinite(self.arrival_s) or self.arrival_s < 0:
            raise ValueError(
                f"arrival time must be finite and non-negative, "
                f"got {self.arrival_s!r}"
            )
        if self.solo_job_s is not None and not (
            math.isfinite(self.solo_job_s) and self.solo_job_s > 0
        ):
            raise ValueError(
                f"solo job duration must be finite and positive, "
                f"got {self.solo_job_s!r}"
            )
        if self.respawn not in ("restart_same", "fork_new", "none"):
            raise ValueError(f"unknown respawn mode {self.respawn!r}")
        validate_nice(self.nice)
        if self.cpus_allowed is not None and not self.cpus_allowed:
            raise ValueError("cpus_allowed must not be empty")
        if self.power_cap_w is not None and not (
            math.isfinite(self.power_cap_w) and self.power_cap_w > 0
        ):
            raise ValueError(
                f"power cap must be finite and positive, "
                f"got {self.power_cap_w!r}"
            )

    def job_instructions(self, freq_hz: float) -> float:
        solo_s = self.solo_job_s if self.solo_job_s is not None else self.program.solo_job_s
        return freq_hz * self.program.ipc * solo_s


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """A named collection of task slots."""

    name: str
    tasks: tuple[TaskSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError(f"workload {self.name!r} has no tasks")

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def has_power_caps(self) -> bool:
        """Whether any slot carries an energy-container cap (§2.3)."""
        return any(t.power_cap_w is not None for t in self.tasks)

    def program_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for t in self.tasks:
            counts[t.program.name] = counts.get(t.program.name, 0) + 1
        return counts


def n_copies(
    program_name: str,
    n: int,
    respawn: str = "restart_same",
    solo_job_s: float | None = None,
) -> list[TaskSpec]:
    """``n`` identical slots of one program."""
    if n < 0:
        raise ValueError("count must be non-negative")
    spec = program(program_name)
    return [
        TaskSpec(program=spec, respawn=respawn, solo_job_s=solo_job_s)
        for _ in range(n)
    ]


def mixed_table2_workload(copies: int = 3) -> WorkloadSpec:
    """The §6.1 mix: each Table 2 program started ``copies`` times.

    ``copies=3`` gives the paper's 18 tasks for 8 CPUs (SMT off);
    ``copies=6`` gives the 36 tasks for 16 logical CPUs (SMT on).
    """
    table2 = ("bitcnts", "memrw", "aluadd", "pushpop", "openssl", "bzip2")
    tasks: list[TaskSpec] = []
    for name in table2:
        tasks.extend(n_copies(name, copies))
    return WorkloadSpec(name=f"mixed-table2-x{copies}", tasks=tuple(tasks))


def steady_mix_workload(
    copies: int = 4, wobble_interval_s: float = 10.0
) -> WorkloadSpec:
    """Steady-state mix for fleet throughput runs: the four static
    Table 2 programs with a coarse wobble-resample interval.

    Long-running batch tasks re-draw their activity wobble rarely, so a
    tick is almost always the pure fast-path math; this is the workload
    the pinned fleet benchmark scenarios run on both engines (scalar
    baseline and fleet), keeping the comparison apples to apples.
    """
    from dataclasses import replace as _replace

    if not (math.isfinite(wobble_interval_s) and wobble_interval_s > 0):
        raise ValueError(
            f"wobble interval must be finite and positive, "
            f"got {wobble_interval_s!r}"
        )
    statics = ("bitcnts", "memrw", "aluadd", "pushpop")
    tasks = [
        TaskSpec(program=_replace(program(name), wobble_interval_s=wobble_interval_s))
        for name in statics
        for _ in range(copies)
    ]
    return WorkloadSpec(name=f"steady-mix-x{copies}", tasks=tuple(tasks))


def homogeneity_scenario(n_memrw: int, n_pushpop: int, n_bitcnts: int) -> WorkloadSpec:
    """One Figure 8 scenario: ``#memrw / #pushpop / #bitcnts``."""
    tasks = (
        n_copies("memrw", n_memrw)
        + n_copies("pushpop", n_pushpop)
        + n_copies("bitcnts", n_bitcnts)
    )
    return WorkloadSpec(
        name=f"{n_memrw}/{n_pushpop}/{n_bitcnts}", tasks=tuple(tasks)
    )


def homogeneity_sweep(total: int = 18) -> list[WorkloadSpec]:
    """The Figure 8 sweep: 9/0/9, 8/2/8, ... 1/16/1, 0/18/0.

    Starts fully heterogeneous (half memrw, half bitcnts) and replaces
    one memrw and one bitcnts with two pushpop instances per step until
    the workload is homogeneous.
    """
    if total % 2 != 0:
        raise ValueError("total task count must be even")
    half = total // 2
    scenarios = []
    for hot_cool in range(half, -1, -1):
        medium = total - 2 * hot_cool
        scenarios.append(homogeneity_scenario(hot_cool, medium, hot_cool))
    return scenarios


def short_task_storm(
    total_slots: int = 18,
    job_s: float = 0.6,
    programs: tuple[str, ...] = ("bitcnts", "memrw", "aluadd", "pushpop", "bzip2", "openssl"),
) -> WorkloadSpec:
    """The §6.2 short-task workload (execution times < 1 s).

    Every job is forked as a brand-new task so the initial-placement
    policy (§4.6) governs where it runs.
    """
    if total_slots < 1:
        raise ValueError("need at least one slot")
    if not (math.isfinite(job_s) and job_s > 0):
        raise ValueError(
            f"job duration must be finite and positive, got {job_s!r}"
        )
    tasks = [
        TaskSpec(
            program=PROGRAMS[programs[i % len(programs)]],
            respawn="fork_new",
            solo_job_s=job_s,
        )
        for i in range(total_slots)
    ]
    return WorkloadSpec(name=f"short-tasks-x{total_slots}", tasks=tuple(tasks))


def single_program_workload(
    program_name: str, n: int = 1, respawn: str = "restart_same"
) -> WorkloadSpec:
    """``n`` instances of one program (Figures 9 and 10)."""
    return WorkloadSpec(
        name=f"{program_name}-x{n}",
        tasks=tuple(n_copies(program_name, n, respawn=respawn)),
    )
