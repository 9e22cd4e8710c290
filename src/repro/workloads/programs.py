"""The paper's test programs as calibrated behaviour models.

Table 2 (measured package power while running each program):

    bitcnts 61 W | memrw 38 W | aluadd 50 W | pushpop 47 W
    openssl 42-57 W (phase-dependent) | bzip2 48 W

Table 1 (successive-timeslice power change, max / average):

    bash 19.0/2.05 % | bzip2 88.8/5.45 % | grep 84.3/1.06 %
    sshd 18.3/1.38 % | openssl 63.2/2.48 %

Each :class:`ProgramSpec` declares its phases by *total package power*
target and an event-mix flavour; concrete per-cycle rates are solved
against the ground-truth power model at build time, so Table 2 powers
are matched exactly by construction and Table 1 volatility emerges from
the phase structure plus a per-program wobble.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from repro.cpu.power import GroundTruthPower, PowerModelParams
from repro.workloads.behavior import (
    AlternatingBehavior,
    Behavior,
    CyclicBehavior,
    InstructionMix,
    PhaseSpec,
    SpikyBehavior,
    StaticBehavior,
)

# Event-mix flavours (relative rates: UOPS, ALU, FP, MEM, L2_MISS, BRANCH).
FLAVOR_ALU = (1.8, 1.6, 0.0, 0.10, 0.001, 0.35)
FLAVOR_MEM = (0.6, 0.10, 0.0, 0.55, 0.020, 0.05)
FLAVOR_STACK = (1.4, 0.70, 0.0, 1.20, 0.001, 0.10)
FLAVOR_CRYPTO = (1.5, 1.10, 0.6, 0.40, 0.002, 0.20)
FLAVOR_COMPRESS = (1.1, 0.80, 0.0, 0.70, 0.008, 0.25)
FLAVOR_CONTROL = (0.8, 0.40, 0.0, 0.45, 0.004, 0.30)


@dataclass(frozen=True, slots=True)
class PhaseDef:
    """Declarative phase: total package power target + dwell time."""

    total_power_w: float
    mean_duration_s: float
    label: str
    flavor: tuple[float, ...] | None = None  #: defaults to the program flavour
    duration_jitter: float = 0.2


@dataclass(frozen=True, slots=True)
class ProgramSpec:
    """A synthetic program.

    Attributes
    ----------
    name / inode:
        Identity; ``inode`` keys the initial-placement hash table (§4.6).
    kind:
        Phase structure: ``static`` | ``cyclic`` | ``alternating`` |
        ``spiky``.
    phases:
        Phase definitions (first is the base phase for ``spiky``).
    flavor:
        Default event-mix flavour.
    ipc:
        Instructions per cycle for progress accounting.
    wobble_sigma:
        Within-phase activity wobble (drives Table 1 averages).
    wobble_interval_s:
        Busy time between wobble resamples (Table 1's successive
        timeslices).  Coarser intervals give steadier power draw; the
        pinned fleet scenario uses them to model steady-state tasks.
    spike_probability:
        For ``spiky`` programs: chance of an excursion after each base
        dwell.
    interactive:
        ``(mean_run_s, mean_block_s)`` for programs that block on I/O
        (bash, sshd); ``None`` for CPU-bound programs.
    solo_job_s:
        Nominal duration of one job when run alone on an unthrottled,
        non-SMT-contended CPU; defines ``job_instructions``.
    """

    name: str
    inode: int
    kind: str
    phases: tuple[PhaseDef, ...]
    flavor: tuple[float, ...]
    ipc: float
    wobble_sigma: float = 0.01
    wobble_interval_s: float = 0.1
    spike_probability: float = 0.0
    interactive: tuple[float, float] | None = None
    solo_job_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in ("static", "cyclic", "alternating", "spiky"):
            raise ValueError(f"unknown behavior kind {self.kind!r}")
        if not self.phases:
            raise ValueError("program needs at least one phase")
        if self.ipc <= 0:
            raise ValueError("IPC must be positive")
        if self.solo_job_s <= 0:
            raise ValueError("solo job duration must be positive")

    # -- derived -----------------------------------------------------------
    def nominal_power_w(self) -> float:
        """Dwell-weighted mean package power across phases."""
        total_time = sum(p.mean_duration_s for p in self.phases)
        return sum(p.total_power_w * p.mean_duration_s for p in self.phases) / total_time

    def job_instructions(self, freq_hz: float) -> float:
        """Instructions in one job (closed-loop throughput unit)."""
        return freq_hz * self.ipc * self.solo_job_s

    def build_behavior(
        self, power: GroundTruthPower, freq_hz: float, rng: random.Random
    ) -> Behavior:
        """Solve phase mixes against the power model and build the machine."""
        p = power.params
        solve_params = PowerModelParams(
            weights_nj=tuple(map(float, p.weights_nj)),
            nonlinear_coeff=float(p.nonlinear_coeff),
            nonlinear_scale_w=float(p.nonlinear_scale_w),
        )
        specs: list[PhaseSpec] = []
        for phase in self.phases:
            dyn_target = phase.total_power_w - p.base_active_w
            if dyn_target < 0:
                raise ValueError(
                    f"{self.name}: phase {phase.label!r} targets "
                    f"{phase.total_power_w} W below base power {p.base_active_w} W"
                )
            flavor = tuple(map(float, phase.flavor or self.flavor))
            rates = _phase_rates(
                flavor, float(dyn_target), float(freq_hz), solve_params
            )
            mix = InstructionMix(rates, ipc=self.ipc, label=f"{self.name}:{phase.label}")
            specs.append(
                PhaseSpec(
                    mix=mix,
                    mean_duration_s=phase.mean_duration_s,
                    duration_jitter=phase.duration_jitter,
                )
            )
        common = dict(
            wobble_sigma=self.wobble_sigma,
            wobble_interval_s=self.wobble_interval_s,
        )
        if self.kind == "static":
            return StaticBehavior(specs[0], rng, **common)
        if self.kind == "cyclic":
            return CyclicBehavior(specs, rng, **common)
        if self.kind == "alternating":
            return AlternatingBehavior(specs, rng, **common)
        return SpikyBehavior(
            specs, rng, spike_probability=self.spike_probability, **common
        )


@functools.lru_cache(maxsize=1024)
def _phase_rates(flavor, dyn_target_w, freq_hz, params) -> np.ndarray:
    """Solved rates of one phase, once per process, as a read-only array.

    The solve draws nothing, and ``params`` (hashable) holds only the
    fields it reads: weights and the nonlinear term.
    """
    power = GroundTruthPower(params)
    rates = power.rates_for_dynamic_power(np.asarray(flavor), dyn_target_w, freq_hz)
    rates.flags.writeable = False
    return rates


def _static(name, inode, power_w, flavor, ipc, wobble, solo_job_s=30.0):
    return ProgramSpec(
        name=name,
        inode=inode,
        kind="static",
        phases=(PhaseDef(power_w, 1e9, "main"),),
        flavor=flavor,
        ipc=ipc,
        wobble_sigma=wobble,
        solo_job_s=solo_job_s,
    )


# --------------------------------------------------------------------------
# Table 2 programs
# --------------------------------------------------------------------------
BITCNTS = _static("bitcnts", 1001, 61.0, FLAVOR_ALU, ipc=1.7, wobble=0.010)
MEMRW = _static("memrw", 1002, 38.0, FLAVOR_MEM, ipc=0.5, wobble=0.010)
ALUADD = _static("aluadd", 1003, 50.0, FLAVOR_ALU, ipc=1.5, wobble=0.010)
PUSHPOP = _static("pushpop", 1004, 47.0, FLAVOR_STACK, ipc=1.3, wobble=0.010)

OPENSSL = ProgramSpec(
    name="openssl",
    inode=1005,
    kind="cyclic",
    phases=(
        PhaseDef(57.0, 20.0, "rc4"),
        PhaseDef(42.0, 20.0, "sha"),
        PhaseDef(54.0, 20.0, "aes"),
        PhaseDef(44.0, 20.0, "des"),
        PhaseDef(51.0, 20.0, "md5"),
        PhaseDef(35.0, 4.0, "keygen"),
    ),
    flavor=FLAVOR_CRYPTO,
    ipc=1.2,
    wobble_sigma=0.032,
    solo_job_s=30.0,
)

BZIP2 = ProgramSpec(
    name="bzip2",
    inode=1006,
    kind="alternating",
    phases=(
        PhaseDef(53.0, 4.0, "compress", duration_jitter=0.3),
        PhaseDef(28.0, 0.8, "flush", duration_jitter=0.3),
    ),
    flavor=FLAVOR_COMPRESS,
    ipc=0.9,
    wobble_sigma=0.028,
    interactive=(20.0, 0.05),  # file I/O between compression blocks
    solo_job_s=30.0,
)

# --------------------------------------------------------------------------
# Table 1 interactive / streaming programs
# --------------------------------------------------------------------------
BASH = ProgramSpec(
    name="bash",
    inode=1007,
    kind="spiky",
    phases=(
        PhaseDef(30.0, 2.0, "prompt"),
        PhaseDef(35.5, 0.3, "builtin"),
    ),
    flavor=FLAVOR_CONTROL,
    ipc=0.8,
    wobble_sigma=0.054,
    spike_probability=0.05,
    interactive=(0.5, 0.5),
    solo_job_s=30.0,
)

GREP = ProgramSpec(
    name="grep",
    inode=1008,
    kind="spiky",
    phases=(
        PhaseDef(30.0, 2.0, "scan"),
        PhaseDef(55.0, 0.15, "burst", flavor=FLAVOR_MEM),
    ),
    flavor=FLAVOR_CONTROL,
    ipc=0.7,
    wobble_sigma=0.028,
    spike_probability=0.04,
    solo_job_s=30.0,
)

SSHD = ProgramSpec(
    name="sshd",
    inode=1009,
    kind="spiky",
    phases=(
        PhaseDef(35.0, 2.0, "session"),
        PhaseDef(41.0, 0.3, "rekey", flavor=FLAVOR_CRYPTO),
    ),
    flavor=FLAVOR_CRYPTO,
    ipc=0.8,
    wobble_sigma=0.028,
    spike_probability=0.05,
    interactive=(0.6, 0.4),
    solo_job_s=30.0,
)

#: All modelled programs by name.
PROGRAMS: dict[str, ProgramSpec] = {
    p.name: p
    for p in (BITCNTS, MEMRW, ALUADD, PUSHPOP, OPENSSL, BZIP2, BASH, GREP, SSHD)
}


def program(name: str) -> ProgramSpec:
    """Look up a program spec by name with a helpful error."""
    try:
        return PROGRAMS[name]
    except KeyError:
        raise KeyError(
            f"unknown program {name!r}; available: {sorted(PROGRAMS)}"
        ) from None
