"""Calculation parameters for energy-aware scheduling (paper §4.3).

Per logical CPU:

* **runqueue power** — the average of the energy profiles of all tasks
  in the CPU's runqueue.  Reacts *immediately* to migrations, which is
  what prevents pulling an undue number of tasks.
* **thermal power** — an exponential average of the CPU's estimated
  power whose weight is calibrated to the thermal model's time constant,
  so it tracks temperature while retaining the dimension of a power.
  Reacts *slowly*, providing the hysteresis against ping-pong effects.
* **maximum power** — the highest sustainable power without overheating
  (for a temperature limit ``T``: ``(T - T_ambient) / R``).  Under SMT
  the package's maximum power is divided among its logical CPUs (§4.7).
* the two **ratios** — each power divided by maximum power, so CPUs
  with different cooling are compared on equal footing.

Layout
------
:class:`MetricsBoard` stores all per-CPU state as parallel
struct-of-arrays columns (``thermal_w``, ``tau_s``, ``max_power``) —
the in-memory analogue of the paper's extended ``runqueue`` struct
fields laid side by side.  The columns and the board's accessors are
the one API: the §4.4–§4.6 policies, both tick paths and the fleet
engine read them through the accessors, and whoever writes
``thermal_w`` directly (the fleet's flush, test harnesses) bumps
``thermal_epoch``.  ``tau_s`` and ``max_power`` are fixed at
construction.  :meth:`MetricsBoard.update_thermal` is the one
thermal-power update: the scalar reference path calls it per CPU, and
the batched tick path (``System._thermal_step_fast``) inlines its
statement inside its package loop and bumps ``thermal_epoch`` once
per tick.  In fast mode the board serves runqueue-power and
package-sum queries from version- and epoch-validated caches; the
scalar reference path recomputes them.  Both produce bit-identical
values — the fast accessors only memoise, never approximate.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.cpu.topology import Topology
from repro.sched.runqueue import RunQueue


class MetricsBoard:
    """All per-CPU metrics plus the group aggregates the balancers use.

    Parameters
    ----------
    tau_s:
        Thermal-EWMA time constant — one float for a homogeneous
        machine or a per-CPU mapping for heterogeneous cooling.
    fast:
        Enable the memoised accessors used by the batched tick path
        (version-validated runqueue-power sums, epoch-validated package
        thermal sums).  Values are bit-identical either way; the scalar
        reference path keeps ``fast=False`` so its per-query cost stays
        representative of the pre-batching implementation.
    """

    def __init__(
        self,
        topology: Topology,
        runqueues: Mapping[int, RunQueue],
        tau_s: float | Mapping[int, float],
        max_power_w: float | Mapping[int, float],
        initial_thermal_w: float = 0.0,
        fast: bool = False,
    ) -> None:
        self.topology = topology
        self.runqueues = runqueues
        self.fast = bool(fast)
        self._package_cpus: dict[int, tuple[int, ...]] = {
            pkg: tuple(topology.cpus_of_package(pkg))
            for pkg in range(topology.n_packages)
        }
        n = len(topology)
        # -- struct-of-arrays columns ---------------------------------------
        self.thermal_w: list[float] = [float(initial_thermal_w)] * n
        self.tau_s: list[float] = []
        self.max_power: list[float] = []
        for info in topology.cpus:
            tau = (
                tau_s[info.cpu_id] if isinstance(tau_s, Mapping) else tau_s
            )
            if tau <= 0:
                raise ValueError("time constant must be positive")
            limit = (
                max_power_w[info.cpu_id]
                if isinstance(max_power_w, Mapping)
                else max_power_w
            )
            if limit <= 0:
                raise ValueError("maximum power must be positive")
            self.tau_s.append(float(tau))
            self.max_power.append(float(limit))
            # Mirror the limit onto the runqueue, as the paper stores it
            # in the extended runqueue struct (§5).
            runqueues[info.cpu_id].max_power_w = float(limit)
        # -- memoisation state (fast mode) -----------------------------------
        #: bumped after each thermal-column update (once per tick on the
        #: batched path); the package-sum cache key.
        self.thermal_epoch = 0
        self._rq_sum: list[float] = [0.0] * n
        self._rq_sum_version: list[int] = [-1] * n
        self._rq_ratio: list[float] = [0.0] * n
        self._rq_ratio_version: list[int] = [-1] * n
        self._pkg_sum: dict[int, tuple[int, float]] = {}
        self._pkg_max: dict[int, float] = {}

    # -- per-CPU ------------------------------------------------------------
    def update_thermal(self, cpu_id: int, power_w: float, dt_s: float) -> None:
        """Fold one tick of estimated CPU power into thermal power.

        Scalar reference form: per-CPU call, per-call ``exp``.
        """
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        alpha = 1.0 - math.exp(-dt_s / self.tau_s[cpu_id])
        self.thermal_w[cpu_id] += alpha * (power_w - self.thermal_w[cpu_id])
        self.thermal_epoch += 1

    def thermal_power_w(self, cpu_id: int) -> float:
        return self.thermal_w[cpu_id]

    def thermal_power_ratio(self, cpu_id: int) -> float:
        return self.thermal_w[cpu_id] / self.max_power[cpu_id]

    def max_power_w(self, cpu_id: int) -> float:
        return self.max_power[cpu_id]

    def runqueue_power_sum_w(self, cpu_id: int) -> float:
        """Sum of the energy-profile powers of a CPU's runnable tasks.

        In fast mode the sum is memoised against the runqueue's version
        counter (bumped on enqueue/remove/profile update), so balancer
        passes that query the same queue repeatedly pay for one
        traversal; recomputation performs the identical left-to-right
        summation, so cached and fresh values are bit-identical.
        """
        rq = self.runqueues[cpu_id]
        if self.fast:
            version = rq.version
            if self._rq_sum_version[cpu_id] == version:
                return self._rq_sum[cpu_id]
            total = sum(t.profile_power_w for t in rq.tasks())
            self._rq_sum[cpu_id] = total
            self._rq_sum_version[cpu_id] = version
            return total
        return sum(t.profile_power_w for t in rq.tasks())

    def runqueue_power_w(self, cpu_id: int) -> float:
        """Average energy-profile power over the runqueue (0 if idle)."""
        rq = self.runqueues[cpu_id]
        n = rq.nr
        if n == 0:
            return 0.0
        return self.runqueue_power_sum_w(cpu_id) / n

    def runqueue_power_ratio(self, cpu_id: int) -> float:
        if self.fast:
            # The balancers query the same ratios many times between
            # queue changes; memoise the finished ratio against the
            # queue version (a structural mutation of tau/limit resets
            # the versions).
            version = self.runqueues[cpu_id].version
            if self._rq_ratio_version[cpu_id] == version:
                return self._rq_ratio[cpu_id]
            ratio = self.runqueue_power_w(cpu_id) / self.max_power[cpu_id]
            self._rq_ratio[cpu_id] = ratio
            self._rq_ratio_version[cpu_id] = version
            return ratio
        return self.runqueue_power_w(cpu_id) / self.max_power[cpu_id]

    def would_be_ratio(self, cpu_id: int, extra_task_power_w: float) -> float:
        """Runqueue power ratio if a task with the given profile joined."""
        rq = self.runqueues[cpu_id]
        total = self.runqueue_power_sum_w(cpu_id) + extra_task_power_w
        return total / (rq.nr + 1) / self.max_power[cpu_id]

    # -- SMT / CMP (§4.7, §7) ---------------------------------------------------
    def package_thermal_sum_w(self, cpu_id: int) -> float:
        """Sum of thermal powers of all logical CPUs on the same package.

        Only physical processors can overheat; hot-task migration
        triggers on this sum against the package's full budget.  On the
        paper's machine a package is one SMT core; on the §7 CMP
        extension it covers every thread of every core on the chip.
        In fast mode the sum is memoised per package against the
        thermal column's epoch (it changes once per tick).
        """
        package = self.topology.package_of(cpu_id)
        if self.fast:
            cached = self._pkg_sum.get(package)
            if cached is not None and cached[0] == self.thermal_epoch:
                return cached[1]
            total = sum(self.thermal_w[c] for c in self._package_cpus[package])
            self._pkg_sum[package] = (self.thermal_epoch, total)
            return total
        return sum(self.thermal_w[c] for c in self._package_cpus[package])

    def package_max_power_w(self, cpu_id: int) -> float:
        """Full package budget: sum of the per-logical-CPU shares."""
        package = self.topology.package_of(cpu_id)
        if self.fast:
            cached = self._pkg_max.get(package)
            if cached is not None:
                return cached
            total = sum(self.max_power[c] for c in self._package_cpus[package])
            self._pkg_max[package] = total
            return total
        return sum(self.max_power[c] for c in self._package_cpus[package])

    # -- group aggregates -----------------------------------------------------
    def group_avg_runqueue_ratio(self, cpus: Iterable[int]) -> float:
        # The balancers pass CpuGroup.cpus tuples; only materialise
        # other iterables.
        if type(cpus) is not tuple and type(cpus) is not list:
            cpus = list(cpus)
        if self.fast:
            # Same left-to-right accumulation as the scalar branch,
            # reading the version-validated ratio cache directly.
            versions = self._rq_ratio_version
            ratios = self._rq_ratio
            runqueues = self.runqueues
            total = 0.0
            for c in cpus:
                if versions[c] == runqueues[c].version:
                    total += ratios[c]
                else:
                    total += self.runqueue_power_ratio(c)
            return total / len(cpus)
        return sum(self.runqueue_power_ratio(c) for c in cpus) / len(cpus)

    def group_avg_thermal_ratio(self, cpus: Iterable[int]) -> float:
        cpus = list(cpus)
        return sum(self.thermal_power_ratio(c) for c in cpus) / len(cpus)

    def system_avg_runqueue_ratio(self) -> float:
        return self.group_avg_runqueue_ratio(range(len(self.thermal_w)))
