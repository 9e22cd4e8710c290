"""CPU topology: logical CPUs, cores, packages, NUMA nodes.

The paper's testbed is an IBM xSeries 445: two NUMA nodes, four physical
Pentium 4 Xeon packages per node, two SMT threads per package.  Logical
CPU numbering follows the paper's observation that "the CPU IDs of two
sibling CPUs differ in the most significant bit" — CPU 0's sibling is
CPU 8, CPUs 0–3 (and siblings 8–11) are node 0, CPUs 4–7 (and 12–15)
node 1:

    cpu_id = thread * (nodes * packages_per_node * cores_per_package)
           + node * (packages_per_node * cores_per_package)
           + package * cores_per_package + core

An optional *core* level models the chip-multiprocessor extension the
paper sketches in §7 (one extra layer in the domain hierarchy).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class MachineSpec:
    """Shape of the simulated machine.

    Attributes
    ----------
    nodes:
        Number of NUMA nodes.
    packages_per_node:
        Physical processor packages per node.
    cores_per_package:
        Cores per package (1 for the paper's P4 Xeons; >1 models the
        §7 CMP extension).
    threads_per_core:
        SMT threads per core (2 when Hyper-Threading is enabled).
    freq_hz:
        Core clock frequency.
    """

    nodes: int = 2
    packages_per_node: int = 4
    cores_per_package: int = 1
    threads_per_core: int = 2
    freq_hz: float = 2.2e9

    def __post_init__(self) -> None:
        for name in ("nodes", "packages_per_node", "cores_per_package", "threads_per_core"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.freq_hz <= 0:
            raise ValueError("freq_hz must be positive")

    # -- presets ----------------------------------------------------------
    @staticmethod
    def ibm_x445(smt: bool = True) -> "MachineSpec":
        """The paper's testbed: 2 nodes x 4 P4 Xeon 2.2 GHz, SMT optional."""
        return MachineSpec(
            nodes=2,
            packages_per_node=4,
            cores_per_package=1,
            threads_per_core=2 if smt else 1,
            freq_hz=2.2e9,
        )

    @staticmethod
    def smp(n_cpus: int, freq_hz: float = 2.2e9) -> "MachineSpec":
        """A flat SMP: one node, ``n_cpus`` single-thread packages."""
        return MachineSpec(
            nodes=1,
            packages_per_node=n_cpus,
            cores_per_package=1,
            threads_per_core=1,
            freq_hz=freq_hz,
        )

    @staticmethod
    def cmp(packages: int = 2, cores: int = 2, smt: bool = False) -> "MachineSpec":
        """A chip multiprocessor per the paper's §7 extension."""
        return MachineSpec(
            nodes=1,
            packages_per_node=packages,
            cores_per_package=cores,
            threads_per_core=2 if smt else 1,
            freq_hz=2.2e9,
        )

    @property
    def n_packages(self) -> int:
        return self.nodes * self.packages_per_node

    @property
    def n_cores(self) -> int:
        return self.n_packages * self.cores_per_package

    @property
    def n_cpus(self) -> int:
        """Total logical CPUs."""
        return self.n_cores * self.threads_per_core

    @property
    def smt_enabled(self) -> bool:
        return self.threads_per_core > 1


@dataclass(frozen=True, slots=True)
class CpuInfo:
    """Static identity of one logical CPU."""

    cpu_id: int
    node: int
    package: int       #: global package index
    core: int          #: global core index
    thread: int        #: SMT thread index within the core
    siblings: tuple[int, ...] = field(default=())  #: other threads on same core

    @property
    def has_smt_sibling(self) -> bool:
        return bool(self.siblings)


class Topology:
    """Resolved machine topology with paper-style CPU numbering.

    The CPU table is a tuple of frozen records, so one topology can be
    shared by every machine built on the same spec.
    """

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        self.cpus: tuple[CpuInfo, ...] = self._build()

    def _build(self) -> tuple[CpuInfo, ...]:
        spec = self.spec
        cores_total = spec.n_cores
        by_core: dict[int, list[int]] = {c: [] for c in range(cores_total)}
        records: list[tuple[int, int, int, int, int]] = []
        for thread in range(spec.threads_per_core):
            for node in range(spec.nodes):
                for pkg in range(spec.packages_per_node):
                    for core in range(spec.cores_per_package):
                        global_pkg = node * spec.packages_per_node + pkg
                        global_core = global_pkg * spec.cores_per_package + core
                        cpu_id = (
                            thread * cores_total
                            + node * spec.packages_per_node * spec.cores_per_package
                            + pkg * spec.cores_per_package
                            + core
                        )
                        records.append((cpu_id, node, global_pkg, global_core, thread))
                        by_core[global_core].append(cpu_id)
        records.sort()
        return tuple(
            CpuInfo(
                cpu_id=cpu_id,
                node=node,
                package=global_pkg,
                core=global_core,
                thread=thread,
                siblings=tuple(c for c in by_core[global_core] if c != cpu_id),
            )
            for cpu_id, node, global_pkg, global_core, thread in records
        )

    # -- lookups ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cpus)

    def cpu(self, cpu_id: int) -> CpuInfo:
        return self.cpus[cpu_id]

    def cpus_of_node(self, node: int) -> list[int]:
        return [c.cpu_id for c in self.cpus if c.node == node]

    def cpus_of_package(self, package: int) -> list[int]:
        return [c.cpu_id for c in self.cpus if c.package == package]

    def cpus_of_core(self, core: int) -> list[int]:
        return [c.cpu_id for c in self.cpus if c.core == core]

    def siblings_of(self, cpu_id: int) -> tuple[int, ...]:
        return self.cpus[cpu_id].siblings

    def package_of(self, cpu_id: int) -> int:
        return self.cpus[cpu_id].package

    def node_of(self, cpu_id: int) -> int:
        return self.cpus[cpu_id].node

    @property
    def n_packages(self) -> int:
        return self.spec.n_packages

    def __repr__(self) -> str:
        s = self.spec
        return (
            f"Topology({s.nodes} node(s) x {s.packages_per_node} pkg "
            f"x {s.cores_per_package} core(s) x {s.threads_per_core} thread(s) "
            f"= {s.n_cpus} logical CPUs)"
        )
