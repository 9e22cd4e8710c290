"""Scheduler domains (§4.1, Figure 1).

A :class:`SchedDomain` consists of CPU groups; domains stack into a
hierarchy mirroring the topology.  For the paper's testbed the levels
are: *physical* (SMT siblings of one package), *node* (packages of one
NUMA node), and *top* (the two nodes).  The §7 CMP extension adds a
*core* level between SMT and node.

As in Linux, each CPU owns a bottom-up chain of the domains containing
it; balancing at a level moves tasks between that domain's groups, and
the cheapest (lowest) level that can resolve an imbalance is preferred.
SMT-level domains carry ``smt_level=True`` — the flag the paper adds to
tell the scheduler to skip energy balancing between siblings (§4.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.cpu.topology import Topology


@dataclass(frozen=True, slots=True)
class CpuGroup:
    """A set of CPUs treated as one balancing unit within a domain."""

    cpus: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cpus:
            raise ValueError("CPU group cannot be empty")

    def __contains__(self, cpu_id: int) -> bool:
        return cpu_id in self.cpus

    def __len__(self) -> int:
        return len(self.cpus)


@dataclass(frozen=True, slots=True)
class SchedDomain:
    """One level of the hierarchy as seen from any CPU inside it."""

    level: int
    name: str
    span: tuple[int, ...]
    groups: tuple[CpuGroup, ...]
    smt_level: bool = False
    #: cpu -> group lookup; balancing passes resolve the local group on
    #: every invocation, so this must not be a linear scan
    _group_of: Mapping = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.groups) < 2:
            raise ValueError(f"domain {self.name!r} needs >= 2 groups")
        covered = sorted(c for g in self.groups for c in g.cpus)
        if covered != sorted(self.span):
            raise ValueError(f"domain {self.name!r}: groups do not partition span")
        object.__setattr__(
            self,
            "_group_of",
            MappingProxyType({c: g for g in self.groups for c in g.cpus}),
        )

    def __reduce__(self):
        # A mapping proxy does not pickle; the lookup is rebuilt.
        return (
            SchedDomain,
            (self.level, self.name, self.span, self.groups, self.smt_level),
        )

    def local_group(self, cpu_id: int) -> CpuGroup:
        """The group containing ``cpu_id``."""
        group = self._group_of.get(cpu_id)
        if group is None:
            raise ValueError(f"CPU {cpu_id} not in domain {self.name!r}")
        return group


class DomainHierarchy:
    """Per-CPU bottom-up domain chains for one machine.

    Read-only, so one hierarchy can be shared by every machine built on
    the same topology.
    """

    def __init__(self, chains: Mapping[int, tuple[SchedDomain, ...]]) -> None:
        self._chains = MappingProxyType(dict(chains))

    def __reduce__(self):
        return (DomainHierarchy, (dict(self._chains),))

    def chain(self, cpu_id: int) -> tuple[SchedDomain, ...]:
        """Domains containing ``cpu_id``, lowest level first."""
        return self._chains[cpu_id]

    @property
    def n_levels(self) -> int:
        return max((len(c) for c in self._chains.values()), default=0)

    def top_domain(self, cpu_id: int) -> SchedDomain | None:
        chain = self._chains[cpu_id]
        return chain[-1] if chain else None

    def __repr__(self) -> str:
        any_chain = next(iter(self._chains.values()), ())
        return f"DomainHierarchy(levels={[d.name for d in any_chain]})"


def build_domains(topology: Topology) -> DomainHierarchy:
    """Construct the hierarchy for a topology.

    Levels are emitted bottom-up and only when they have >= 2 groups:

    * ``smt``  — groups are single logical CPUs of one core;
    * ``core`` — groups are the cores of one package (CMP extension);
    * ``node`` — groups are the packages of one node;
    * ``top``  — groups are the NUMA nodes.
    """
    spec = topology.spec
    chains: dict[int, list[SchedDomain]] = {c.cpu_id: [] for c in topology.cpus}
    level = 0

    if spec.threads_per_core > 1:
        for core in range(spec.n_cores):
            cpus = tuple(sorted(topology.cpus_of_core(core)))
            domain = SchedDomain(
                level=level,
                name="smt",
                span=cpus,
                groups=tuple(CpuGroup((c,)) for c in cpus),
                smt_level=True,
            )
            for c in cpus:
                chains[c].append(domain)
        level += 1

    if spec.cores_per_package > 1:
        for pkg in range(spec.n_packages):
            cpus = tuple(sorted(topology.cpus_of_package(pkg)))
            cores = sorted({topology.cpu(c).core for c in cpus})
            groups = tuple(
                CpuGroup(tuple(sorted(topology.cpus_of_core(core)))) for core in cores
            )
            domain = SchedDomain(
                level=level, name="core", span=cpus, groups=groups
            )
            for c in cpus:
                chains[c].append(domain)
        level += 1

    if spec.packages_per_node > 1:
        for node in range(spec.nodes):
            cpus = tuple(sorted(topology.cpus_of_node(node)))
            packages = sorted({topology.cpu(c).package for c in cpus})
            groups = tuple(
                CpuGroup(tuple(sorted(topology.cpus_of_package(p)))) for p in packages
            )
            domain = SchedDomain(
                level=level, name="node", span=cpus, groups=groups
            )
            for c in cpus:
                chains[c].append(domain)
        level += 1

    if spec.nodes > 1:
        cpus = tuple(c.cpu_id for c in topology.cpus)
        groups = tuple(
            CpuGroup(tuple(sorted(topology.cpus_of_node(n))))
            for n in range(spec.nodes)
        )
        domain = SchedDomain(level=level, name="top", span=cpus, groups=groups)
        for c in cpus:
            chains[c].append(domain)

    return DomainHierarchy({cpu: tuple(chain) for cpu, chain in chains.items()})
