#!/usr/bin/env python3
"""Temperature control: throttling vs energy-aware scheduling (§6.2).

A data-centre-style scenario: the eight packages of the machine cool
unevenly (some sit near the air inlet, some behind others), the firmware
throttles any logical CPU whose thermal power corresponds to more than
38 degC, and the machine is saturated with a mixed batch workload.

The script prints Table-3-style per-CPU throttling percentages for the
vanilla and the energy-aware scheduler and the resulting throughput
difference — the paper's headline "energy-aware scheduling increases
the system's throughput by about 5 %".

Run:  python examples/temperature_control.py
"""

from repro import compare_policies, mixed_table2_workload
from repro.analysis.report import format_table
from repro.analysis.stats import throttle_table
from repro.experiments import table3_config

DURATION_S = 300.0


def main() -> None:
    # Table 3's machine: packages 0, 3 and 4 cool poorly
    # (repro.experiments.T3_PACKAGE_R).
    config = table3_config(seed=11)
    workload = mixed_table2_workload(copies=6)  # 36 tasks on 16 logical CPUs
    print("16 logical CPUs, 38 degC limit, heterogeneous cooling")
    print(f"running both policies for {DURATION_S:.0f} simulated seconds...\n")

    cmp = compare_policies(config, workload, duration_s=DURATION_S)
    base, energy = cmp.baseline, cmp.energy_aware

    rows = [
        [row.cpu, f"{row.disabled_pct:.1f}%", f"{row.enabled_pct:.1f}%"]
        for row in throttle_table(base, energy)
    ]
    rows.append(
        ["average",
         f"{base.average_throttle_fraction() * 100:.1f}%",
         f"{energy.average_throttle_fraction() * 100:.1f}%"]
    )
    print(format_table(
        ["logical CPU", "vanilla scheduler", "energy-aware"],
        rows,
        title="CPU throttling percentage (CPUs that never throttle omitted)",
    ))
    print(f"\nthroughput increase with energy-aware scheduling: "
          f"{cmp.throughput_gain:+.1%}   (paper: +4.7%)")
    print(f"hottest package ever reached: "
          f"{energy.max_temperature_c:.1f} degC (limit 38 degC)")


if __name__ == "__main__":
    main()
