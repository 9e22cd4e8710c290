"""Re-pin the default-seed output digests in ``digests.json``.

Run from the root of a checkout after a change that is meant to alter
the program's results::

    python3 perfbench/pin.py

It runs one unit of every workload at the default seed and writes the
digest of each job's ``scalars`` and of each aggregate table.  A change
that is not meant to alter results must leave this file untouched.
"""

from __future__ import annotations

import argparse
import json
import shutil

import run


def main() -> int:
    seed = json.loads((run.HERE / "inputs.json").read_text())["default_seed"]
    pinned = {}
    for workload in run.WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=seed, seconds=1.0)
        run_dir = run.BUILD / "runs" / f"pin-{workload}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        try:
            result, _ = run.run_child("pin", args, run_dir, "pin")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if result["failed"]:
            raise SystemExit(f"{workload}: {result['failed']} jobs failed")
        pinned[workload] = {"jobs": result["jobs"],
                            "aggregate": result["aggregate"]}
        print(f"{workload}: {len(result['jobs'])} jobs pinned")
    (run.HERE / "digests.json").write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
