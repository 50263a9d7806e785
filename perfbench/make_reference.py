"""Write ``reference.json``: each workload's output at ``REFERENCE_SEED``.

The reference pins the benchmark's output checks to the numbers of the commit
it was made at. Regenerate it only when a change alters the numbers on
purpose, and say so in that change. Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

import workloads


def main() -> int:
    outdir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    reference = {}
    for size in ("full", "small"):
        reference[size] = {}
        for name in workloads.WORKLOADS:
            workload = workloads.make(name, size, workloads.REFERENCE_SEED, outdir)
            workload.prepare()
            reference[size][name] = workload.reference(workload.collect(workload.op()))
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
