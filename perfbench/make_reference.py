"""Write ``reference.json``: every pool input's expected outcome.

Run once against the code whose answers the benchmark pins (the seed)::

    python3 perfbench/make_reference.py

Each workload is set up and every pool input is run once, untimed; the
outcome of each operation (``T*`` or ``T`` as exact strings, the witness
verdict with admitted and missed counts) is recorded under its key.  An
operation that fails its checks aborts the script: a reference must not
pin a wrong answer.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from suite import WORKLOADS  # noqa: E402


def outcomes(name: str) -> dict:
    workload = WORKLOADS[name]()
    work_dir = tempfile.mkdtemp()
    try:
        workload.setup(work_dir)
        result = dict(workload.reference_outcomes())
        for item in workload.pool:
            outcome, problems, _ratio, _counters = workload.inspect(item, workload.run(item))
            if problems:
                raise SystemExit(f"{workload.op_id(item)}: {problems}")
            result[workload.op_id(item)] = outcome
        return result
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)


def main() -> None:
    reference = {name: outcomes(name) for name in WORKLOADS}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
