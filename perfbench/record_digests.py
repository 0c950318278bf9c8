"""Record the sha256 of every artifact at the default seed into digests.json.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run it only when a change is meant to alter artifact bytes; the benchmark
compares every later run against these digests.
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads as wl
from iteration import run_iteration


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for workload in wl.WORKLOADS:
            result = run_iteration(workload, wl.DEFAULT_SEED,
                                   Path(tmp) / workload, check_digests=False)
            bad = [j for j in result["jobs"] if j["error"]]
            if bad:
                print(f"{workload}: {bad}", file=sys.stderr)
                return 1
            digests[workload] = {j["id"]: j["sha256"] for j in result["jobs"]}
    wl.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
