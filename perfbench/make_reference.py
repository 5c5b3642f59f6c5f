"""Regenerate reference.json, the set-up values every benchmark run checks.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

It runs the set-up of every workload case, full size and smoke size, and
records the constants and the first eigenvalue.  Regenerate only for a
change that is meant to move these values, and say so in its description.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def main():
    values = {}
    for name in harness.WORKLOADS:
        for smoke in (False, True):
            for case in harness.workload_cases(name, smoke):
                s = harness.set_up(case)
                entry = {k: getattr(s.constants, k)
                         for k in harness.CONSTANT_KEYS}
                entry["lambda1"] = s.eigen.lambda1
                values[case.key] = entry
                print(f"{case.key}: {s.seconds:.2f} s", file=sys.stderr)
    harness.REFERENCE_PATH.write_text(
        json.dumps(values, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
