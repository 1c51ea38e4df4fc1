"""Check that a set of traced benchmark runs repeated every exact count.

Usage: ``python3 bench/check_set.py OUTPUT...``, each file holding the
standard output of one ``bench/run.py --trace 1`` run of the same workload
(any seed). Exits 1, naming the counts, when a run was incorrect or an
exact count differs between runs.
"""

from __future__ import annotations

import json
import sys

from run import EXACT


def main(paths: list[str]) -> int:
    seen: dict[str, dict[str, float]] = {}
    bad = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.loads(fh.read().strip().splitlines()[-1])
        if not result["correct"]:
            bad.append(f"{path}: run was not correct")
            continue
        for key in EXACT:
            seen.setdefault(key, {})[path] = result["metrics"][key]["value"]
    for key, values in seen.items():
        if len(set(values.values())) > 1:
            bad.append(f"{key} differs: {values}")
    for line in bad:
        print(line)
    print(f"{len(paths)} runs, {len(EXACT)} exact counts: {'mismatch' if bad else 'identical'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
