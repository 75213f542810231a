"""Time one fresh-process set-up: ``import repro`` plus building a scenario
up to its first simulated event.  Prints one JSON line, with the median
host-speed probe time measured right after (for normalization).

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from clock import wall  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = wall()
    import scenarios
    imported = wall()
    scenarios.BUILDERS[workload](seed)
    built = wall()
    import measure
    probes = sorted(measure.probe() for _ in range(51))
    print(json.dumps({"import_s": imported - start,
                      "build_s": built - imported,
                      "probe_s": probes[len(probes) // 2]}))


if __name__ == "__main__":
    main()
