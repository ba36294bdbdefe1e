"""Write bench/golden/<workload>.json from one pass of each workload and size.

    python3 bench/capture_golden.py

The goldens are captured at the default seed.  Recapture only in a change
that means to alter the program's outputs, and say in that change why.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN_DIR, import_package
from workloads import DEFAULT_SEED, SIZES, WORKLOADS


def main() -> int:
    bncagg = import_package()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        golden = {}
        for size in SIZES:
            workload = cls(bncagg, size, DEFAULT_SEED, golden=None)
            golden[size] = workload.to_golden(workload.run_pass())
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(golden, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
