"""Record the golden outputs: the sha256 of every byte-compared CLI command.

    python3 perfbench/record_golden.py

Run at a commit whose outputs are known good; the benchmark then counts an
operation whose output bytes differ as failed.  The BLAS is pinned to one
thread, as in the benchmark, before numpy is imported.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    golden = {
        " ".join(argv): workloads.digest(workloads.call_cli(argv))
        for argv in workloads.golden_commands()
    }
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"recorded {len(golden)} outputs in {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
