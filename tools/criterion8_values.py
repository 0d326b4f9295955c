"""Print criterion 8's estimate ratios bit for bit, to diff two versions of the code.

    python3 tools/criterion8_values.py [N]

Runs the solves and estimate ratios of ``check_08_ratio_stability`` for the
first N random instances (default ``acceptance.RATIO_INSTANCES``), with one
BLAS thread: the thread variables are set before numpy is loaded.  Prints one
line per ratio, ``instance h kind lhs rhs ratio`` with the three numbers as
``float.hex`` (``none`` for a ratio that is not ok), then one ``zero status lhs rhs`` line per degenerate zero-data
case, then ``sha256`` of the lines above.  Two versions give the same values
exactly when their outputs are equal.  Uses only the standard library and wedgelab.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def hexf(x) -> str:
    return "none" if x is None else float(x).hex()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("n", nargs="?", type=int, help="instances to run (default: all of criterion 8's)")
    n = parser.parse_args().n
    if n is not None and n < 1:
        parser.error("N must be a positive integer")
    os.environ.update(ONE_THREAD)
    sys.path.insert(0, str(ROOT / "src"))
    from wedgelab import acceptance

    lines = []
    for i in range(acceptance.RATIO_INSTANCES if n is None else n):
        for h, kind, r in acceptance._instance_ratios(i):
            lines.append(f"{i} {h} {kind} {hexf(r.lhs)} {hexf(r.rhs)} {hexf(r.ratio)}")
            print(lines[-1], flush=True)
    for r0 in acceptance._zero_data_ratios():
        lines.append(f"zero {r0.status} {hexf(r0.lhs)} {hexf(r0.rhs)}")
        print(lines[-1])
    print("sha256", hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()
