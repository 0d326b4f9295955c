"""Print criterion 8's estimate ratios bit for bit, to diff two versions of the code.

    python3 tools/criterion8_values.py [N] [--compare SAVED]

Runs the solves and estimate ratios of ``check_08_ratio_stability`` for the
first N random instances (default ``acceptance.RATIO_INSTANCES``), with one
BLAS thread: the thread variables are set before numpy is loaded.  Prints one
line per ratio, ``instance h kind lhs rhs ratio`` with the three numbers as
``float.hex`` (``none`` for a ratio that is not ok), then one ``zero status lhs rhs`` line per degenerate zero-data
case, then ``sha256`` of the lines above.  Two versions give the same values
exactly when their outputs are equal.  With ``--compare SAVED``, a saved
output of the same N, it then prints the largest relative difference of each
of ``lhs``, ``rhs`` and ``ratio`` against it, over the ratio and zero-data
lines, and exits 1 when one is above ``BOUND`` (ROADMAP aim 3's bound for
norms) or when the two outputs list different ratios or statuses.  Uses only
the standard library and wedgelab.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BOUND = 1e-12


def hexf(x) -> str:
    return "none" if x is None else float(x).hex()


def values(lines: list[str]) -> dict[tuple[str, ...], list[str]]:
    """The ratio and zero-data lines as {key: [lhs, rhs, ratio]}, keyed by instance, h and kind or by status."""
    out = {}
    for k, line in enumerate(lines):
        head, *rest = line.split()
        if head == "zero":
            out[("zero", str(k), rest[0])] = rest[1:]
        elif head.isdigit():
            out[(head, *rest[:2])] = rest[2:]
    return out


def rel_diff(new: str, old: str) -> float:
    a, b = float.fromhex(new), float.fromhex(old)
    return 0.0 if a == b else abs(a - b) / abs(b) if b else float("inf")


def compare(lines: list[str], saved: list[str]) -> int:
    """Print the largest relative difference of lhs, rhs and ratio against ``saved``; 1 when above ``BOUND``."""
    new, old = values(lines), values(saved)
    if new.keys() != old.keys():
        print(f"compare: the outputs list different ratios ({len(new)} lines here, {len(old)} saved)")
        return 1
    worst = {"lhs": 0.0, "rhs": 0.0, "ratio": 0.0}
    for key, row in new.items():
        for name, a, b in zip(worst, row, old[key]):
            if "none" in (a, b):
                if a != b:
                    print(f"compare: {' '.join(key)} {name} is {a} here and {b} saved")
                    return 1
                continue
            worst[name] = max(worst[name], rel_diff(a, b))
    print("compare max_rel_diff " + " ".join(f"{name} {d:.3g}" for name, d in worst.items()) + f" bound {BOUND:g}")
    return int(max(worst.values()) > BOUND)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("n", nargs="?", type=int, help="instances to run (default: all of criterion 8's)")
    parser.add_argument("--compare", type=Path, metavar="SAVED", help="a saved output of the same N to compare with")
    args = parser.parse_args()
    n = args.n
    if n is not None and n < 1:
        parser.error("N must be a positive integer")
    try:
        saved = args.compare.read_text().splitlines() if args.compare else None
    except OSError as exc:
        parser.error(f"cannot read {args.compare}: {exc.strerror}")
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
    return 0 if saved is None else compare(lines, saved)


if __name__ == "__main__":
    sys.exit(main())
