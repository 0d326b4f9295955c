"""Count the non-blank, non-comment lines of each module in ``src/wedgelab/``.

    python3 tools/sloc.py

A line counts unless it is empty, all whitespace, or a ``#`` comment after
optional whitespace: the rule of ``grep -cvE '^\\s*(#|$)'``.  Docstrings count.
Prints one ``count path`` line per module, then the total.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = re.compile(r"^\s*(#|$)")


def main() -> None:
    total = 0
    for path in sorted((ROOT / "src" / "wedgelab").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        count = sum(1 for line in lines if not SKIPPED.match(line))
        total += count
        print(f"{count:6d} {path.relative_to(ROOT)}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
