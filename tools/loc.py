#!/usr/bin/env python3
"""Count the non-blank lines of poollab's Python sources.

Prints the non-blank line count of each file, then the total of each
group: the package (``src/poollab/*.py``) and the benchmark harness
(``perfbench/*.py``).  A line holding only whitespace is blank.

Usage: python3 tools/loc.py
"""

from __future__ import annotations

from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Group name -> the glob, relative to the repository root, of its files.
GROUPS = {"src/poollab": "src/poollab/*.py", "perfbench": "perfbench/*.py"}


def non_blank_lines(path: Path) -> int:
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def count(pattern: str) -> dict[str, int]:
    """Non-blank lines of each file matching ``pattern``, by its path from the root."""
    return {path.relative_to(REPO).as_posix(): non_blank_lines(path)
            for path in sorted(REPO.glob(pattern))}


def main() -> None:
    for group, pattern in GROUPS.items():
        counts = count(pattern)
        for name, lines in counts.items():
            print(f"{lines:6d}  {name}")
        print(f"{sum(counts.values()):6d}  {group} total")


if __name__ == "__main__":
    main()
