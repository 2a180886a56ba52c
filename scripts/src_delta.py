#!/usr/bin/env python
"""Report the net ``src/`` line delta of a change.

Every change reports how many lines it adds to and removes from
``src/`` — a deletion that keeps every gate green counts as a result.
This script sums ``git diff --numstat REV -- src``: the working tree
against revision ``REV``, so uncommitted edits count.  Untracked files
do not; stage new files (``git add``) first.  Binary files are skipped.

Usage:
    python scripts/src_delta.py REV
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent


def src_delta(rev: str, root: Path = REPO_ROOT) -> Tuple[int, int]:
    """``(added, removed)`` lines under ``root/src`` since ``rev``."""
    out = subprocess.run(
        ["git", "diff", "--numstat", rev, "--", "src"], cwd=root,
        capture_output=True, text=True, check=True).stdout
    added = removed = 0
    for line in out.splitlines():
        plus, minus, _path = line.split("\t", 2)
        if plus != "-":              # "-" marks a binary file
            added += int(plus)
            removed += int(minus)
    return added, removed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Print added, removed and net src/ lines since REV.")
    parser.add_argument("rev", help="git revision to diff against")
    args = parser.parse_args(argv)
    try:
        added, removed = src_delta(args.rev)
    except subprocess.CalledProcessError as exc:
        print(exc.stderr.strip(), file=sys.stderr)
        return 2
    print(f"src/ since {args.rev}: +{added} -{removed} "
          f"(net {added - removed:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
