"""Non-blank ``.py`` lines per module under ``src/semest/``, and their total.

    python3 scripts/src_lines.py [--root DIR]

``--root`` is a checkout of the repository (default: the one holding this
script).  This is the size measure ROADMAP.md quotes for ``src/``.
"""

from __future__ import annotations

import argparse
from pathlib import Path


def count_lines(path):
    """Lines of ``path`` that hold anything besides whitespace."""
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    package = args.root / "src" / "semest"
    counts = {
        path.relative_to(package).as_posix(): count_lines(path)
        for path in sorted(package.rglob("*.py"))
    }
    width = max(map(len, counts), default=5)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")


if __name__ == "__main__":
    main()
