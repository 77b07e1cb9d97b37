"""Fit 1500 small random case-control tables with every method, and list
the tables on which the methods disagree.

    python3 scripts/sweep_tables.py

The tables come from ``numpy.random.default_rng(2026)``: 1-6 rows, each
with an age from {-5, 0, 2.5, 7.5, 12.5, 17.5, 32.5, 1e4}, a scar value
from {0, 0.5, 1, 1e6}, and cases and controls from 0-29.  Each table is
written as an ``age,scar,cases,controls`` CSV file and goes through
``semest fit --method M --format json`` in process, once per method.  The
script prints the count of each (mle, reparam-nonid, reparam-id) exit-code
triple, then every table whose exit codes differ, or whose slopes differ
by more than 1e-6 relative when all three exit 0, with the error messages.
The package is imported from ``src/`` beside this directory.  numpy only.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semest import cli  # noqa: E402
from semest.analysis import METHODS  # noqa: E402

N_TABLES = 1500
AGES = (-5.0, 0.0, 2.5, 7.5, 12.5, 17.5, 32.5, 1e4)
SCARS = (0.0, 0.5, 1.0, 1e6)
SLOPE_RTOL = 1e-6


def tables(rng):
    """``N_TABLES`` tables, each a list of (age, scar, cases, controls) rows."""
    for _ in range(N_TABLES):
        rows = int(rng.integers(1, 7))
        ages, scars = rng.choice(AGES, rows), rng.choice(SCARS, rows)
        counts = rng.integers(0, 30, size=(rows, 2))
        yield [(float(a), float(s), int(c), int(k)) for a, s, (c, k) in zip(ages, scars, counts)]


def fit(path, method):
    """Exit code of ``semest fit`` on ``path``, and its slopes on exit 0 or
    its error message otherwise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["fit", "--input", str(path), "--method", method, "--format", "json"])
    if code == 0:
        return code, np.array(json.loads(out.getvalue())["coef"])
    return code, err.getvalue().strip()


def slope_gap(slopes):
    """Largest elementwise relative difference of each method's slopes from the first's."""
    ref = slopes[0]
    return max(
        float(np.max(np.abs(s - ref) / np.maximum(np.maximum(np.abs(s), np.abs(ref)), 1e-300)))
        for s in slopes[1:]
    )


def main():
    triples, flagged = Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        for i, rows in enumerate(tables(np.random.default_rng(2026))):
            lines = [f"{a!r},{s!r},{c},{k}" for a, s, c, k in rows]
            path.write_text("age,scar,cases,controls\n" + "\n".join(lines) + "\n")
            results = [fit(path, m) for m in METHODS]
            codes = tuple(code for code, _ in results)
            triples[codes] += 1
            if len(set(codes)) > 1:
                flagged.append((i, lines, results, "exit codes differ"))
            elif codes[0] == 0:
                gap = slope_gap([value for _, value in results])
                if gap > SLOPE_RTOL:
                    flagged.append((i, lines, results, f"slopes differ by {gap:.2e} relative"))
    print(f"exit codes ({', '.join(METHODS)}) over {N_TABLES} tables:")
    for codes, count in sorted(triples.items()):
        print(f"  {codes}: {count}")
    print(f"{len(flagged)} tables disagree")
    for i, lines, results, why in flagged:
        print(f"table {i}: {why}: {' / '.join(lines)}")
        for method, (code, value) in zip(METHODS, results):
            shown = np.array2string(value, precision=6) if code == 0 else value
            print(f"    {method:14s} exit {code}  {shown}")


if __name__ == "__main__":
    main()
