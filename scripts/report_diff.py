"""Compare the CLI reports of two checkouts, invocation by invocation.

    python3 scripts/report_diff.py --parent DIR

Runs a fixed list of ``semest`` invocations, each in a fresh interpreter,
once with ``DIR/src`` and once with this checkout's ``src`` first on
``PYTHONPATH``; both sides read the input files of this checkout, and a
10000-row unit ``sample,y,x1,x2,x3`` file for the long schema that this
script writes to a temporary directory from a seeded ``random.Random``.  For each
invocation it prints both exit codes and ``identical`` when they are equal
and stdout is equal once every ``runtime_ms`` value and ``runtime ... ms``
text is removed.  Otherwise it prints ``differs`` and the largest relative
difference among the numbers of the two outputs (the JSON numbers of a
JSON report, every number of a text one).  Exits 1 if any invocation
differs.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "tests" / "fixtures").glob("wide_support*.csv"))
DATASETS = [["--builtin", "leprosy"]] + [["--input", str(path)] for path in FIXTURES]
METHODS = ("mle", "reparam-nonid", "reparam-id")
INVOCATIONS = [
    *(
        cmd + data + ["--format", "json"]
        for data in DATASETS
        for cmd in [*(["fit", "--method", m] for m in METHODS), ["compare"]]
    ),
    ["validate", "--seed", "0"],
    ["validate", "--seed", "3"],
    ["validate", "--mc", "--reps", "500", "--seed", "0"],
]
LONG_METHODS = ("reparam-id", "reparam-nonid")
RUNTIME_JSON = re.compile(r'("runtime_ms": )[^,\n}]+')  # the value becomes null
RUNTIME_TEXT = re.compile(r"runtime \S+ ms")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def write_unit_long(path, n=10000, seed=29):
    """A unit-row ``sample,y,x1,x2,x3`` file: n/2 controls x ~ N(0, I), then
    n/2 cases x ~ N(beta, I), beta = (0.5, -0.3, 0.2), floats as repr."""
    rng = random.Random(seed)
    lines = ["sample,y,x1,x2,x3"]
    for i in range(n):
        case = i >= n // 2
        shift = (0.5, -0.3, 0.2) if case else (0.0, 0.0, 0.0)
        x = (repr(rng.gauss(b, 1.0)) for b in shift)
        lines.append(f"{1 + case},{int(case)}," + ",".join(x))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(src, args):
    """Exit code and stdout of ``semest ARGS`` with ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "semest.cli", *args], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    out = RUNTIME_JSON.sub(r"\1null", proc.stdout)
    return proc.returncode, RUNTIME_TEXT.sub("runtime ms", out)


def numbers(text):
    """The numbers of ``text``: its JSON numbers in document order, or, for
    text that is not JSON, every number in it."""
    try:
        doc = json.loads(text)
    except ValueError:
        return [float(tok) for tok in NUMBER.findall(text)]
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(reversed(list(node.values())))
        elif isinstance(node, list):
            stack.extend(reversed(node))
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out.append(float(node))
    return out


def max_rel_diff(a, b):
    """Largest |x - y| / max(|x|, |y|) over paired numbers; None when the
    outputs do not hold the same count of numbers."""
    xs, ys = numbers(a), numbers(b)
    if len(xs) != len(ys):
        return None
    worst = 0.0
    for x, y in zip(xs, ys):
        if x != y:
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if scale else float("inf"))
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare with")
    args = parser.parse_args(argv)
    differs = 0
    with tempfile.TemporaryDirectory() as tmp:
        unit_long = Path(tmp) / "unit_long.csv"
        write_unit_long(unit_long)
        invocations = INVOCATIONS + [
            ["fit", "--input", str(unit_long), "--schema", "long", "--method", m,
             "--format", "json"]
            for m in LONG_METHODS
        ]
        for argv_ in invocations:
            (code_p, out_p), (code_c, out_c) = (run(args.parent / "src", argv_),
                                                run(ROOT / "src", argv_))
            same = code_p == code_c and out_p == out_c
            line = f"exit {code_p} {code_c}  {'identical' if same else 'differs'}"
            if out_p != out_c:
                rel = max_rel_diff(out_p, out_c)
                line += "  numbers differ in count" if rel is None else f"  max rel diff {rel:.3e}"
            shown = " ".join(argv_).replace(str(ROOT) + os.sep, "").replace(tmp + os.sep, "")
            print(f"{line}  semest {shown}", flush=True)
            differs += not same
    print(f"{differs} of {len(invocations)} invocations differ")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
