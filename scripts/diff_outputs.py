#!/usr/bin/env python3
"""python3 scripts/diff_outputs.py DIR_A DIR_B: is each file identical?  For a
JSON or CSV file that differs, print the largest relative difference per key
path or column and each non-numeric mismatch; exit 1 on those or a missing file."""

import csv
import json
import sys
from pathlib import Path


def leaves(a, b, path=""):
    """(path, a, b) per leaf, list indices written as []; differing keys are one pair."""
    if {type(a), type(b)} not in ({dict}, {list}):
        return [(path, a, b)]
    keys_a, keys_b = (list(x) if isinstance(x, dict) else list(range(len(x))) for x in (a, b))
    out = [(path, f"keys {keys_a}"[:200], f"keys {keys_b}"[:200])] if keys_a != keys_b else []
    return out + [pair for k in keys_a if k in keys_b
                  for pair in leaves(a[k], b[k], path + ("[]" if isinstance(a, list) else f".{k}"))]


def load(p: Path):
    with p.open(newline="") as fh:   # a CSV file is a list of rows keyed by column
        return json.load(fh) if p.suffix == ".json" else list(csv.DictReader(fh))


def report(a, b) -> bool:   # True if a difference is non-numeric
    worst, mismatch = {}, False
    for key, x, y in leaves(a, b):
        try:
            fx, fy = float(x), float(y)   # CSV cells are strings
        except (TypeError, ValueError):
            fx = fy = None
        if x != y and (fx is None or isinstance(x, bool) or isinstance(y, bool)):
            print(f"  non-numeric {key}: {x!r} != {y!r}")
            mismatch = True
        elif fx != fy:
            worst[key] = max(worst.get(key, 0.0), abs(fx - fy) / max(abs(fx), abs(fy)))
    for key, value in worst.items():
        print(f"  {key}: max relative difference {value:.3g}")
    return mismatch


def main(dir_a: str, dir_b: str) -> int:
    roots, failed = (Path(dir_a), Path(dir_b)), False
    for name in sorted({p.relative_to(r).as_posix() for r in roots for p in r.rglob("*") if p.is_file()}):
        a, b = (r / name for r in roots)
        if not (a.is_file() and b.is_file()):
            print(f"{name}: missing in {dir_b if a.is_file() else dir_a}")
            failed = True
        elif a.read_bytes() == b.read_bytes():
            print(f"{name}: identical")
        else:
            print(f"{name}: differs")
            failed |= a.suffix not in (".json", ".csv") or report(load(a), load(b))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
