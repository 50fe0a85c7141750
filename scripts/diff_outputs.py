#!/usr/bin/env python3
"""Compare two output trees of the pilotopt CLI and list every difference.

Usage: python3 scripts/diff_outputs.py PARENT_OUT CHANGE_OUT

Both trees hold the files written by ``design``, ``sweep``, ``structure`` and
``validate``.  Timing fields (``wall_time``, ``runtime_s``) are ignored.
JSON files are compared field by field; a numeric array is summarized as
"n of m differ, max abs ...".  CSV files are compared row by row with the
timing columns dropped.  Any other file is compared line by line, and each
changed line is printed as ``line N: -old`` or ``line N: +new``, numbered in
the parent's or the change's file.  Prints one line per difference and exits 1
if there is any, 0 otherwise; a reader that closes the pipe early (``| head``)
ends the printing quietly but not the count behind the exit status.  Standard
library only.
"""

import csv
import difflib
import io
import json
import os
import sys
from pathlib import Path

IGNORED = {"wall_time", "runtime_s"}


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def diff_json(a, b, path=""):
    """Yield one description per differing field of two parsed JSON values."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key in IGNORED:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                side = "parent" if key in a else "change"
                yield f"{sub}: only in {side}"
            else:
                yield from diff_json(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list):
        if a and b and len(a) == len(b) and all(map(_is_number, a + b)):
            gaps = [abs(x - y) for x, y in zip(a, b) if x != y]
            if gaps:
                yield f"{path}: {len(gaps)} of {len(a)} differ, max abs {max(gaps):.3g}"
        elif len(a) != len(b):
            yield f"{path}: length {len(a)} -> {len(b)}"
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                yield from diff_json(x, y, f"{path}[{i}]")
    elif a != b:
        line = f"{path}: {json.dumps(a)} -> {json.dumps(b)}"
        if _is_number(a) and _is_number(b) and a != 0:
            line += f" (rel {(b - a) / abs(a):+.3g})"
        yield line


def _csv_rows(text):
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = "\n".join(line for line in lines if not line.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    if not rows:
        return comments, [], []
    keep = [i for i, name in enumerate(rows[0]) if name not in IGNORED]
    return comments, [rows[0][i] for i in keep], [[row[i] for i in keep] for row in rows[1:]]


def diff_csv(a_text, b_text):
    """Yield the differing comment lines, header and rows of two CSV files."""
    a_comments, a_head, a_rows = _csv_rows(a_text)
    b_comments, b_head, b_rows = _csv_rows(b_text)
    if a_comments != b_comments:
        yield "comment header differs"
    if a_head != b_head:
        yield f"columns {a_head} -> {b_head}"
        return
    for n in range(max(len(a_rows), len(b_rows))):
        ra = a_rows[n] if n < len(a_rows) else None
        rb = b_rows[n] if n < len(b_rows) else None
        if ra == rb:
            continue
        if ra is None or rb is None:
            side, row = ("change", rb) if ra is None else ("parent", ra)
            yield f"row {n + 1} only in {side}: {','.join(row)}"
            continue
        changed = ", ".join(
            f"{name} {x} -> {y}" for name, x, y in zip(a_head, ra, rb) if x != y
        )
        key = ",".join(ra[:3])
        yield f"row {n + 1} ({key}): {changed}"


def diff_text(a_text, b_text):
    """Yield ``line N: -old`` / ``line N: +new`` for every changed line."""
    a, b = a_text.splitlines(), b_text.splitlines()
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            yield from (f"line {n + 1}: -{a[n]}" for n in range(i1, i2))
            yield from (f"line {n + 1}: +{b[n]}" for n in range(j1, j2))


def diff_file(a_path, b_path):
    a_text, b_text = a_path.read_text(), b_path.read_text()
    if a_text == b_text:
        return
    if a_path.suffix == ".json":
        yield from diff_json(json.loads(a_text), json.loads(b_text))
    elif a_path.suffix == ".csv":
        yield from diff_csv(a_text, b_text)
    else:
        yield from diff_text(a_text, b_text)


def differences(roots):
    """Yield one line per difference between the trees at ``roots``."""
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in roots]
    for rel in sorted(files[0] | files[1]):
        if rel not in files[0] or rel not in files[1]:
            side = "parent" if rel in files[0] else "change"
            yield f"{rel}: only in {side}"
            continue
        for line in diff_file(roots[0] / rel, roots[1] / rel):
            yield f"{rel}: {line}"


def _emit(line):
    """Print ``line``; False once the reader has closed standard output."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        # Point stdout at the null device, or the flush at exit fails again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: diff_outputs.py PARENT_OUT CHANGE_OUT", file=sys.stderr)
        return 2
    roots = [Path(p) for p in args]
    for root in roots:
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
    count, printing = 0, True
    for line in differences(roots):
        count += 1
        printing = printing and _emit(line)
    if printing:
        _emit(f"{count} difference(s)")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
