#!/usr/bin/env python3
"""Aggregate gcov line coverage for the coral library and gate on a minimum.

gcovr is deliberately not a dependency: this walks a --coverage build tree,
invokes plain `gcov --json-format --stdout` on every .gcda, unions the
per-translation-unit line data (a line counts as covered if any TU executed
it), and reports line coverage restricted to files under --source-prefix.

Branch coverage is gated separately and only on the decision-heavy kernels
(--branch-prefix, repeatable; default the streaming front end's filter
stages, matcher, driver and stage plumbing): line coverage
on glue code is a fine proxy, but the coalescing windows, watermarks and
match rules are condition soup where a hit line says little about which
way the condition went. Exception-only edges ("throw" branches in the gcov
JSON) are excluded, as conventional.

Usage:
  python3 scripts/coverage.py --build-dir build/coverage \
      --source-prefix src/coral --min-percent 80 \
      --branch-prefix src/coral/stream/matcher --branch-prefix src/coral/stream/coanalysis \
      --min-branch-percent 92
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def find_gcda(build_dir: str) -> list[str]:
    out = []
    for root, _dirs, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcda"):
                out.append(os.path.join(root, name))
    return sorted(out)


def run_gcov(gcda: str) -> list[dict]:
    """Run gcov on one .gcda and return the parsed JSON documents."""
    # -b: without it gcov omits the per-line "branches" arrays even in JSON.
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", "-b", gcda],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        print(f"warning: gcov failed on {gcda}: {proc.stderr.strip()}", file=sys.stderr)
        return []
    docs = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            docs.append(json.loads(line))
        except json.JSONDecodeError:
            print(f"warning: unparseable gcov output for {gcda}", file=sys.stderr)
    return docs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", required=True)
    parser.add_argument(
        "--source-prefix",
        default="src/coral",
        help="only count source files whose path contains this prefix",
    )
    parser.add_argument("--min-percent", type=float, default=80.0)
    parser.add_argument(
        "--branch-prefix",
        action="append",
        default=None,
        help="gate branch coverage on files whose path contains one of these "
        "prefixes (repeatable; default: the src/coral/stream front-end kernels)",
    )
    parser.add_argument("--min-branch-percent", type=float, default=70.0)
    args = parser.parse_args()
    branch_prefixes = args.branch_prefix or [
        f"src/coral/stream/{name}"
        for name in ("filter_stages", "matcher", "coanalysis", "stage")
    ]

    gcda_files = find_gcda(args.build_dir)
    if not gcda_files:
        print(f"error: no .gcda files under {args.build_dir}; "
              "build with --coverage and run the tests first", file=sys.stderr)
        return 2

    # file path -> {line number -> hit anywhere?}
    lines_by_file: dict[str, dict[int, bool]] = {}
    # file path -> {(line number, branch index) -> taken anywhere?}
    branches_by_file: dict[str, dict[tuple[int, int], bool]] = {}
    for gcda in gcda_files:
        for doc in run_gcov(gcda):
            for f in doc.get("files", []):
                path = os.path.normpath(f.get("file", ""))
                if args.source_prefix not in path:
                    continue
                table = lines_by_file.setdefault(path, {})
                btable = branches_by_file.setdefault(path, {})
                for ln in f.get("lines", []):
                    number = ln.get("line_number")
                    if number is None:
                        continue
                    hit = ln.get("count", 0) > 0
                    table[number] = table.get(number, False) or hit
                    for idx, br in enumerate(ln.get("branches", [])):
                        if br.get("throw"):
                            continue  # exception edges: conventionally excluded
                        key = (number, idx)
                        taken = br.get("count", 0) > 0
                        btable[key] = btable.get(key, False) or taken

    if not lines_by_file:
        print(f"error: no coverage data matched prefix {args.source_prefix!r}",
              file=sys.stderr)
        return 2

    total_lines = 0
    total_hit = 0
    rows = []
    for path in sorted(lines_by_file):
        table = lines_by_file[path]
        n = len(table)
        hit = sum(1 for covered in table.values() if covered)
        total_lines += n
        total_hit += hit
        rows.append((path, hit, n))

    for path, hit, n in rows:
        pct = 100.0 * hit / n if n else 100.0
        print(f"{pct:6.1f}%  {hit:5d}/{n:<5d}  {path}")

    overall = 100.0 * total_hit / total_lines if total_lines else 0.0
    print(f"\nTOTAL {overall:.2f}% line coverage "
          f"({total_hit}/{total_lines} lines, {len(rows)} files, "
          f"{len(gcda_files)} object files)")

    # Branch coverage, gated only on the decision-heavy kernels.
    branch_total = 0
    branch_taken = 0
    print("\nBranch coverage (gated kernels):")
    for path in sorted(branches_by_file):
        if not any(prefix in path for prefix in branch_prefixes):
            continue
        btable = branches_by_file[path]
        n = len(btable)
        taken = sum(1 for t in btable.values() if t)
        branch_total += n
        branch_taken += taken
        pct = 100.0 * taken / n if n else 100.0
        print(f"{pct:6.1f}%  {taken:5d}/{n:<5d}  {path}")
    branch_overall = 100.0 * branch_taken / branch_total if branch_total else 0.0
    print(f"\nTOTAL {branch_overall:.2f}% branch coverage on "
          f"{'/'.join(branch_prefixes)} ({branch_taken}/{branch_total} branches)")

    failed = False
    if overall < args.min_percent:
        print(f"FAIL: line coverage {overall:.2f}% is below the "
              f"{args.min_percent:.0f}% floor", file=sys.stderr)
        failed = True
    if branch_total == 0:
        print(f"FAIL: no branch data matched prefixes {branch_prefixes!r}",
              file=sys.stderr)
        failed = True
    elif branch_overall < args.min_branch_percent:
        print(f"FAIL: kernel branch coverage {branch_overall:.2f}% is below "
              f"the {args.min_branch_percent:.0f}% floor", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"OK: above the {args.min_percent:.0f}% line and "
          f"{args.min_branch_percent:.0f}% branch floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
