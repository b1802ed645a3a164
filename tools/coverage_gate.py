#!/usr/bin/env python3
"""Line-coverage gate over gcov data from an instrumented build.

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        "-DCMAKE_CXX_FLAGS=--coverage" "-DCMAKE_EXE_LINKER_FLAGS=--coverage"
    cmake --build build-cov --target checker_test ...  # then run the tests
    python3 tools/coverage_gate.py --build build-cov --min 95 \\
        --gate src/check/checker.cc --gate src/check/history_recorder.cc \\
        --report src/check/invariants.cc

Prints the line coverage of every --gate and --report source and exits 1
when a --gate source is below --min percent (or has no coverage data).
"""

import argparse
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def line_coverage(build, source):
    """(percent, lines) for `source` from its .gcda, or None without data."""
    name = Path(source).name
    gcdas = sorted(Path(build).rglob(name + ".gcda"))
    if not gcdas:
        return None
    # CMake names the object <source>.o, so its notes and data files are
    # <source>.gcno/.gcda; pointing -o at the object lets gcov find both.
    obj = gcdas[0].with_suffix(".o")
    with tempfile.TemporaryDirectory() as scratch:
        out = subprocess.run(
            ["gcov", "-n", "-o", str(obj), str(ROOT / source)],
            cwd=scratch, capture_output=True, text=True, check=False).stdout
    # gcov reports each file it saw; take the block for the source itself.
    blocks = re.findall(r"File '([^']*)'\nLines executed:([\d.]+)% of (\d+)", out)
    for path, percent, lines in blocks:
        if Path(path).name == name and "/src/" in "/" + path.replace("\\", "/"):
            return float(percent), int(lines)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True)
    parser.add_argument("--min", type=float, default=95.0)
    parser.add_argument("--gate", action="append", default=[])
    parser.add_argument("--report", action="append", default=[])
    args = parser.parse_args()
    failed = False
    for source in args.gate + args.report:
        gated = source in args.gate
        cov = line_coverage(args.build, source)
        if cov is None:
            print(f"{source}: no coverage data")
            failed |= gated
            continue
        percent, lines = cov
        verdict = ""
        if gated:
            verdict = "ok" if percent >= args.min else f"BELOW {args.min}%"
            failed |= percent < args.min
        print(f"{source}: {percent:.1f}% of {lines} lines {verdict}".rstrip())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
