#!/usr/bin/env python3
"""Exit-code checks for scripts/bench_diff.py on small fixture pairs.

Usage: bench_diff_test.py BENCH_DIFF_SCRIPT FIXTURE_DIR

An interval cell whose opt_closed flips true -> false must fail the diff
(exit 1) even though its bracket is unchanged; an unchanged pair and a
false -> true flip must pass (exit 0).
"""

import pathlib
import subprocess
import sys


def main() -> int:
    script, fixtures = sys.argv[1], pathlib.Path(sys.argv[2])
    cases = [
        ("closed.json", "reopened.json", 1),  # true -> false: regression
        ("closed.json", "closed.json", 0),  # unchanged
        ("open.json", "closed.json", 0),  # false -> true: improvement
    ]
    failures = 0
    for base, cand, want in cases:
        got = subprocess.run(
            [sys.executable, script, str(fixtures / base), str(fixtures / cand)],
            capture_output=True,
            text=True,
        )
        verdict = "ok" if got.returncode == want else "WRONG"
        print(f"{base} -> {cand}: exit {got.returncode}, want {want}: {verdict}")
        if got.returncode != want:
            failures += 1
            print(got.stdout + got.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
