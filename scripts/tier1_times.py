"""Run the tier-1 suite several times in sequence and report each test's slowest time.

    python3 scripts/tier1_times.py [--runs 3] [pytest args ...]

Each run is ``python -m pytest -q --continue-on-collection-errors --durations=0
--durations-min=0`` from the repository root with ``src`` on ``PYTHONPATH``, started
after the previous one has ended. A test's time in one run is the sum of its setup,
call and teardown; the report gives its maximum over the runs, slowest first, then
the tests whose maximum is over 2 s. Hypothesis draws differ from run to run, so the
maximum of several runs shows what one unlucky draw costs. Extra arguments go to
pytest (a test file, ``-k``, ``-p no:randomly`` ...). The script uses the standard
library only and is not itself part of tier-1.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(\S.*)$")
OVER_S = 2.0  # the report lists the tests slower than this in some run
SUMMARY = re.compile(r"^=* ?(.*\b(?:passed|failed|error|errors|skipped)\b.*?) ?=*$")


def run_once(pytest_args: list[str]) -> tuple[dict[str, float], str, float]:
    """One tier-1 run: ``{test id: seconds}``, pytest's summary line and the run's wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               "--durations=0", "--durations-min=0", *pytest_args]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    times: dict[str, float] = defaultdict(float)
    summary = f"exit status {done.returncode}, no summary line"
    for line in done.stdout.splitlines():
        if match := DURATION.match(line):
            times[match[3]] += float(match[1])
        elif match := SUMMARY.match(line):
            summary = match[1]
    return times, summary, wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="tier-1 runs, one after another (default 3)")
    args, pytest_args = parser.parse_known_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    slowest: dict[str, float] = {}
    for run in range(1, args.runs + 1):
        times, summary, wall = run_once(pytest_args)
        print(f"run {run}/{args.runs}: {summary}; {wall:.1f} s wall", flush=True)
        for test, seconds in times.items():
            slowest[test] = max(seconds, slowest.get(test, 0.0))

    ranked = sorted(slowest.items(), key=lambda item: (-item[1], item[0]))
    print(f"\neach test's maximum over {args.runs} run(s), slowest first:")
    for test, seconds in ranked:
        print(f"{seconds:8.2f} s  {test}")
    over = [(test, seconds) for test, seconds in ranked if seconds > OVER_S]
    print(f"\n{len(over)} test(s) over {OVER_S:g} s:")
    for test, seconds in over:
        print(f"{seconds:8.2f} s  {test}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
