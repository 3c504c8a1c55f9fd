#!/usr/bin/env python3
"""Scan the complement-sum window over all small graphs, one table row per order.

For every n up to the requested cap the script enumerates graphs up to
isomorphism, measures value(G) + value(complement) with the exact solver, and
tabulates how the sums sit against the [5, n+2] window.  Exit code 1 if any
graph lands outside it.

Example:
    python3 scripts/ng_scan.py --max-n 7
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from ridom.graphs import CANONICAL_MAX_VERTICES, enumerate_nonisomorphic
from ridom.nordhaus import (
    STATUS_AT_UPPER,
    STATUS_EXCEPTIONAL_C5,
    STATUS_VIOLATION,
    verify_stream,
)


@dataclass(frozen=True)
class ScanConfig:
    max_n: int
    connected: bool


def parse_args(argv: list[str]) -> ScanConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=7,
                        help=f"largest vertex count to scan (default 7, cap {CANONICAL_MAX_VERTICES})")
    parser.add_argument("--connected", action="store_true",
                        help="restrict the scan to connected graphs")
    args = parser.parse_args(argv)
    if not 1 <= args.max_n <= CANONICAL_MAX_VERTICES:
        parser.error(f"--max-n must be between 1 and {CANONICAL_MAX_VERTICES}")
    return ScanConfig(args.max_n, args.connected)


def main(argv: list[str]) -> int:
    cfg = parse_args(argv)
    print(f"{'n':>2}  {'graphs':>7}  {'at n+2':>7}  {'c5':>3}  {'violations':>10}  {'secs':>7}")
    bad = 0
    for n in range(2, cfg.max_n + 1):
        t0 = time.perf_counter()
        report = verify_stream(enumerate_nonisomorphic(n, connected=cfg.connected))
        elapsed = time.perf_counter() - t0
        violations = report.counts.get(STATUS_VIOLATION, 0)
        bad += violations
        print(f"{n:>2}  {report.total:>7}  "
              f"{report.counts.get(STATUS_AT_UPPER, 0):>7}  "
              f"{report.counts.get(STATUS_EXCEPTIONAL_C5, 0):>3}  "
              f"{violations:>10}  {elapsed:>7.2f}")
        for rec in report.violations:
            print(f"    counterexample: {rec.to_line()}", file=sys.stderr)
    print("window violated" if bad else "window holds throughout")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
