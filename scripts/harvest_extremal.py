#!/usr/bin/env python3
"""List the graphs whose complement sum attains the n + 2 ceiling.

These are the objects behind the open characterization question: for each
order up to the cap, print every graph (up to isomorphism) with
value(G) + value(complement) = n + 2, together with structural hints —
connectivity, degree sequence, and the family tag of its large component if
one exists.  Output is TSV, one graph per line.

Example:
    python3 scripts/harvest_extremal.py --max-n 7 > extremal.tsv
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from ridom.families import classify_graph
from ridom.graphs import CANONICAL_MAX_VERTICES, enumerate_nonisomorphic, is_connected
from ridom.nordhaus import STATUS_AT_UPPER, ng_record, GammaCache


@dataclass(frozen=True)
class HarvestConfig:
    min_n: int
    max_n: int
    connected: bool


def parse_args(argv: list[str]) -> HarvestConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=7,
                        help=f"largest vertex count (default 7, cap {CANONICAL_MAX_VERTICES})")
    parser.add_argument("--connected", action="store_true",
                        help="harvest connected graphs only")
    args = parser.parse_args(argv)
    if not 1 <= args.min_n <= args.max_n <= CANONICAL_MAX_VERTICES:
        parser.error(f"need 1 <= min-n <= max-n <= {CANONICAL_MAX_VERTICES}")
    return HarvestConfig(args.min_n, args.max_n, args.connected)


def family_token(g) -> str:
    if g.n < 3:
        return "-"
    cls = classify_graph(g)
    return cls.special[1].family.value if cls.special else "none"


def main(argv: list[str]) -> int:
    cfg = parse_args(argv)
    cache: GammaCache = {}
    print("graph6\tn\tgamma\tgamma_comp\tconnected\tfamily\tdegrees")
    total = 0
    for n in range(cfg.min_n, cfg.max_n + 1):
        # the stream is already one representative per isomorphism class
        for g in enumerate_nonisomorphic(n, connected=cfg.connected):
            rec = ng_record(g, cache)
            if rec.status != STATUS_AT_UPPER:
                continue
            degrees = ",".join(str(d) for d in sorted(g.degrees()))
            print("\t".join((
                rec.graph6, str(n), str(rec.gamma), str(rec.gamma_comp),
                "yes" if is_connected(g) else "no",
                family_token(g), degrees,
            )))
            total += 1
    print(f"# {total} ceiling graphs with {cfg.min_n} <= n <= {cfg.max_n}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
