#!/usr/bin/env python3
"""Label size versus vertex count for two constant-cost families.

Builds label files for equivalence graphs and unit disk realizations at
N = 64..512 and reports max/mean label bits and the ratio to ceil(log2 N).
Flat ratios are the point: label size tracks log N once the protocol cost
is pinned. The full run takes about 5 s on a 2-core x86 machine with
Python 3.11; most of it is the N=512 unit disk build (about 1.8 s) and
the N=512 equivalence build (about 0.8 s).
"""

import argparse
import csv
import sys
import time

from eqlabel import generators as gen
from eqlabel.labeling import build_labels, measure
from eqlabel.protocol import BipartiteProtocol, UnitDiskProtocol

UDG_BOX = {64: 8, 128: 12, 256: 16, 512: 23}


def rows(max_n: int):
    for n in (64, 128, 256, 512):
        if n > max_n:
            break
        g = gen.random_equivalence(n // 2, n - n // 2, max(2, n // 16), seed=n)
        t0 = time.perf_counter()
        fam = build_labels(BipartiteProtocol(g).run, g.n, ceiling=12)
        mx, mean, per = measure(fam)
        yield ("equivalence", n, fam.cost, mx, round(mean, 1), round(per, 1),
               round(time.perf_counter() - t0, 2))
    for n in (64, 128, 256, 512):
        if n > max_n:
            break
        r = gen.random_udg(n, box=UDG_BOX[n], radius=2, seed=600 + n)
        t0 = time.perf_counter()
        fam = build_labels(UnitDiskProtocol(r).run, r.n, ceiling=64)
        mx, mean, per = measure(fam)
        yield ("udg", n, fam.cost, mx, round(mean, 1), round(per, 1),
               round(time.perf_counter() - t0, 2))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--csv", metavar="PATH", help="also write the table as CSV")
    ap.add_argument("--max-n", type=int, default=512,
                    help="largest family size to build (default 512)")
    args = ap.parse_args(argv)

    header = ("family", "n", "cost", "max_bits", "mean_bits",
              "bits_per_log_n", "build_s")
    table = list(rows(args.max_n))
    widths = [max(len(str(r[i])) for r in [header, *table]) for i in range(7)]
    for r in [header, *table]:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)).rstrip())

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(table)
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
