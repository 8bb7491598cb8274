"""Tabulate stratum counts for a range of genera.

For each genus the table lists the admissible set size, the number of
basic strata at Iwahori and at hyperspecial level, the predicted
hyperspecial count, and the number of straight classes.
"""

import argparse

from ekor_atlas.ekor import stratum_report
from ekor_atlas.oracles import straight_classes
from ekor_atlas.siegel import siegel_context


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-g", type=int, default=4)
    args = parser.parse_args()

    header = f"{'g':>2} {'|Adm|':>6} {'iwahori':>8} {'eo':>4} {'2^(g/2)':>8} {'classes':>8}"
    print(header)
    print("-" * len(header))
    for g in range(1, args.max_g + 1):
        ctx = siegel_context(g)
        adm = ctx.adm()
        iwahori = sum(r.basic for r in stratum_report(adm, frozenset()))
        eo = sum(r.basic for r in stratum_report(adm, ctx.hyperspecial))
        classes = len(straight_classes(adm))
        print(f"{g:>2} {len(adm):>6} {iwahori:>8} {eo:>4} "
              f"{2 ** (g // 2):>8} {classes:>8}")


if __name__ == "__main__":
    main()
