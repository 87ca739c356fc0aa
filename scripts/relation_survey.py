#!/usr/bin/env python3
"""Survey linear relations among indices of fixed length and weight.

For each (length, weight) in range, decompose every index, compute the
kernel of the decompositions in word/monomial coordinates, and report the
dimension of the span.  Exact arithmetic throughout; the span dimension for
even-weight length-two families collapses to 1 (everything is a rational
multiple of pi^2), illustrating the length-parity collapse.

Usage: python3 scripts/relation_survey.py [--max-length 3] [--max-weight 4]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from emzv.coeffring import shipped_table
from emzv.decomp import find_emzv_relations, format_index
from emzv.words import graded_words


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-length", type=int, default=3)
    ap.add_argument("--max-weight", type=int, default=4)
    ap.add_argument("--show-relations", action="store_true")
    args = ap.parse_args()

    table = shipped_table()
    print(f"{'len':>3} {'wt':>3} {'#idx':>5} {'#rel':>5} {'dim':>4}")
    for length in range(1, args.max_length + 1):
        for weight in range(0, args.max_weight + 1):
            idxs = graded_words(length, weight)
            if not idxs:
                continue
            vectors = find_emzv_relations(idxs, table)
            dim = len(idxs) - len(vectors)
            print(f"{length:>3} {weight:>3} {len(idxs):>5} {len(vectors):>5} {dim:>4}")
            if args.show_relations:
                for v in vectors:
                    terms = [
                        f"{q}*[{format_index(i) or 'empty'}]"
                        for q, i in zip(v, idxs)
                        if q
                    ]
                    print("      " + " + ".join(terms) + " = 0")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
