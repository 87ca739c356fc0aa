#!/usr/bin/env python3
"""Survey linear relations among indices of fixed length and weight.

For each (length, weight) in range, decompose every index, compute the
kernel of the decompositions in word/monomial coordinates, and report the
dimension of the span.  Exact arithmetic throughout; the span dimension for
even-weight length-two families collapses to 1 (everything is a rational
multiple of pi^2), illustrating the length-parity collapse.

Every decomposition is checked against reflection,
psi(k_1, ..., k_n) = (-1)^(k_1 + ... + k_n) psi(k_n, ..., k_1), and the
survey exits 1 naming the first index that breaks it.  Reflection gives one
relation per pair I != reversed I and one per palindrome of odd weight (its
psi vanishes); the column ``extra`` counts the relations of the kernel
beyond those.  An index the engine refuses (a table too small for its
length, say) ends the survey with one line on stderr and exit 1.

Usage: python3 scripts/relation_survey.py [--max-length 3] [--max-weight 4]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from emzv.coeffring import shipped_table
from emzv.decomp import decompose, find_emzv_relations, format_index
from emzv.errors import EmzvError
from emzv.words import graded_words


def reflection_failure(indices, table):
    """The first index whose decomposition is not (-1)^weight times its
    reversal's, or None."""
    for idx in indices:
        psi, mirror = decompose(idx, table).epoly, decompose(idx[::-1], table).epoly
        if psi != (-mirror if sum(idx) % 2 else mirror):
            return idx
    return None


def reflection_relations(indices) -> int:
    """One per pair I != reversed I, one per odd-weight palindrome."""
    pairs = sum(1 for i in indices if i < i[::-1])
    return pairs + sum(1 for i in indices if i == i[::-1] and sum(i) % 2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-length", type=int, default=3)
    ap.add_argument("--max-weight", type=int, default=4)
    ap.add_argument("--show-relations", action="store_true")
    args = ap.parse_args(argv)
    try:
        return survey(args)
    except EmzvError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def survey(args) -> int:
    table = shipped_table()
    print(f"{'len':>3} {'wt':>3} {'#idx':>5} {'#rel':>5} {'dim':>4} {'extra':>5}")
    for length in range(1, args.max_length + 1):
        for weight in range(0, args.max_weight + 1):
            idxs = graded_words(length, weight)
            if not idxs:
                continue
            vectors = find_emzv_relations(idxs, table)
            bad = reflection_failure(idxs, table)
            if bad is not None:
                print(
                    f"reflection fails at index {format_index(bad)}: psi is not "
                    f"(-1)^{sum(bad)} times psi({format_index(bad[::-1])})",
                    file=sys.stderr,
                )
                return 1
            dim = len(idxs) - len(vectors)
            extra = len(vectors) - reflection_relations(idxs)
            print(
                f"{length:>3} {weight:>3} {len(idxs):>5} {len(vectors):>5} {dim:>4} {extra:>5}"
            )
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
