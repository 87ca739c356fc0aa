#!/usr/bin/env python3
"""Generate the shipped zeta reduction table.

Multiple zeta values are indexed in ascending form,

    zeta(k_1, ..., k_r) = sum_{0 < n_1 < ... < n_r} n_1^{-k_1} ... n_r^{-k_r},

convergent iff k_r >= 2, and correspond to binary words

    A B^{k_1 - 1} A B^{k_2 - 1} ... A B^{k_r - 1}

(first letter integrated first, A = dt/(1-t), B = dt/t).  Weight by weight
this script assembles exact linear relations among the admissible words:

* duality (reverse the word and swap A <-> B),
* the two product expansions, shuffle on words and quasi-shuffle on
  compositions, both evaluated against already-reduced lower-weight values,
* the depth-one regularized double-shuffle relation (insertion of a single
  1, divergent terms cancelling pairwise).

Solving the system expresses every value in the polynomial basis
pi (= 2*pi*i, with zeta(2) = -pi^2/24 seeded), z3, z5, z7 and the weight-8
double generator z35 = zeta(3, 5).  The expected free generator at each
weight is asserted, even zetas are cross-checked against their Bernoulli
closed form, and the result is written in table format 2 (the symbols and
the value of every admissible word) as src/emzv/data/mzv_table_w8.txt.
The output is deterministic: the shipped file is its byte-for-byte copy.

Usage: python3 scripts/generate_mzv_table.py [--max-weight 8] [--out PATH]
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from emzv.coeffring import (
    CoeffElem,
    MzvTable,
    admissible_words,
    coeff_mul,
    dump_mzv_table,
    loads_mzv_table,
    reduce_even_zeta,
    render_coeff,
)
from emzv.linalg import RatMatrix, rref
from emzv.ncalg import bin_shuffle

# Designated free generator per weight: (word, symbol name).
GENERATORS = {
    3: ("ABB", "z3"),  # zeta(3)
    5: ("ABBBB", "z5"),  # zeta(5)
    7: ("ABBBBBB", "z7"),  # zeta(7)
    8: ("ABBABBBB", "z35"),  # zeta(3, 5)
}

# Expected count of new generators per weight (sanity against the known
# dimensions 1, 0, 1, 1, 1, 2, 2, 3, 4 of the zeta algebra in weight 0..8).
EXPECTED_NEW = {2: 0, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 1}


def word_to_comp(w: str) -> tuple[int, ...]:
    comp = []
    for ch in w:
        if ch == "A":
            comp.append(1)
        else:
            comp[-1] += 1
    return tuple(comp)


def comp_to_word(comp: tuple[int, ...]) -> str:
    return "".join("A" + "B" * (k - 1) for k in comp)


def dual_word(w: str) -> str:
    return "".join("A" if ch == "B" else "B" for ch in reversed(w))


def stuffle(u: tuple[int, ...], v: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: dict[tuple[int, ...], int] = {}

    def add(c: tuple[int, ...], m: int) -> None:
        out[c] = out.get(c, 0) + m

    for w, m in stuffle(u[1:], v).items():
        add((u[0],) + w, m)
    for w, m in stuffle(u, v[1:]).items():
        add((v[0],) + w, m)
    for w, m in stuffle(u[1:], v[1:]).items():
        add((u[0] + v[0],) + w, m)
    return out


def hoffman_row(v_word: str) -> dict[str, int]:
    """Insertion relation from the admissible word v: lhs - rhs as a row.

    Shuffle side: insert A at every position except the end.  Stuffle side:
    insert 1 at every slot except the last, plus all +1 merges.  The two
    divergent end terms cancel each other, so only admissible words remain.
    """
    row: dict[str, int] = {}

    def add(w: str, m: int) -> None:
        row[w] = row.get(w, 0) + m
        if not row[w]:
            del row[w]

    for pos in range(len(v_word)):
        add(v_word[:pos] + "A" + v_word[pos:], 1)
    comp = word_to_comp(v_word)
    r = len(comp)
    for i in range(r):
        add(comp_to_word(comp[:i] + (1,) + comp[i:]), -1)
    for i in range(r):
        merged = comp[:i] + (comp[i] + 1,) + comp[i + 1 :]
        add(comp_to_word(merged), -1)
    return row


def solve_weight(
    k: int,
    red: dict[str, CoeffElem],
    symbols: dict[str, int],
    work_table: MzvTable,
) -> None:
    words = admissible_words(k)
    gen = GENERATORS.get(k)
    if gen is not None:
        # Free columns are chosen late; park the designated word at the end.
        words = [w for w in words if w != gen[0]] + [gen[0]]
    col = {w: i for i, w in enumerate(words)}
    nw = len(words)

    rows: list[tuple[dict[str, int], CoeffElem]] = []

    for w in words:
        dw = dual_word(w)
        if dw != w and col[w] < col[dw]:
            rows.append(({w: 1, dw: -1}, CoeffElem.zero()))

    for v in admissible_words(k - 1):
        rows.append((hoffman_row(v), CoeffElem.zero()))

    for wu in range(2, k - 1):
        wv = k - wu
        if wv < wu:
            break
        for u in admissible_words(wu):
            for v in admissible_words(wv):
                if wu == wv and u > v:
                    continue
                rhs = coeff_mul(red[u], red[v], work_table)
                sh: dict[str, int] = {}
                for w, m in bin_shuffle(u, v).items():
                    sh[w] = sh.get(w, 0) + m
                rows.append((sh, rhs))
                stu: dict[str, int] = {}
                for c, m in stuffle(word_to_comp(u), word_to_comp(v)).items():
                    w = comp_to_word(c)
                    stu[w] = stu.get(w, 0) + m
                rows.append((stu, rhs))

    monomials = sorted({m for _, rhs in rows for m, _ in rhs.items()})
    mcol = {m: nw + i for i, m in enumerate(monomials)}
    ncols = nw + len(monomials)

    mat = []
    for lhs, rhs in rows:
        row = [Fraction(0)] * ncols
        for w, m in lhs.items():
            row[col[w]] += m
        for mono, q in rhs.items():
            row[mcol[mono]] -= q
        mat.append(row)

    red_mat, pivots, rank = rref(RatMatrix.from_rows(mat))
    bad = [p for p in pivots if p >= nw]
    if bad:
        raise SystemExit(f"weight {k}: inconsistent relation system")

    free = [i for i in range(nw) if i not in pivots]
    expected = EXPECTED_NEW[k]
    if len(free) != expected:
        raise SystemExit(
            f"weight {k}: got {len(free)} free generators, expected {expected}; "
            "the relation families do not close this weight"
        )
    if expected:
        assert gen is not None
        if free != [col[gen[0]]]:
            raise SystemExit(f"weight {k}: free column is not the designated word")
        symbols[gen[1]] = k
        red[gen[0]] = CoeffElem.symbol(gen[1])

    for i, p in enumerate(pivots):
        value = CoeffElem.zero()
        for f in free:
            q = red_mat.at(i, f)
            if q:
                value = value + red[words[f]].scale(-q)
        for mono in monomials:
            q = red_mat.at(i, mcol[mono])
            if q:
                value = value + CoeffElem({mono: -q})
        red[words[p]] = value

    missing = [w for w in words if w not in red]
    if missing:
        raise SystemExit(f"weight {k}: unreduced words {missing}")


def generate(max_weight: int) -> MzvTable:
    symbols: dict[str, int] = {}
    red: dict[str, CoeffElem] = {"AB": reduce_even_zeta(2)}
    # Working table with a roomy cap so intermediate products never trip it.
    work_table = MzvTable(max_weight=2 * max_weight, symbols=symbols, convergent_words={})
    for k in range(3, max_weight + 1):
        solve_weight(k, red, symbols, work_table)
        print(f"weight {k}: {len(admissible_words(k))} words reduced")

    for s in range(4, max_weight + 1, 2):
        got = red[comp_to_word((s,))]
        want = reduce_even_zeta(s)
        if got != want:
            raise SystemExit(
                f"zeta({s}) reduced to {render_coeff(got)}, "
                f"Bernoulli value is {render_coeff(want)}"
            )
        print(f"zeta({s}) matches its Bernoulli closed form")

    # Post-check with an identity never imposed above: within each weight,
    # the values of fixed depth sum to the single zeta value.
    for w in range(3, max_weight + 1):
        by_depth: dict[int, CoeffElem] = {}
        for word in admissible_words(w):
            d = len(word_to_comp(word))
            by_depth[d] = by_depth.get(d, CoeffElem.zero()) + red[word]
        for d, total in by_depth.items():
            if total != red[comp_to_word((w,))]:
                raise SystemExit(f"sum formula fails at weight {w} depth {d}")
    print("sum formula holds at every weight and depth")

    return MzvTable(max_weight=max_weight, symbols=dict(symbols), convergent_words=dict(red))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-weight", type=int, default=8)
    ap.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "src"
        / "emzv"
        / "data"
        / "mzv_table_w8.txt",
    )
    args = ap.parse_args()
    if args.max_weight > 8:
        raise SystemExit("generators above weight 8 are not configured")

    table = generate(args.max_weight)
    text = dump_mzv_table(table)
    loads_mzv_table(text)  # loader round trip incl. validation
    args.out.write_text(text, encoding="utf-8")
    print(f"wrote {args.out} ({len(table.convergent_words)} words)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
