"""The benchmark's workloads: fixed sets of operations on the public API.

A workload is a list of operations.  Each operation starts on a freshly
loaded copy of the shipped zeta table (so ``table.caches`` is empty) and
serves a list of requests.  The seed only permutes the operations and the
requests inside each one; the set of requests, and therefore every exact
output, is the same for every seed.

Every request renders its result canonically (independent of the order in
which it was computed) and is checked against a SHA-256 reference digest.
Index and word sets are enumerated here rather than taken from the package,
so that a change to the package cannot shrink a workload.

This module imports ``emzv`` lazily, inside the functions that need it, so
that the orchestrator can import it without the package on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

NAMES = ("cusp", "crosscheck", "image")

CUSP_DEGREES = (7, 8, 9)  # weight + length; 9 is the ceiling of the w8 table
CROSSCHECK_RANGES = ((4, 5), (3, 5))  # (max length, max weight)
SHUFFLE_LETTERS = (0, 2, 4, 6, 8)
SHUFFLE_MAX_LEN = 4  # total length of the pair
SHUFFLE_MAX_SUM = 8  # total letter sum of the pair
Q_ORDER = 24
FOURIER_RANGE = (3, 5)  # (max length, max weight)
LIE_CASES = ((14, 2), (14, 3), (16, 3))  # (weight, depth)


@dataclass
class Request:
    rid: str  # reference key; equal requests in different operations share it
    run: Callable[[Any], Any]  # table -> exact result
    render: Callable[[Any], Any]  # exact result -> JSON-able canonical document


@dataclass
class Operation:
    name: str
    requests: list[Request] = field(default_factory=list)


def digest(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fresh_table():
    """Parse and validate the shipped table file anew (cold caches)."""
    from importlib.resources import files

    from emzv.coeffring import SHIPPED_TABLE_RESOURCE, load_mzv_table

    with files("emzv.data").joinpath(SHIPPED_TABLE_RESOURCE).open("r", encoding="utf-8") as f:
        return load_mzv_table(f)


# ---------------------------------------------------------------------------
# Canonical renderings


def _fmt(idx) -> str:
    return "[" + ",".join(str(k) for k in idx) + "]"


def render_epoly_terms(poly) -> list:
    from emzv.coeffring import render_coeff
    from emzv.decomp import format_index

    return [
        [format_index(w), render_coeff(c)]
        for w, c in sorted(poly.items(), key=lambda t: (len(t[0]), t[0]))
    ]


def render_qt(series) -> list:
    from emzv.coeffring import render_coeff

    return [[m, j, render_coeff(c)] for m, j, c in sorted(series.terms(), key=lambda t: t[:2])]


def render_index_map(polys: dict) -> dict:
    """Index -> EPoly map as the generating-series route returns it."""
    return {_fmt(idx): render_epoly_terms(p) for idx, p in polys.items()}


# ---------------------------------------------------------------------------
# Index and word enumerations


def _indices_of_length(length: int, max_wt: int) -> list[tuple[int, ...]]:
    return [i for i in itertools.product(range(max_wt + 1), repeat=length) if sum(i) <= max_wt]


def indices_upto(max_len: int, max_wt: int) -> list[tuple[int, ...]]:
    """All indices with length <= max_len and weight <= max_wt, the empty one included."""
    return [i for n in range(max_len + 1) for i in _indices_of_length(n, max_wt)]


def indices_by_degree(max_degree: int) -> list[tuple[int, ...]]:
    """All indices with weight + length <= max_degree, the empty one included."""
    return [i for n in range(max_degree + 1) for i in _indices_of_length(n, max_degree - n)]


def relation_families(max_degree: int) -> list[tuple[int, int, list[tuple[int, ...]]]]:
    """Exact (length, weight) families with at least two indices, canonical order."""
    fams: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for idx in indices_by_degree(max_degree):
        fams.setdefault((len(idx), sum(idx)), []).append(idx)
    return [(l, w, sorted(ix)) for (l, w), ix in sorted(fams.items()) if len(ix) >= 2]


def shuffle_pairs() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    words = [
        w
        for n in range(1, SHUFFLE_MAX_LEN)
        for w in itertools.product(SHUFFLE_LETTERS, repeat=n)
        if sum(w) <= SHUFFLE_MAX_SUM
    ]
    return [
        (u, v)
        for u in words
        for v in words
        if len(u) + len(v) <= SHUFFLE_MAX_LEN and sum(u) + sum(v) <= SHUFFLE_MAX_SUM
    ]


# ---------------------------------------------------------------------------
# Requests


def _decompose_request(idx) -> Request:
    from emzv.decomp import decompose

    return Request(
        f"decompose:{_fmt(idx)}",
        lambda table: decompose(idx, table),
        lambda dec: dec.to_doc(),
    )


def _relations_request(length: int, weight: int, family) -> Request:
    from emzv.decomp import find_emzv_relations, format_index

    def render(vectors):
        return {
            "indices": [format_index(i) for i in family],
            "kernel": [[str(q) for q in v] for v in vectors],
        }

    return Request(
        f"relations:l={length},w={weight}",
        lambda table: find_emzv_relations(family, table),
        render,
    )


def _gseries_request(max_len: int, max_wt: int) -> Request:
    from emzv.decomp import gseries_decompose

    return Request(
        f"gseries:{max_len},{max_wt}",
        lambda table: gseries_decompose(max_len, max_wt, table),
        render_index_map,
    )


class ShuffleIdentityViolated(Exception):
    pass


def _shuffle_request(u, v) -> Request:
    from emzv.eisalg import epoly_to_qexp, iei_qexp, shuffle_words
    from emzv.qseries import qt_mul

    def run(_table):
        lhs = qt_mul(iei_qexp(u, Q_ORDER), iei_qexp(v, Q_ORDER))
        rhs = epoly_to_qexp(shuffle_words(u, v), Q_ORDER)
        if lhs != rhs:
            raise ShuffleIdentityViolated(f"{u} x {v}")
        return lhs

    return Request(f"shuffle:{_fmt(u)}x{_fmt(v)}", run, render_qt)


def _fourier_request(idx) -> Request:
    from emzv.coeffring import render_coeff
    from emzv.decomp import decompose, emzv_qexp
    from emzv.derlie import to_E0_basis, uu_dual_membership

    def run(table):
        qexp = emzv_qexp(idx, Q_ORDER, table)
        poly = decompose(idx, table).epoly
        combination, residual = to_E0_basis(poly)
        return qexp, combination, residual, uu_dual_membership(poly)

    def render(out):
        qexp, combination, residual, membership = out
        return {
            "qexp": render_qt(qexp),
            "e0": [[_fmt(w), render_coeff(c)] for w, c in sorted(combination.items())],
            "residual": render_epoly_terms(residual),
            "dual": sorted([list(k), v] for k, v in membership.items()),
        }

    return Request(f"fourier:{_fmt(idx)}", run, render)


def _lie_request(weight: int, depth: int) -> Request:
    from emzv.derlie import find_lie_relations

    return Request(
        f"lie:{weight},{depth}",
        lambda _table: find_lie_relations(weight, depth),
        lambda rel: rel.to_doc(),
    )


# ---------------------------------------------------------------------------
# Workloads


def build_operations(workload: str) -> list[Operation]:
    """The workload's fixed operations in canonical order."""
    if workload == "cusp":
        ops = []
        for d in CUSP_DEGREES:
            reqs = [_decompose_request(i) for i in indices_by_degree(d)]
            reqs += [_relations_request(l, w, fam) for l, w, fam in relation_families(d)]
            ops.append(Operation(f"ladder-D{d}", reqs))
        return ops
    if workload == "crosscheck":
        return [
            Operation(f"gseries-{l}-{w}", [_gseries_request(l, w)])
            for l, w in CROSSCHECK_RANGES
        ]
    if workload == "image":
        return [
            Operation("shuffle", [_shuffle_request(u, v) for u, v in shuffle_pairs()]),
            Operation("fourier", [_fourier_request(i) for i in indices_upto(*FOURIER_RANGE)]),
            Operation("lie", [_lie_request(w, d) for w, d in LIE_CASES]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def seeded_operations(workload: str, seed: int, pass_index: int) -> list[Operation]:
    """The operations and their requests in the order drawn for one pass.

    A pass index of -1 keeps the canonical order (used when recording).
    """
    ops = build_operations(workload)
    if pass_index < 0:
        return ops
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    rng.shuffle(ops)
    for op in ops:
        rng.shuffle(op.requests)
    return ops


def crosscheck_recursion_digest(max_len: int, max_wt: int) -> str:
    """Digest of the length recursion's answers over a gseries range.

    Rendered exactly as the generating-series route's output, so that the
    two digests agree iff the two routes agree on every index.
    """
    from emzv.decomp import decompose

    table = fresh_table()
    polys = {idx: decompose(idx, table).epoly for idx in indices_upto(max_len, max_wt)}
    return digest(render_index_map(polys))
