"""Command-line interface.

Subcommands expose decomposition, q-expansions, constant terms, relation
discovery on both sides (among indices and among the derivations), the
image-constraint checks, the limit-series dump and the built-in
verification suite.  Exit codes: 0 on success (and when every requested
check passes), 1 on computational errors or failed checks (the error name
goes to stderr), 2 on usage errors.

Each subcommand accepts only the shared flags its handler reads
(``_SUBCOMMANDS``): ``--mzv-table`` wherever a table is read, ``--order``
where a q-expansion is truncated, ``--degree`` where the limit series is,
and ``--format`` wherever there is structured output; any other flag is a
usage error.  The zeta table ships with the package; ``--mzv-table`` or the
environment variable ``EMZV_MZV_TABLE`` select another file.  Indices are
written as comma-separated entries without spaces (``0,1,0,0``; the empty
string is the empty index).  An index of length n >= 2 and degree d =
weight + length needs a table of weight at least min(d - 1, n), so the
table's cap bounds the length of the indices the CLI accepts; the degree
sets the cost.  Its constant reads the limit series' words of degree <= d
(past the table's whole series, those with at most n letters b): an index
above ``SERIES_WORD_BUDGET`` words is refused unless ``--no-cost-guard``
is given.  A length-1 index reads no
table, but its constant needs the Bernoulli number of its entry, whose
recurrence costs about the cube of the entry: an even entry above
``LENGTH1_BUDGET`` is refused unless ``--no-cost-guard`` is given.
``relations`` applies these rules with no override, and names ``gamma``
(length 1) or the library call.  The Bernoulli budget bounds the letters of
a ``fourier-check --epoly`` word too, since the q-expansion of E_k reads
B_k.  ``membership`` computes the Lie relation kernels of each component's
length and letter sum, whose rows grow as a binomial in both: a component
above ``KERNEL_ROW_BUDGET`` rows is refused unless ``--no-cost-guard`` is
given, and ``derlie-relations`` above it names the library call.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable

from .coeffring import (
    CoeffElem,
    MzvTable,
    load_mzv_table,
    parse_coeff,
    render_coeff,
    shipped_table,
)
from .decomp import (
    decompose,
    emzv_qexp,
    find_emzv_relations,
    format_index,
    parse_index,
)
from .derlie import (
    find_lie_relations,
    fourier_membership,
    to_E0_basis,
    uu_dual_membership,
)
from .eisalg import EPoly
from .errors import ConsistencyError, EmzvError, ParseError, TableOverflow
from .ncalg import build_Ainf, constant_cut, index_degree, required_table_weight
from .words import graded_words

ENV_TABLE = "EMZV_MZV_TABLE"

# The largest even entry of a length-1 index computed without
# --no-cost-guard: B_400 takes about 0.7 s, B_800 about 6 s.
LENGTH1_BUDGET = 400

# The most words of the limit series a constant is read from without
# --no-cost-guard, at about 20-70 us a word: gamma of (0, 40) reads 13,287
# words in 0.3 s, (0, 0, 0, 0, 0, 0, 0, 6) 27,823 in 1.9 s, (0, 80) 95,367
# in 3.6 s and (0, 0, 40) 149,985 in 10.7 s.
SERIES_WORD_BUDGET = 30000

# The most rows of a Lie relation kernel that membership computes without
# --no-cost-guard, and derlie-relations at all: a component at C(83, 2) =
# 3,403 rows takes about 1.2 s, at C(99, 2) = 4,851 rows about 2 s, and at
# C(403, 2) = 81,003 rows more than 100 s.
KERNEL_ROW_BUDGET = 3500

_FLAGS: dict[str, dict] = {
    "--mzv-table": dict(default=None, metavar="PATH"),
    "--order": dict(type=int, default=20, metavar="N"),
    "--degree": dict(type=int, default=8, metavar="D"),
    "--format": dict(choices=("text", "json"), default="text"),
}

# subcommand -> (help, the shared flags its handler reads, handler), filled by
# @_subcommand in the order of the handlers below; no other flag is accepted
_SUBCOMMANDS: dict[str, tuple[str, tuple[str, ...], Callable[[argparse.Namespace], int]]] = {}


def _subcommand(name: str, about: str, *flags: str):
    def register(handler: Callable[[argparse.Namespace], int]):
        _SUBCOMMANDS[name] = (about, flags, handler)
        return handler

    return register


class _Parser(argparse.ArgumentParser):
    """A usage error is one line, ``<prog>: error: <message>``, and exit 2.

    The subcommands' parsers are of this class too and refuse the arguments
    they do not know themselves, so the line names the subcommand whose
    argument is wrong.
    """

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        ns, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return ns, extra


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="emzv", description="exact decomposition into Eisenstein-integral words"
    )
    sub = ap.add_subparsers(dest="command", required=True)
    p = {}
    for name, (about, flags, _) in _SUBCOMMANDS.items():
        p[name] = sub.add_parser(name, help=about)
        for flag in flags:
            p[name].add_argument(flag, **_FLAGS[flag])

    for name in ("decompose", "qexp", "gamma"):
        p[name].add_argument("--index", required=True)
    for name in ("fourier-check", "membership"):
        p[name].add_argument("--index")
        p[name].add_argument("--epoly", metavar="JSON")
    for name in ("decompose", "qexp", "gamma", "fourier-check", "membership"):
        p[name].add_argument(
            "--no-cost-guard",
            action="store_true",
            help=f"compute limit series beyond {SERIES_WORD_BUDGET} words (an index's "
            f"constant), Bernoulli numbers beyond B_{LENGTH1_BUDGET} (a length-1 "
            "index's constant, or a fourier-check --epoly letter) and membership's "
            f"Lie kernels beyond {KERNEL_ROW_BUDGET} rows",
        )
    p["relations"].add_argument("--length", type=int, required=True, metavar="L")
    p["relations"].add_argument("--weight", type=int, required=True, metavar="W")
    p["derlie-relations"].add_argument("--weight", type=int, required=True, metavar="W")
    p["derlie-relations"].add_argument("--depth", type=int, required=True, metavar="P")
    p["verify"].add_argument("--only", default=None, metavar="SUBSTR")
    return ap


def _positive(ns: argparse.Namespace, what: str) -> int:
    """The value of --order or --degree, which must be >= 1."""
    value = getattr(ns, what)
    if value < 1:
        raise ValueError(f"bad --{what} {value}: the {what} must be ≥ 1")
    return value


def _load_table(ns: argparse.Namespace) -> MzvTable:
    """The table named by --mzv-table or EMZV_MZV_TABLE, else the shipped one."""
    path, source = ns.mzv_table, "--mzv-table"
    if path is None:
        env = os.environ.get(ENV_TABLE)
        if env:
            path, source = env, ENV_TABLE
    if path is None:
        return shipped_table()
    try:
        with open(path, "rb") as fh:
            return load_mzv_table(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {source} {path!r}: {exc.strerror}") from None
    except (ParseError, ConsistencyError, UnicodeDecodeError) as exc:
        raise ValueError(f"bad {source} {path!r}: {exc}") from None


def _emit(ns: argparse.Namespace, doc: dict, text: str) -> None:
    if ns.format == "json":
        import json  # only structured output and --epoly read it

        text = json.dumps(doc, indent=2)
    print(text)


def _require_table_weight(what: str, need: int, table: MzvTable) -> None:
    if need > table.max_weight:
        raise TableOverflow(
            f"{what} needs a table of weight ≥ {need} "
            f"(cap {table.max_weight}); pass `--mzv-table`"
        )


def _require_limit_series(degree: int, table: MzvTable) -> None:
    what = f"the limit series at degree {degree}"
    _require_table_weight(what, required_table_weight(degree), table)


def _series_words(degree: int, length: int, table: MzvTable) -> int:
    """Words of the limit series the constant of an index is read from: of
    degree <= d with at most b = ``ncalg.constant_cut`` letters b, sum over
    w <= b of C(d + 1, w + 1)."""
    cut = constant_cut(degree, length, table)
    return sum(math.comb(degree + 1, w + 1) for w in range(cut + 1))


def _guard_cost(
    what: str, idx: tuple[int, ...], table: MzvTable, override: bool, hint: str
) -> None:
    """Length >= 2: the table cap and, unless ``override``, the series' word
    budget.  Length 1: the Bernoulli budget unless ``override``; lengths 0 and
    1 read no table.  ``hint`` says how to compute past a budget."""
    if len(idx) >= 2:
        degree = index_degree(idx)
        _require_table_weight(what, required_table_weight(degree, len(idx)), table)
        words = _series_words(degree, len(idx), table)
        if words > SERIES_WORD_BUDGET and not override:
            raise ValueError(
                f"{what} at degree {degree} needs a limit series of {words} words, "
                f"beyond the budget of {SERIES_WORD_BUDGET} words; {hint}"
            )
    elif idx:  # pi * B_k / k!
        _guard_bernoulli(what, idx[0], "a length-1 index", override, hint)


def _guard_bernoulli(what: str, k: int, of: str, override: bool, hint: str) -> None:
    """The Bernoulli budget: an even k above LENGTH1_BUDGET is refused
    unless ``override``; an odd k reads no Bernoulli number."""
    if k % 2 == 0 and k > LENGTH1_BUDGET and not override:
        raise ValueError(
            f"{what} needs B_{k}, beyond the budget of even entries "
            f"≤ {LENGTH1_BUDGET} for {of}; {hint}"
        )


def _kernel_rows(length: int, letter_sum: int) -> int:
    """Rows of the largest Lie kernel the dual-membership check of a
    component may compute.  The kernel of depth r and letter sum s has one
    row per word of its candidates' values on x, C(s + 1, r) of them, and
    the check recurses to every depth 2 <= r <= length at letter sums
    <= s (length < 2 computes none)."""
    return max((math.comb(letter_sum + 1, r) for r in range(2, length + 1)), default=0)


def _guarded_index(ns: argparse.Namespace, table: MzvTable) -> tuple[int, ...]:
    try:
        idx = parse_index(ns.index)
    except ParseError:
        raise ValueError(
            f"bad --index {ns.index!r}: pass nonnegative integers separated "
            "by commas, e.g. --index 0,1,0,0"
        ) from None
    hint = "pass `--no-cost-guard` to compute it"
    _guard_cost(f"index {format_index(idx)}", idx, table, ns.no_cost_guard, hint)
    return idx


def _epoly_argument(ns: argparse.Namespace, table: MzvTable) -> EPoly:
    if (ns.index is None) == (ns.epoly is None):
        raise ValueError(f"{ns.command} needs exactly one of --index or --epoly")
    if ns.index is not None:
        idx = _guarded_index(ns, table)
        return decompose(idx, table).epoly.without_constant()
    import json

    coeffs: dict[tuple[int, ...], CoeffElem] = {}
    try:
        pairs = json.loads(ns.epoly)
        if not isinstance(pairs, list):
            raise TypeError("not a JSON list")
        for w, c in pairs:
            if not (isinstance(w, str) and isinstance(c, str)):
                raise TypeError(f"{json.dumps([w, c])} is not a pair of strings")
            # a linear combination: a word given twice gets the sum
            word = parse_index(w)
            coeffs[word] = coeffs.get(word, CoeffElem.zero()) + parse_coeff(c, table.symbols)
    except (ValueError, TypeError, ParseError) as exc:
        raise ValueError(
            f"bad --epoly ({exc}): pass a JSON list of [index, coefficient] "
            """pairs, e.g. --epoly '[["2,4", "1 * 1"]]'"""
        ) from None
    return EPoly(coeffs)


@_subcommand("decompose", "decomposition of an index", "--mzv-table", "--format")
def _cmd_decompose(ns: argparse.Namespace) -> int:
    table = _load_table(ns)
    dec = decompose(_guarded_index(ns, table), table)
    text = f"gamma = {render_coeff(dec.gamma)}\npsi = {dec.epoly}"
    _emit(ns, dec.to_doc(), text)
    return 0


@_subcommand("qexp", "Fourier expansion of an index", "--mzv-table", "--order", "--format")
def _cmd_qexp(ns: argparse.Namespace) -> int:
    order = _positive(ns, "order")
    table = _load_table(ns)
    series = emzv_qexp(_guarded_index(ns, table), order, table)
    doc = {
        "schema": "emzv.qtseries/1",
        "order": series.order,
        "terms": [[m, j, render_coeff(c)] for m, j, c in series.terms()],
    }
    _emit(ns, doc, str(series))
    return 0


@_subcommand("gamma", "constant term of an index", "--mzv-table", "--format")
def _cmd_gamma(ns: argparse.Namespace) -> int:
    table = _load_table(ns)
    idx = _guarded_index(ns, table)
    dec = decompose(idx, table)
    doc = {
        "schema": "emzv.gamma/1",
        "index": list(idx),
        "gamma": render_coeff(dec.gamma),
    }
    _emit(ns, doc, render_coeff(dec.gamma))
    return 0


@_subcommand("relations", "linear relations among indices", "--mzv-table", "--format")
def _cmd_relations(ns: argparse.Namespace) -> int:
    if ns.length < 0:
        raise ValueError(f"bad --length {ns.length}: the length must be ≥ 0")
    if ns.weight < 0:
        raise ValueError(f"bad --weight {ns.weight}: the weight must be ≥ 0")
    table = _load_table(ns)
    # every index of this length and weight costs what its first one does
    first = (ns.weight,) + (0,) * (ns.length - 1) if ns.length else ()
    what = f"each index of length {ns.length} and weight {ns.weight}"
    if ns.length == 1:
        hint = f"`gamma --index {ns.weight} --no-cost-guard` computes its constant"
    else:
        hint = "`emzv.find_emzv_relations(indices, table)` computes them"
    _guard_cost(what, first, table, False, hint)
    indices = graded_words(ns.length, ns.weight)
    vectors = find_emzv_relations(indices, table)
    doc = {
        "schema": "emzv.relations/1",
        "indices": [format_index(i) for i in indices],
        "kernel": [[str(q) for q in v] for v in vectors],
    }
    lines = ["indices: " + " ".join(format_index(i) or "()" for i in indices)]
    lines += ["relation: " + " ".join(str(q) for q in v) for v in vectors]
    if not vectors:
        lines.append("no relations")
    _emit(ns, doc, "\n".join(lines))
    return 0


@_subcommand("derlie-relations", "relations among the derivations", "--format")
def _cmd_derlie_relations(ns: argparse.Namespace) -> int:
    if ns.weight < 0 or ns.weight % 2:
        raise ValueError(f"bad --weight {ns.weight}: the weight must be even and ≥ 0")
    if ns.depth < 1:
        raise ValueError(f"bad --depth {ns.depth}: the depth must be ≥ 1")
    rows = math.comb(ns.weight + 1, ns.depth)
    if rows > KERNEL_ROW_BUDGET:
        raise ValueError(
            f"weight {ns.weight} and depth {ns.depth} need a Lie kernel of {rows} rows, "
            f"beyond the budget of {KERNEL_ROW_BUDGET} rows; "
            f"`emzv.find_lie_relations({ns.weight}, {ns.depth})` computes it"
        )
    rel = find_lie_relations(ns.weight, ns.depth)
    lines = [f"candidates: {' '.join(rel.candidates)}"]
    lines += ["relation: " + " ".join(str(q) for q in v) for v in rel.vectors]
    if not rel.vectors:
        lines.append("no relations")
    _emit(ns, rel.to_doc(), "\n".join(lines))
    return 0


@_subcommand(
    "fourier-check",
    "Fourier-subspace check of an index or e-word sum",
    "--mzv-table",
    "--order",
    "--format",
)
def _cmd_fourier_check(ns: argparse.Namespace) -> int:
    order = _positive(ns, "order")
    table = _load_table(ns)
    poly = _epoly_argument(ns, table)
    if ns.epoly is not None:
        # the q-expansion of E_k and its E_0 correction read B_k (the words
        # keep only even letters)
        hint = "pass `--no-cost-guard` to compute it"
        for word in sorted(poly.coeffs):
            what = f"--epoly word {format_index(word)}"
            for k in word:
                _guard_bernoulli(what, k, "an e-word letter", ns.no_cost_guard, hint)
    comb, residual = to_E0_basis(poly)
    by_qexp = fourier_membership(poly, order)
    ok = residual.is_zero() and by_qexp
    doc = {
        "schema": "emzv.fourier-check/1",
        "residual_zero": residual.is_zero(),
        "qexp_t_free": by_qexp,
        "member": ok,
    }
    _emit(
        ns,
        doc,
        f"residual: {residual}\nqexp T-free: {by_qexp}\nmember: {ok}",
    )
    return 0 if ok else 1


@_subcommand(
    "membership", "dual-ideal membership of an index or e-word sum", "--mzv-table", "--format"
)
def _cmd_membership(ns: argparse.Namespace) -> int:
    table = _load_table(ns)
    poly = _epoly_argument(ns, table)
    if not ns.no_cost_guard:
        for length, letter_sum in sorted({(len(w), sum(w)) for w in poly.coeffs}):
            rows = _kernel_rows(length, letter_sum)
            if rows > KERNEL_ROW_BUDGET:
                raise ValueError(
                    f"membership component length={length} letters={letter_sum} "
                    f"needs a Lie kernel of {rows} rows, beyond the budget of "
                    f"{KERNEL_ROW_BUDGET} rows; pass `--no-cost-guard` to compute it"
                )
    per_comp = uu_dual_membership(poly)
    ok = all(per_comp.values())
    doc = {
        "schema": "emzv.membership/1",
        "components": [
            {"length": l, "letter_sum": s, "member": m}
            for (l, s), m in sorted(per_comp.items())
        ],
        "member": ok,
    }
    text = "\n".join(
        [f"component length={l} letters={s}: {m}" for (l, s), m in sorted(per_comp.items())]
        + [f"member: {ok}"]
    )
    _emit(ns, doc, text)
    return 0 if ok else 1


@_subcommand("dump-ainf", "print the limit series", "--mzv-table", "--degree", "--format")
def _cmd_dump_ainf(ns: argparse.Namespace) -> int:
    degree = _positive(ns, "degree")
    table = _load_table(ns)
    _require_limit_series(degree, table)
    ainf = build_Ainf(degree, table)
    doc = {
        "schema": "emzv.ncseries/1",
        "maxdeg": ainf.maxdeg,
        "terms": [
            [w, render_coeff(c)]
            for w, c in sorted(ainf.items(), key=lambda t: (len(t[0]), t[0]))
        ],
    }
    _emit(ns, doc, str(ainf))
    return 0


@_subcommand("verify", "run the verification suite", "--mzv-table", "--order", "--degree")
def _cmd_verify(ns: argparse.Namespace) -> int:
    from .verify import VerifyContext, run_checks  # only this subcommand needs it

    order, degree = _positive(ns, "order"), _positive(ns, "degree")
    table = _load_table(ns)
    if ns.only is None or ns.only in "criterion-10-associator":  # the check that reads --degree
        _require_limit_series(degree, table)  # before any check runs
    ctx = VerifyContext(table=table, q_order=order, nc_degree=degree)
    results = run_checks(ctx, only=ns.only)
    for name, ok, detail, seconds in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name} - {detail} ({seconds:.2f} s)")
    if not results:
        print("no checks selected", file=sys.stderr)
        return 2
    return 0 if all(ok for _, ok, _, _ in results) else 1


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _SUBCOMMANDS[ns.command][2](ns)
    except EmzvError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"ValueError: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
