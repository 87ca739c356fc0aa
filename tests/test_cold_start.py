"""The cold path: what ``import emzv`` loads, the value records that replaced
the dataclasses, and the one-pass table loader against the loader it
replaced."""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import emzv
from emzv.cli import run
from emzv.coeffring import (
    FORMAT_NAME,
    PI_SYMBOL,
    CoeffElem,
    MzvMonomial,
    MzvTable,
    dump_mzv_table,
    loads_mzv_table,
    parse_coeff,
    reduce_even_zeta,
    render_coeff,
    shipped_table,
)
from emzv.decomp import Decomposition, DiffTerm, decompose, diffeq_expand
from emzv.derlie import RelationSet, find_lie_relations
from emzv.errors import ConsistencyError, DimensionMismatch, ParseError
from emzv.linalg import RatMatrix

F = Fraction
SRC = Path(emzv.__file__).resolve().parent.parent

SHIPPED_TEXT = (SRC / "emzv" / "data" / "mzv_table_w8.txt").read_text("utf-8")


# ---------------------------------------------------------------------------
# What the import loads


def test_cold_import_loads_no_dataclasses():
    # -S: no site-packages hooks, so sys.modules holds the interpreter's own
    # start-up modules and what the program imports.  A text-format call
    # loads no json either; a JSON one does.
    probe = (
        "import sys\n"
        "import emzv, emzv.cli\n"
        "emzv.shipped_table()\n"
        "emzv.cli.run(['gamma', '--index', '2,0,0'])\n"
        "cold = sorted(m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules)\n"
        "emzv.cli.run(['gamma', '--index', '2,0,0', '--format', 'json'])\n"
        "print(cold, 'json' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[] True"


# ---------------------------------------------------------------------------
# The value records


def _records():
    table = shipped_table()
    return [
        decompose((2, 0, 0), table),
        diffeq_expand((2, 0, 1))[0],
        find_lie_relations(14, 2),
    ]


@pytest.mark.parametrize("kind", [Decomposition, DiffTerm, RelationSet])
def test_records_are_immutable_equal_and_hashable(kind):
    [rec] = [r for r in _records() if type(r) is kind]
    field = kind._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = 1
    twin = kind(*rec)
    assert twin == rec and twin is not rec
    assert hash(twin) == hash(rec)
    assert len({rec, twin}) == 1


def test_decomposition_round_trips_through_its_document():
    table = shipped_table()
    for idx in [(), (3,), (2, 0), (0, 1, 0, 0), (2, 0, 0, 1), (1, 1, 1, 1)]:
        d = decompose(idx, table)
        assert Decomposition.from_doc(d.to_doc(), table) == d
    assert Decomposition((), decompose((), table).epoly).nc_degree == 0


def test_two_loads_are_equal_tables_with_their_own_caches():
    a, b = loads_mzv_table(SHIPPED_TEXT), loads_mzv_table(SHIPPED_TEXT)
    assert a == b and a.caches is not b.caches
    decompose((2, 0, 0), a)
    assert a.caches and not b.caches
    assert a == b  # the caches take no part in equality
    assert a != loads_mzv_table(SHIPPED_TEXT.replace("max_weight 8", "max_weight 8\nsymbol z9 8"))
    with pytest.raises(AttributeError):
        a.extra = 1


def test_ratmatrix_shape_equality_and_hash():
    with pytest.raises(DimensionMismatch, match="^2x2 matrix needs 4 entries$"):
        RatMatrix(2, 2, (F(1), F(2), F(3)))
    m = RatMatrix(1, 2, (F(1), F(2)))
    assert m == RatMatrix.from_rows([[1, 2]]) and hash(m) == hash(RatMatrix.from_rows([[1, 2]]))
    assert m != RatMatrix(2, 1, (F(1), F(2)))
    with pytest.raises(AttributeError):
        m.extra = 1


# ---------------------------------------------------------------------------
# The strict coefficient grammar


@pytest.mark.parametrize(
    "text,need",
    [
        ("1.5 * pi^2", "bad rational '1.5'"),
        ("1e3 * z3", "bad rational '1e3'"),
        ("1_000 * 1", "bad rational '1_000'"),
        ("-1/2_0 * 1", "bad rational '-1/2_0'"),
        (".5 * 1", "bad rational '.5'"),
        ("١ * 1", "bad rational '١'"),  # a non-ASCII digit
        ("1 * z3^0", "bad monomial factor 'z3^0'"),
        ("1 * pi^0 z3", "bad monomial factor 'pi^0'"),
        ("1 * z3^00", "bad monomial factor 'z3^00'"),
    ],
)
def test_parse_coeff_is_strict(text, need):
    with pytest.raises(ParseError, match=f"^{re.escape(need)}$"):
        parse_coeff(text, ["z3"])
    # the same message names the line of a table, and --epoly exits 2
    word = "AB" if "pi" in text else "ABB"
    doc = SHIPPED_TEXT.replace(f"convergent {word} = ", f"convergent {word} = {text} + ", 1)
    lines = SHIPPED_TEXT.splitlines()
    lineno = 1 + next(i for i, line in enumerate(lines) if line.startswith(f"convergent {word} = "))
    with pytest.raises(ParseError, match=f"^line {lineno}: {re.escape(need)}$"):
        loads_mzv_table(doc)
    assert run(["membership", "--epoly", json.dumps([["2", text]])]) == 2


def test_parse_coeff_accepts_the_grammar():
    got = parse_coeff("-3/6 * pi^2 z3 + 2 * z3 pi^2 + 0 * 1 + 4/1 * 1 + -0/5 * z3", ["z3"])
    assert got == CoeffElem({MzvMonomial(2, ("z3",)): F(3, 2), MzvMonomial(0, ()): F(4)})
    assert parse_coeff("1 * z3 + -1 * z3", ["z3"]) == CoeffElem.zero()
    assert parse_coeff(" 0 ", []) == CoeffElem.zero()


# ---------------------------------------------------------------------------
# Differential test: the one-pass loader against the loader it replaced,
# kept here as the reference (its format 1 branches left out).  It read each
# rational by Fraction(str) and summed one CoeffElem per term.

_REF_FACTOR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(\d+))?$")


def reference_parse_coeff(text, known_symbols):
    known = set(known_symbols)
    text = text.strip()
    if text == "0":
        return CoeffElem.zero()
    acc = CoeffElem.zero()
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if "*" not in chunk:
            raise ParseError(f"term without '*': {chunk!r}")
        qs, ms = chunk.split("*", 1)
        try:
            q = Fraction(qs.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {qs.strip()!r}") from exc
        ms = ms.strip()
        pi_power = 0
        syms = []
        if ms != "1":
            for factor in ms.split():
                m = _REF_FACTOR_RE.match(factor)
                if not m:
                    raise ParseError(f"bad monomial factor {factor!r}")
                name, exp = m.group(1), int(m.group(2) or 1)
                if name == PI_SYMBOL:
                    pi_power += exp
                elif name in known:
                    syms.extend([name] * exp)
                else:
                    raise ParseError(f"unknown symbol {name!r}")
        acc = acc + CoeffElem({MzvMonomial(pi_power, tuple(sorted(syms))): q})
    return acc


def reference_loads_mzv_table(text):
    from emzv.coeffring import admissible_words

    version = max_weight = None
    symbols, convergent = {}, {}

    def split_entry(rest):
        if "=" not in rest:
            raise ParseError("missing '='")
        lhs, rhs = rest.split("=", 1)
        return lhs.strip(), rhs.strip()

    def integer(text, what):
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"bad {what} {text!r}") from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "format":
                if version is not None:
                    raise ParseError("duplicate format line")
                parts = rest.split()
                if len(parts) != 2 or parts[0] != FORMAT_NAME:
                    raise ParseError("unrecognized format line")
                version = integer(parts[1], "format version")
                if version != 2:
                    raise ParseError(f"unsupported version {parts[1]}")
            elif head == "max_weight":
                if max_weight is not None:
                    raise ParseError("duplicate max_weight line")
                max_weight = integer(rest, "max_weight")
            elif head == "symbol":
                parts = rest.split()
                if len(parts) != 2:
                    raise ParseError("expected 'symbol NAME WEIGHT'")
                name, w = parts[0], integer(parts[1], "symbol weight")
                if name == PI_SYMBOL or name in symbols:
                    raise ParseError(f"bad or duplicate symbol {name!r}")
                symbols[name] = w
            elif head == "convergent":
                lhs, rhs = split_entry(rest)
                if not lhs or set(lhs) - {"A", "B"}:
                    raise ParseError(f"bad word {lhs!r}")
                if lhs in convergent:
                    raise ParseError(f"duplicate word {lhs!r}")
                convergent[lhs] = reference_parse_coeff(rhs, symbols)
            else:
                raise ParseError(f"unknown directive {head!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if version is None:
        raise ParseError("missing format line")
    if max_weight is None:
        raise ParseError("missing max_weight")

    t = MzvTable(max_weight=max_weight, symbols=symbols, convergent_words=convergent)
    for name, w in t.symbols.items():
        if not 1 <= w <= t.max_weight:
            raise ConsistencyError(f"symbol {name} has weight {w} outside 1..cap")
    for w, c in t.convergent_words.items():
        if not (w.startswith("A") and w.endswith("B")):
            raise ConsistencyError(f"word {w!r} is not admissible")
        if len(w) > t.max_weight:
            raise ConsistencyError(f"word {w!r} exceeds the weight cap")
        ws = c.weights(t.symbols)
        if ws and ws != {len(w)}:
            raise ConsistencyError(f"convergent {w}: weight {ws} != {len(w)}")
    for weight in range(2, t.max_weight + 1):
        for w in admissible_words(weight):
            if w not in t.convergent_words:
                raise ConsistencyError(f"missing convergent word {w}")
    for s in range(2, t.max_weight + 1, 2):
        word = "A" + "B" * (s - 1)
        if t.convergent_words[word] != reduce_even_zeta(s):
            raise ConsistencyError(
                f"convergent {word} = zeta({s}) must equal the Bernoulli value "
                f"{render_coeff(reduce_even_zeta(s))}"
            )
    return t


def _outcome(loader, text):
    try:
        return loader(text)
    except (ParseError, ConsistencyError) as exc:
        return f"{type(exc).__name__}: {exc}"


# A rational the strict grammar refuses and Fraction(str) reads: a decimal
# point, an exponent, a digit separator or a non-ASCII digit.  A factor it
# refuses: a zero exponent.
_STRICT_RATIONAL = re.compile(r"[.eE_]|[^\x00-\x7f]")
_STRICT_FACTOR = re.compile(r"^[A-Za-z][A-Za-z0-9]*\^0+$")


def _is_strictness_case(new, old):
    if not isinstance(old, MzvTable) or not isinstance(new, str):
        return False
    m = re.fullmatch(r"ParseError: line \d+: bad (rational|monomial factor) '(.*)'", new)
    if not m:
        return False
    pattern = _STRICT_RATIONAL if m.group(1) == "rational" else _STRICT_FACTOR
    return bool(pattern.search(m.group(2)))


def _mutations(text, rng):
    lines = text.splitlines()
    yield text
    yield text.replace("\n", "\r\n")
    header = next(i for i, line in enumerate(lines) if line.startswith("convergent"))
    for i in list(range(header)) + rng.sample(range(header, len(lines)), 24):
        # a line dropped, and repeated
        yield "\n".join(lines[:i] + lines[i + 1 :])
        yield "\n".join(lines[: i + 1] + lines[i:])
    for old, new in [
        ("format emzv-mzv-table 2", "format emzv-mzv-table 3"),
        ("format emzv-mzv-table 2", "format emzv-mzv-table two"),
        ("format emzv-mzv-table 2", "format other 2"),
        ("max_weight 8", "max_weight 7"),
        ("max_weight 8", "max_weight 9"),
        ("max_weight 8", "max_weight -1"),
        ("symbol z3 3", "symbol z3 0"),
        ("symbol z3 3", "symbol pi 3"),
        ("symbol z3 3", "symbol z3"),
        ("symbol z35 8", "symbol z35 9"),
        ("convergent AB = ", "convergent AB -1/24 * pi^2 + "),
        ("convergent AB = ", "convergent AC = "),
        ("convergent AAB = ", "convergent BAB = "),
        ("= 1 * z3\n", "= 2/2 * z3\n"),
        ("= 1 * z3\n", "= 1 * z3 + 0 * z5\n"),
        ("= 1 * z3\n", "= 2 * z3 + -1 * z3\n"),
        ("= 1 * z3\n", "= 1 * \n"),
        ("= 1 * z3\n", "= 1 * z3 +\n"),
        ("= 1 * z3\n", "= 1 z3\n"),
        ("= 1 * z3\n", "= 1/0 * z3\n"),
        ("= 1 * z3\n", "= 1/-1 * z3\n"),
        ("= 1 * z3\n", "= 1.0 * z3\n"),
        ("= 1 * z3\n", "= 1 * z9\n"),
        ("= 1 * z3\n", "= 1 * z3^1\n"),
        ("= 1 * z3\n", "= 1 * z3^0 z3\n"),
        ("= 1 * z3\n", "= 1 * pi^3\n"),
        ("= 1 * z3\n", "= 1 * z3  # a comment\n"),
        ("-1/24 * pi^2", "-2/48 * pi^2"),
        ("-1/24 * pi^2", "-1/24 * pi pi"),
        ("-1/24 * pi^2", "1/24 * pi^2"),
    ]:
        assert old in text, old
        yield text.replace(old, new, 1)
    alphabet = "0123456789/-+*^ =#.e_ABzpi\n"
    for _ in range(160):  # one character inserted, dropped or replaced
        i = rng.randrange(len(text))
        c = rng.choice(alphabet)
        yield rng.choice([text[:i] + c + text[i:], text[:i] + text[i + 1 :], text[:i] + c + text[i + 1 :]])


def test_loader_matches_reference_on_mutated_documents():
    assert dump_mzv_table(shipped_table()) == SHIPPED_TEXT
    assert reference_loads_mzv_table(SHIPPED_TEXT) == shipped_table()
    differences = strict = 0
    for text in _mutations(SHIPPED_TEXT, random.Random(16)):
        new, old = _outcome(loads_mzv_table, text), _outcome(reference_loads_mzv_table, text)
        if new != old:
            assert _is_strictness_case(new, old), (new, old)
            strict += 1
        differences += isinstance(new, str)
    assert strict  # the mutations reach the new strictness
    assert differences > 100  # and plenty of errors agree
