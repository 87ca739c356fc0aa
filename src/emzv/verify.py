"""Built-in verification suite.

Every check is exact (rational arithmetic, zero tolerance) and deterministic.
The registry covers the worked examples hard-wired into the design (length
one and two closed forms, the worked length-3 and length-4 decompositions,
the derivation-algebra relations, the image constraints, reflection on every
index of degree <= 9) together with the ten acceptance criteria; the CLI
``verify`` subcommand runs all of it.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from typing import Callable

from .coeffring import CoeffElem, MzvTable, bernoulli, shipped_table
from .decomp import (
    decompose,
    diffeq_expand,
    diffeq_rhs_qexp,
    emzv_qexp,
    format_index,
    gseries_decompose,
    indices_upto,
)
from .derlie import (
    annihilates,
    build_D_derivation,
    eps_derivation,
    expand_lyndon,
    assoc_bracket,
    find_lie_relations,
    fourier_membership,
    lyndon_words,
    relation_tensor_elements,
    to_E0_basis,
    uu_dual_membership,
)
from .eisalg import EPoly, eisenstein_qexp, epoly_mul, epoly_to_qexp, iei_qexp, shuffle_words
from .errors import EmzvError
from .linalg import RatMatrix, kernel_basis, rref
from .ncalg import (
    NCSeries,
    build_Ainf,
    build_phi,
    build_ytilde,
    compositions_of,
    extract_gamma,
    index_degree,
    is_grouplike,
    nc_bracket,
)
from .qseries import qt_ddT, qt_mul
from .words import graded_words, shuffle_multiset

F = Fraction
PI = CoeffElem.pi_pow


class VerifyContext:
    """The table and the truncations every check of one run shares."""

    __slots__ = ("table", "q_order", "nc_degree")

    def __init__(self, table: MzvTable, q_order: int = 20, nc_degree: int = 8):
        self.table = table
        self.q_order = q_order
        self.nc_degree = nc_degree


CheckResult = tuple[bool, str]
Check = Callable[[VerifyContext], CheckResult]


def _gamma2_closed(k1: int, k2: int) -> CoeffElem:
    if (k1, k2) == (1, 1):
        return CoeffElem.zero()
    q = (
        F((-1) ** k2)
        * bernoulli(k1)
        * bernoulli(k2)
        / (2 * math.factorial(k1) * math.factorial(k2))
    )
    return PI(2, q) if q else CoeffElem.zero()


def lengthtwo_closed_form(k1: int, k2: int) -> EPoly:
    """Direct transcription of the length-two formula (independent of the
    recursion code path): single letters with beta coefficients plus the
    closed-form constant."""

    def alpha(n: int) -> F:
        return F(-1) if n == 0 else (F(0) if n == 1 else F(2, math.factorial(n - 2)))

    def beta(i: int, j: int) -> F:
        if j % 2:
            return F(0)
        return alpha(i) * bernoulli(j) / math.factorial(j)

    def binom(n: int, k: int) -> int:
        # binom(-1, 0) = 1 occurs at the sum boundaries
        if k < 0:
            return 0
        if n >= 0:
            return math.comb(n, k)
        return (-1) ** k * math.comb(k - n - 1, k)

    acc = EPoly.constant(_gamma2_closed(k1, k2))

    def add_letter(k: int, q: F) -> None:
        nonlocal acc
        if q and k % 2 == 0:
            acc = acc + EPoly.word((k,), PI(1, q))

    add_letter(k1 + 1, -beta(k1 + 1, k2))
    add_letter(k2 + 1, beta(k2 + 1, k1))
    add_letter(k1 + k2 + 1, -((-1) ** k2) * beta(k1 + k2 + 1, 0))
    for m in range(k1 + 2):
        add_letter(k1 - m + 1, binom(k2 + m - 1, m) * beta(k1 - m + 1, m + k2))
    for m in range(k2 + 2):
        add_letter(k2 - m + 1, -binom(k1 + m - 1, m) * beta(k2 - m + 1, m + k1))
    return acc


def _worked_decompositions() -> dict[tuple[int, ...], EPoly]:
    return {
        (3, 0): EPoly.word((4,), PI(1, -1)) + EPoly.word((0,), PI(1, F(-1, 240))),
        (2, 0, 0): EPoly.constant(PI(3, F(1, 72)))
        + EPoly.word((0, 4), PI(1, -2))
        + EPoly.word((0, 0), PI(1, F(-1, 120))),
        (0, 2, 0): EPoly.constant(PI(3, F(1, 72)))
        + EPoly.word((0, 4), PI(1, 4))
        + EPoly.word((0, 0), PI(1, F(1, 60))),
        (0, 0, 2): EPoly.constant(PI(3, F(1, 72)))
        + EPoly.word((0, 4), PI(1, -2))
        + EPoly.word((0, 0), PI(1, F(-1, 120))),
        (0, 1, 0, 0): EPoly.constant(CoeffElem.symbol("z3", -3).mul_pi(1))
        + EPoly.word((0, 0, 4), PI(1, 6))
        + EPoly.word((0, 0, 0), PI(1, F(1, 40))),
    }


# ---------------------------------------------------------------------------
# Acceptance criteria


def criterion_01_length_one(ctx: VerifyContext) -> CheckResult:
    for k in range(13):
        dec = decompose((k,), ctx.table)
        want = (
            CoeffElem.zero()
            if k % 2
            else PI(1, bernoulli(k) / math.factorial(k))
        )
        if dec.epoly != EPoly.constant(want) or dec.gamma != want:
            return False, f"length-one value differs at k={k}"
    return True, "k <= 12 exact"


def criterion_02_length_two(ctx: VerifyContext) -> CheckResult:
    checked = 0
    for k1 in range(7):
        for k2 in range(7 - k1):
            dec = decompose((k1, k2), ctx.table)
            want = lengthtwo_closed_form(k1, k2)
            if dec.epoly != want:
                return False, f"closed form differs at {(k1, k2)}"
            if dec.gamma != _gamma2_closed(k1, k2):
                return False, f"constant differs at {(k1, k2)}"
            checked += 1
    return True, f"{checked} index pairs, weight <= 6"


def criterion_03_worked_examples(ctx: VerifyContext) -> CheckResult:
    for idx, want in _worked_decompositions().items():
        if decompose(idx, ctx.table).epoly != want:
            return False, f"worked decomposition differs at {idx}"
    if decompose((2, 0, 0), ctx.table).epoly != decompose((0, 0, 2), ctx.table).epoly:
        return False, "reflection pair differs"
    if decompose((0, 1, 0, 0), ctx.table).gamma != CoeffElem.symbol("z3", -3).mul_pi(1):
        return False, "length-4 constant differs"
    return True, "all worked decompositions exact"


def criterion_04_cross_path(ctx: VerifyContext) -> CheckResult:
    alt = gseries_decompose(4, 5, ctx.table)
    for idx, poly in alt.items():
        if poly != decompose(idx, ctx.table).epoly:
            return False, f"routes disagree at {idx}"
    return True, f"{len(alt)} indices, length <= 4, weight <= 5"


def criterion_05_differential(ctx: VerifyContext) -> CheckResult:
    count = 0
    for idx in indices_upto(3, 5):
        if not idx:
            continue
        lhs = qt_ddT(emzv_qexp(idx, ctx.q_order, ctx.table))
        rhs = diffeq_rhs_qexp(idx, ctx.q_order, ctx.table)
        if lhs.coeffs != rhs.coeffs:
            return False, f"derivative mismatch at {idx}"
        count += 1
    return True, f"{count} indices to q-order {ctx.q_order}"


def criterion_06_fourier(ctx: VerifyContext) -> CheckResult:
    # Coefficients lie in the zeta ring by the data model; T-freeness is the
    # nontrivial half of the property and is checked exactly.
    for idx in indices_upto(4, 5):
        series = emzv_qexp(idx, ctx.q_order, ctx.table)  # raises on T terms
        if not series.is_t_free():
            return False, f"T term at {idx}"
        poly = decompose(idx, ctx.table).epoly
        if fourier_membership(poly, ctx.q_order) != to_E0_basis(poly)[1].is_zero():
            return False, f"criteria disagree at {idx}"
    rng = random.Random(20260)
    for i in range(100):
        words = [
            w
            for l in (0, 1, 2, 3)
            for s in (0, 2, 4)
            for w in graded_words(l, s, step=2)
        ]
        picks = rng.sample(words, rng.randint(1, 4))
        x = EPoly.zero()
        for w in picks:
            x = x + EPoly.word(w, F(rng.randint(-9, 9), rng.randint(1, 5)))
        if fourier_membership(x, 16) != to_E0_basis(x)[1].is_zero():
            return False, f"criteria disagree on random poly #{i}"
    return True, "T-free on all indices; criteria agree on 100 random polys"


def criterion_07_shuffle(ctx: VerifyContext) -> CheckResult:
    letters = (0, 2, 4, 6, 8)
    words: list[tuple[int, ...]] = [()]
    for n in (1, 2, 3, 4):
        words.extend(
            w for w in itertools.product(letters, repeat=n) if sum(w) <= 8
        )
    count = 0
    for u in words:
        for v in words:
            if len(u) + len(v) > 4 or len(u) > len(v):
                continue
            if sum(u) + sum(v) > 8:
                continue
            lhs = qt_mul(iei_qexp(u, ctx.q_order), iei_qexp(v, ctx.q_order))
            rhs = epoly_to_qexp(shuffle_words(u, v), ctx.q_order)
            if lhs.coeffs != rhs.coeffs:
                return False, f"shuffle identity fails at {(u, v)}"
            count += 1
    # psi(u) psi(v) = sum over the shuffles w of u and v of psi(w), on the
    # 315 pairs whose shuffles have degree <= 9 (all 595 take about 6x longer)
    indices = indices_upto(4, 2)
    pairs = 0
    for i, u in enumerate(indices):
        for v in indices[i:]:
            if not u or index_degree(u + v) > 9:
                continue
            psi_u, psi_v = decompose(u, ctx.table).epoly, decompose(v, ctx.table).epoly
            rhs = EPoly.zero()
            for w, mult in shuffle_multiset(u, v).items():
                rhs = rhs + decompose(w, ctx.table).epoly.scale(mult)
            if epoly_mul(psi_u, psi_v, ctx.table) != rhs:
                return False, f"multiplicativity fails at {(u, v)}"
            pairs += 1
    return True, (
        f"{count} word pairs at q-order {ctx.q_order}; "
        f"psi multiplicative on {pairs} index pairs"
    )


def criterion_08_derivation_algebra(ctx: VerifyContext) -> CheckResult:
    d0 = eps_derivation(0)
    if d0.val_x != {"y": F(1)} or d0.val_y:
        return False, "eps_0 generator values differ"
    d2 = eps_derivation(2)
    t = {"xy": F(1), "yx": F(-1)}
    if d2.val_x != assoc_bracket({"x": F(1)}, t) or d2.val_y != assoc_bracket(
        {"y": F(1)}, t
    ):
        return False, "eps_2 is not the inner derivation on generators"
    rng = random.Random(1601)
    for deg in range(1, 15):
        basis = [w for w in lyndon_words(deg) if len(w) == deg]
        for w in basis if len(basis) <= 4 else rng.sample(basis, 4):
            elem = expand_lyndon(w)
            if d2.apply(elem) != assoc_bracket(elem, t):
                return False, f"eps_2 mismatch on degree {deg}"
    for k in range(0, 13, 2):
        if eps_derivation(k).apply(t):
            return False, f"eps_{k} does not annihilate the degree-2 bracket"
    for k2 in range(0, 11, 2):
        if k2 == 2:
            continue
        pair = (min(2, k2), max(2, k2))
        rel = find_lie_relations(2 + k2, 2, candidates=[pair])
        if rel.vectors != ((F(1),),):
            return False, f"bracket with eps_2 not detected at k2={k2}"
    it = find_lie_relations(14, 2, candidates=[(4, 10), (6, 8)])
    if len(it.vectors) != 1:
        return False, "weight-14 kernel dimension differs"
    a, b = it.vectors[0]
    if b / a != -3:
        return False, "weight-14 relation is not the (1, -3) vector"
    return True, "generator identities, kernel relations"


def criterion_09_image_constraints(ctx: VerifyContext) -> CheckResult:
    for idx in indices_upto(4, 5):
        poly = decompose(idx, ctx.table).epoly.without_constant()
        if poly.is_zero():
            continue
        if not all(uu_dual_membership(poly).values()):
            return False, f"dual membership fails at {idx}"
        if not fourier_membership(poly, ctx.q_order):
            return False, f"Fourier membership fails at {idx}"
    basis = [(10, 4), (4, 10), (8, 6), (6, 8)]
    rows = [[rel.get(w, F(0)) for w in basis] for rel in relation_tensor_elements(14, 2)]
    kern = kernel_basis(RatMatrix.from_rows(rows))
    if len(kern) != 3:
        return False, f"W-subspace dimension is {len(kern)}, not 3"
    want = [
        [F(1), F(1), F(0), F(0)],  # shuffle of the degree-one duals
        [F(0), F(0), F(1), F(1)],
        [F(3), F(0), F(1), F(0)],
    ]
    got_r = rref(RatMatrix.from_rows([list(v) for v in kern]))[0]
    want_r = rref(RatMatrix.from_rows(want))[0]
    if got_r != want_r:
        return False, "W-subspace basis differs"
    return True, "memberships pass; W-subspace has dimension 3 with stated basis"


def criterion_10_associator(ctx: VerifyContext) -> CheckResult:
    table = ctx.table
    D = ctx.nc_degree
    t = -nc_bracket(NCSeries.letter("a", D), NCSeries.letter("b", D))
    ytilde = build_ytilde(D)
    phi = build_phi(ytilde, t, D, table)
    if not is_grouplike(phi, table):
        return False, "associator is not group-like"
    der = build_D_derivation(D)
    ainf = build_Ainf(D, table)
    for name, val in (("t", t), ("ytilde", ytilde), ("the limit series", ainf)):
        if not annihilates(der, val):
            return False, f"annihilating derivation fails on {name}"
    if extract_gamma((2, 0, 0), table) != PI(3, F(1, 72)):
        return False, "constant at (2,0,0) differs"
    for k1 in range(7):
        for k2 in range(7 - k1):
            if extract_gamma((k1, k2), table) != _gamma2_closed(k1, k2):
                return False, f"constant table differs at {(k1, k2)}"
    return True, (
        f"group-like to degree {D}; derivation annihilates every monomial slice; "
        "constants exact"
    )


# ---------------------------------------------------------------------------
# Worked-example checks (finer grained than the criteria)


def check_bernoulli(ctx: VerifyContext) -> CheckResult:
    ok = (
        bernoulli(0) == 1
        and bernoulli(2) == F(1, 6)
        and bernoulli(12) == F(-691, 2730)
    )
    return ok, "B_0, B_2, B_12"


def check_eisenstein(ctx: VerifyContext) -> CheckResult:
    e4 = eisenstein_qexp(4, 4)
    want = {(0, 0): CoeffElem.from_rational(F(1, 240)),
            (1, 0): CoeffElem.from_rational(1),
            (2, 0): CoeffElem.from_rational(9),
            (3, 0): CoeffElem.from_rational(28)}
    ok = (
        dict(e4.coeffs) == want
        and eisenstein_qexp(0, 3).coeffs == {(0, 0): CoeffElem.from_rational(-1)}
        and eisenstein_qexp(3, 3).is_zero()
    )
    return ok, "weight 4 expansion, weight 0 constant, odd vanishing"


def check_iei_basics(ctx: VerifyContext) -> CheckResult:
    ok = (
        iei_qexp((), 5).coeffs == {(0, 0): CoeffElem.one()}
        and iei_qexp((0,), 5).coeffs == {(0, 1): CoeffElem.one()}
        and iei_qexp((3,), 5).is_zero()
    )
    return ok, "empty word, letter 0, odd letter"


def check_shuffle_example(ctx: VerifyContext) -> CheckResult:
    got = shuffle_words((0,), (4,))
    ok = got == EPoly.word((0, 4)) + EPoly.word((4, 0))
    return ok, "two-letter shuffle"


def check_diffeq_examples(ctx: VerifyContext) -> CheckResult:
    terms = diffeq_expand((2, 0, 0))
    ok1 = len(terms) == 1 and terms[0].eis_weight == 0 and terms[0].sub_index == (
        3,
        0,
    ) and terms[0].coeff == -2
    terms = diffeq_expand((0, 1, 0, 0))
    ok2 = sorted((t.eis_weight, t.sub_index, t.coeff) for t in terms) == [
        (0, (0, 2, 0), F(-1)),
        (0, (2, 0, 0), F(1)),
    ]
    ok3 = diffeq_expand((6,)) == []
    return ok1 and ok2 and ok3, "boundary cancellation and worked expansions"


def check_gamma_anchors(ctx: VerifyContext) -> CheckResult:
    table = ctx.table
    ok = (
        extract_gamma((2, 0, 0), table) == PI(3, F(1, 72))
        and extract_gamma((0, 1, 0, 0), table) == CoeffElem.symbol("z3", -3).mul_pi(1)
        and extract_gamma((1, 1), table) == CoeffElem.zero()
        and build_Ainf(1, table).coefficient("b") == PI(1, -1)
    )
    return ok, "worked constants and the degree-one coefficient"


def check_qexp_examples(ctx: VerifyContext) -> CheckResult:
    got = emzv_qexp((3, 0), 4, ctx.table)
    want = {
        (1, 0): PI(1, 1),
        (2, 0): PI(1, F(9, 2)),
        (3, 0): PI(1, F(28, 3)),
    }
    ok = dict(got.coeffs) == want and emzv_qexp((1, 1), 8, ctx.table).is_zero()
    return ok, "weight-3 expansion and the vanishing pair"


def check_membership_examples(ctx: VerifyContext) -> CheckResult:
    bad = EPoly.word((2, 4)) - EPoly.word((4, 2))
    good = shuffle_words((2,), (4,))
    big = EPoly.word((10, 4), 3) + EPoly.word((8, 6))
    ok = (
        uu_dual_membership(bad) == {(2, 6): False}
        and uu_dual_membership(good) == {(2, 6): True}
        and uu_dual_membership(big) == {(2, 14): True}
    )
    return ok, "dual membership on the three worked elements"


def check_fourier_examples(ctx: VerifyContext) -> CheckResult:
    poly = decompose((2, 0, 0), ctx.table).epoly.without_constant()
    ok = (
        fourier_membership(poly, 16)
        and not fourier_membership(EPoly.word((0,)), 16)
        and fourier_membership(EPoly.constant(7), 16)
    )
    return ok, "image part, bare letter 0, constants"


def check_gseries_examples(ctx: VerifyContext) -> CheckResult:
    alt = gseries_decompose(3, 2, ctx.table)
    for idx in [(2, 0, 0), (0, 2, 0), (0, 0, 2)]:
        if alt[idx] != decompose(idx, ctx.table).epoly:
            return False, f"generating-series route differs at {idx}"
    return True, "worked length-3 indices along both routes"


def check_reflection(ctx: VerifyContext) -> CheckResult:
    # psi(k_1, ..., k_n) = (-1)^(k_1 + ... + k_n) psi(k_n, ..., k_1): the
    # reversal symmetry of A-elliptic MZVs, on words and constants together;
    # each index is compared with its reversal once
    indices = [idx for d in range(10) for idx in compositions_of(d)]
    for idx in indices:
        mirror = idx[::-1]
        if idx > mirror:
            continue
        psi, other = decompose(idx, ctx.table).epoly, decompose(mirror, ctx.table).epoly
        if psi != (-other if sum(idx) % 2 else other):
            return False, (
                f"reflection fails at index {format_index(idx)}: psi is not "
                f"(-1)^{sum(idx)} times psi({format_index(mirror)})"
            )
    return True, f"psi(I) = (-1)^|I| psi(reversed I) on {len(indices)} indices, degree <= 9"


CHECKS: list[tuple[str, Check]] = [
    ("bernoulli", check_bernoulli),
    ("eisenstein-qexp", check_eisenstein),
    ("iei-basics", check_iei_basics),
    ("shuffle-example", check_shuffle_example),
    ("diffeq-examples", check_diffeq_examples),
    ("gamma-anchors", check_gamma_anchors),
    ("qexp-examples", check_qexp_examples),
    ("membership-examples", check_membership_examples),
    ("fourier-examples", check_fourier_examples),
    ("gseries-examples", check_gseries_examples),
    ("reflection", check_reflection),
    ("criterion-01-length-one", criterion_01_length_one),
    ("criterion-02-length-two", criterion_02_length_two),
    ("criterion-03-worked-examples", criterion_03_worked_examples),
    ("criterion-04-cross-path", criterion_04_cross_path),
    ("criterion-05-differential", criterion_05_differential),
    ("criterion-06-fourier", criterion_06_fourier),
    ("criterion-07-shuffle", criterion_07_shuffle),
    ("criterion-08-derivation-algebra", criterion_08_derivation_algebra),
    ("criterion-09-image-constraints", criterion_09_image_constraints),
    ("criterion-10-associator", criterion_10_associator),
]


def run_checks(
    ctx: VerifyContext | None = None, only: str | None = None
) -> list[tuple[str, bool, str, float]]:
    """(name, passed, detail, wall seconds) of every selected check."""
    if ctx is None:
        ctx = VerifyContext(table=shipped_table())
    results = []
    for name, fn in CHECKS:
        if only is not None and only not in name:
            continue
        start = time.perf_counter()
        try:
            ok, detail = fn(ctx)
        except EmzvError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail, time.perf_counter() - start))
    return results
