"""Acceptance suite: one test per criterion, all exact, zero tolerance.

Each test delegates to the corresponding check in emzv.verify (shared with
the CLI ``verify`` subcommand) and prints one pass/fail line.  The finer
worked-example checks of ``emzv verify`` run here as well, one test each.
"""

import pytest

from emzv.coeffring import shipped_table
from emzv.verify import (
    CHECKS,
    VerifyContext,
    criterion_01_length_one,
    criterion_02_length_two,
    criterion_03_worked_examples,
    criterion_04_cross_path,
    criterion_05_differential,
    criterion_06_fourier,
    criterion_07_shuffle,
    criterion_08_derivation_algebra,
    criterion_09_image_constraints,
    criterion_10_associator,
)

CRITERIA = [
    ("1 length-one values", criterion_01_length_one),
    ("2 length-two closed form", criterion_02_length_two),
    ("3 worked decompositions", criterion_03_worked_examples),
    ("4 cross-path oracle", criterion_04_cross_path),
    ("5 differential consistency", criterion_05_differential),
    ("6 Fourier property", criterion_06_fourier),
    ("7 shuffle suite", criterion_07_shuffle),
    ("8 derivation algebra", criterion_08_derivation_algebra),
    ("9 image constraints", criterion_09_image_constraints),
    ("10 associator infrastructure", criterion_10_associator),
]


@pytest.fixture(scope="module")
def ctx():
    return VerifyContext(table=shipped_table(), q_order=20, nc_degree=8)


@pytest.mark.parametrize("label,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(ctx, label, check):
    ok, detail = check(ctx)
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {label} failed: {detail}"


WORKED_CHECKS = [(name, fn) for name, fn in CHECKS if not name.startswith("criterion-")]


@pytest.mark.parametrize("name,check", WORKED_CHECKS, ids=[c[0] for c in WORKED_CHECKS])
def test_worked_example_check(ctx, name, check):
    ok, detail = check(ctx)
    assert ok, f"check {name} failed: {detail}"


def test_every_check_is_run_here():
    assert len(WORKED_CHECKS) + len(CRITERIA) == len(CHECKS)


def test_reflection_check_names_a_broken_index(ctx, monkeypatch):
    # negative control: psi(0, 2) perturbed, psi(2, 0) left alone
    from emzv import verify
    from emzv.eisalg import EPoly

    real = verify.decompose

    def perturbed(idx, table):
        dec = real(idx, table)
        return dec._replace(epoly=dec.epoly + EPoly.word((2,))) if idx == (0, 2) else dec

    monkeypatch.setattr(verify, "decompose", perturbed)
    ok, detail = verify.check_reflection(ctx)
    assert not ok
    assert detail == "reflection fails at index 0,2: psi is not (-1)^2 times psi(2,0)"
