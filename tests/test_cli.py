import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from emzv import cli
from emzv.cli import _SUBCOMMANDS, LENGTH1_BUDGET, run
from emzv.coeffring import dump_mzv_table, render_coeff, shipped_table
from emzv.decomp import Decomposition, decompose
from emzv.eisalg import EPoly


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_text_output(capsys):
    code, out, err = run_cli(capsys, "decompose", "--index", "3,0")
    assert code == 0
    assert "(-1 * pi) e4" in out
    assert "(-1/240 * pi) e0" in out


def test_decompose_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--index", "0,1,0,0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    table = shipped_table()
    dec = Decomposition.from_doc(doc, table)
    assert dec.epoly == decompose((0, 1, 0, 0), table).epoly
    # re-rendering is the identity
    assert dec.to_doc() == doc


def test_empty_index(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--index", "")
    assert code == 0
    assert "(1 * 1) 1" in out


def test_gamma(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--index", "2,0,0")
    assert code == 0
    assert out.strip() == "1/72 * pi^3"


def test_qexp(capsys):
    code, out, _ = run_cli(capsys, "qexp", "--index", "3,0", "--order", "12")
    assert code == 0
    assert "(1 * pi) q" in out and "(9/2 * pi) q^2" in out


def test_help_lists_every_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    # each command gets its own line with a help string, not only a place in
    # the {a,b,...} choice list
    described = re.findall(r"^ {4}(\S+)\s+\S", out, re.MULTILINE)
    assert sorted(described) == sorted(_SUBCOMMANDS)


def test_overflow_exit_code(capsys):
    # length 9 at degree 10: its constant needs a table of weight 9
    code, out, err = run_cli(capsys, "decompose", "--index", "0,0,0,0,0,0,0,0,1")
    assert code == 1
    assert "TableOverflow" in err


def test_table_with_a_negative_cap_is_bad_input(capsys, tmp_path, monkeypatch):
    # refused where it is loaded, as bad input, before any computation asks
    # the cap for a weight
    monkeypatch.delenv("EMZV_MZV_TABLE", raising=False)
    path = tmp_path / "negative.txt"
    path.write_text("format emzv-mzv-table 2\nmax_weight -3\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "decompose", "--index", "0,0", "--mzv-table", str(path))
    assert code == 2
    assert not out and err.count("\n") == 1
    assert f"bad --mzv-table {str(path)!r}: max_weight -3 is negative" in err


def test_usage_error_exit_code(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "decompose")  # missing --index
    assert code == 2
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2
    for argv in (
        ["membership"],  # neither --index nor --epoly
        ["fourier-check"],
        ["fourier-check", "--index", "2,0,0", "--epoly", "[]"],  # both
        ["membership", "--index", "2,0,0", "--epoly", "[]"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.count("\n") == 1 and "exactly one of --index or --epoly" in err
    # an unreadable table path names its source and the OS reason
    for argv, env, need in (
        (["--mzv-table", "/nonexistent"], None, "--mzv-table '/nonexistent': No such file"),
        ([], "/nonexistent", "EMZV_MZV_TABLE '/nonexistent': No such file"),
        (["--mzv-table", str(Path(__file__).parent)], None, "': Is a directory"),
    ):
        with pytest.MonkeyPatch.context() as mp:
            if env is None:
                mp.delenv("EMZV_MZV_TABLE", raising=False)
            else:
                mp.setenv("EMZV_MZV_TABLE", env)
            code, out, err = run_cli(capsys, "gamma", "--index", "2,0,0", *argv)
        assert code == 2, argv
        assert not out and err.count("\n") == 1 and need in err, err
    # so does a table that fails to parse (with its line) or to validate
    text = dump_mzv_table(shipped_table())
    malformed, invalid = tmp_path / "malformed.txt", tmp_path / "invalid.txt"
    malformed.write_text(text.replace("max_weight 8", "max_weight x"), encoding="utf-8")
    invalid.write_text(text.replace("convergent AB =", "convergent AA ="), encoding="utf-8")
    for path, env, need in (
        (malformed, False, f"--mzv-table {str(malformed)!r}: line 3: bad max_weight 'x'"),
        (malformed, True, f"EMZV_MZV_TABLE {str(malformed)!r}: line 3: bad max_weight 'x'"),
        (invalid, False, f"--mzv-table {str(invalid)!r}: word 'AA' is not admissible"),
    ):
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv("EMZV_MZV_TABLE", raising=False)
            if env:
                mp.setenv("EMZV_MZV_TABLE", str(path))
                argv = []
            else:
                argv = ["--mzv-table", str(path)]
            code, out, err = run_cli(capsys, "gamma", "--index", "2,0,0", *argv)
        assert code == 2, (path, env)
        assert not out and err.count("\n") == 1 and need in err, err
    code, _, err = run_cli(capsys, "gamma", "--index", "-1")
    assert code == 2
    assert err.count("\n") == 1 and "nonnegative integers" in err
    for epoly in ('[["2,x", "1 * 1"]]', '[[2, "1 * 1"]]', '[["2,4", 5]]'):
        for command in ("membership", "fourier-check"):
            code, out, err = run_cli(capsys, command, "--epoly", epoly)
            assert code == 2, (command, epoly)
            assert not out and err.count("\n") == 1
            assert err.startswith("ValueError: bad --epoly")
            assert "JSON list of [index, coefficient] pairs" in err
    for argv, need in (
        (["--weight", "-2", "--depth", "2"], "even and ≥ 0"),
        (["--weight", "13", "--depth", "2"], "even and ≥ 0"),
        (["--weight", "14", "--depth", "0"], "depth must be ≥ 1"),
    ):
        code, out, err = run_cli(capsys, "derlie-relations", *argv)
        assert code == 2, argv
        assert not out and err.count("\n") == 1 and need in err
    # the relations are exact, so there is no truncation flag to pass
    code, out, err = run_cli(
        capsys, "derlie-relations", "--weight", "14", "--depth", "2", "--lie-degree", "16"
    )
    assert code == 2 and not out and "unrecognized arguments" in err
    for argv, need in (
        (["relations", "--length", "-1", "--weight", "3"], "bad --length -1: the length must be ≥ 0"),
        (["relations", "--length", "2", "--weight", "-1"], "bad --weight -1: the weight must be ≥ 0"),
        (["dump-ainf", "--degree", "-3"], "bad --degree -3: the degree must be ≥ 1"),
        (["qexp", "--index", "1", "--order", "0"], "bad --order 0: the order must be ≥ 1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert not out and err.count("\n") == 1 and need in err
    # beyond the table's cap: refused up front, naming the flag that fixes it
    for argv, need in (
        (["relations", "--length", "9", "--weight", "1"], "needs a table of weight ≥ 9"),
        (["dump-ainf", "--degree", "10"], "needs a table of weight ≥ 9"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert not out and err.count("\n") == 1
        assert err.startswith("TableOverflow") and need in err and "--mzv-table" in err


def test_verify_refuses_a_degree_beyond_the_table_before_any_check(capsys, monkeypatch):
    # the limit series at degree 10 needs weight 9: the same one line as
    # dump-ainf, naming --mzv-table, and no check runs
    import emzv.verify

    code, out, _ = run_cli(capsys, "verify", "--degree", "9", "--only", "associator")
    assert code == 0 and out.startswith("ok")
    monkeypatch.setattr(emzv.verify, "run_checks", lambda *a, **k: pytest.fail("a check ran"))
    code, out, err = run_cli(capsys, "verify", "--degree", "10")
    assert code == 1 and not out
    assert err == run_cli(capsys, "dump-ainf", "--degree", "10")[2]
    assert err.startswith("TableOverflow") and "--mzv-table" in err and err.count("\n") == 1


def test_verify_checks_the_degree_only_for_the_check_that_reads_it(capsys):
    # only criterion-10-associator builds the limit series at --degree
    code, out, err = run_cli(capsys, "verify", "--degree", "10", "--only", "bernoulli")
    assert code == 0 and out.split()[:2] == ["ok", "bernoulli"] and not err
    code, out, err = run_cli(capsys, "verify", "--degree", "10", "--only", "associator")
    assert code == 1 and not out and err.startswith("TableOverflow")


def test_table_guard_is_exact(capsys):
    # the constant of an index of length n at degree d needs weight
    # min(d - 1, n): length 9 at degree 10 needs 9
    code, _, err = run_cli(capsys, "gamma", "--index", "0,0,0,0,0,0,0,0,1")
    assert code == 1
    assert "TableOverflow" in err and "needs a table of weight ≥ 9" in err
    assert "--mzv-table" in err
    # weight 8 but length 2 at degree 10 needs 2, length 8 at degree 10 and
    # length 9 at degree 9 need exactly 8
    from emzv.verify import _gamma2_closed

    code, out, _ = run_cli(capsys, "gamma", "--index", "4,4")
    assert code == 0
    assert out.strip() == "1/1036800 * pi^2" == render_coeff(_gamma2_closed(4, 4))
    for idx in ("0,0,0,0,0,0,1,1", "0,0,0,0,0,0,0,0,0"):
        code, out, err = run_cli(capsys, "gamma", "--index", idx)
        assert (code, err) == (0, "") and out.strip(), idx
    code, out, _ = run_cli(capsys, "gamma", "--index", "3,4")
    assert code == 0
    assert out.strip() == "0"
    # length 1: a closed-form constant that reads no table, at any weight
    code, out, err = run_cli(capsys, "gamma", "--index", "10")
    assert code == 0 and err == ""
    assert out.strip() == "1/47900160 * pi"


def test_degree_guard_refuses_at_once():
    # the table serves 9999,0 (length 2), but its limit series at degree
    # 10,001 would have about 1.7e11 words: refused before any build
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "emzv", "decompose", "--index", "9999,0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "index 9999,0 at degree 10001 needs a limit series of 166766695003 words" in proc.stderr
    assert f"budget of {cli.SERIES_WORD_BUDGET} words" in proc.stderr
    assert "`--no-cost-guard`" in proc.stderr


def test_degree_guard_on_every_index_command(capsys, monkeypatch):
    # every command that reads an index's constant is refused beyond the
    # budget, and the override computes it; relations names the library call
    import emzv.ncalg

    real = emzv.ncalg.build_Ainf
    monkeypatch.setattr(emzv.ncalg, "build_Ainf", lambda *a, **k: pytest.fail("a build ran"))
    for command in ("gamma", "decompose", "qexp", "fourier-check", "membership"):
        code, out, err = run_cli(capsys, command, "--index", "9999,0")
        assert (code, out) == (2, ""), command
        assert err.count("\n") == 1 and "`--no-cost-guard`" in err, err
    code, out, err = run_cli(capsys, "relations", "--length", "2", "--weight", "9999")
    assert (code, out) == (2, "") and err.count("\n") == 1, err
    assert "each index of length 2 and weight 9999 at degree 10001" in err
    assert "`emzv.find_emzv_relations(indices, table)`" in err
    monkeypatch.setattr(emzv.ncalg, "build_Ainf", real)
    # (0, 20) reads C(23, 1) + C(23, 2) + C(23, 3) = 2,047 words
    assert cli._series_words(22, 2, shipped_table()) == 2047
    assert cli._series_words(9, 2, shipped_table()) == 2**10 - 1  # the whole series
    monkeypatch.setattr(cli, "SERIES_WORD_BUDGET", 2000)
    code, out, err = run_cli(capsys, "gamma", "--index", "0,20")
    assert (code, out) == (2, "") and "2047 words, beyond the budget of 2000 words" in err
    code, out, err = run_cli(capsys, "gamma", "--index", "0,20", "--no-cost-guard")
    from emzv.verify import _gamma2_closed

    assert (code, err) == (0, "") and out.strip() == render_coeff(_gamma2_closed(0, 20))


def test_every_index_of_the_stated_ranges_passes_the_degree_guard():
    # lengths 2 to 5 at the ranges (2, 22), (3, 14), (4, 12) and (5, 9):
    # the guard is cheap, and none of them is refused
    from emzv.decomp import indices_upto

    table = shipped_table()
    for max_len, max_wt in ((2, 22), (3, 14), (4, 12), (5, 9)):
        for idx in indices_upto(max_len, max_wt):
            cli._guard_cost("index", idx, table, False, "")


def test_derlie_relations_row_guard(capsys, monkeypatch):
    # C(61, 3) = 35,990 rows ran for more than 20 s: refused before any
    # kernel, naming the library call; C(17, 3) = 680 rows still runs
    from emzv import derlie

    real = derlie.kernel_basis
    monkeypatch.setattr(derlie, "kernel_basis", lambda m: pytest.fail("a kernel ran"))
    code, out, err = run_cli(capsys, "derlie-relations", "--weight", "60", "--depth", "3")
    assert (code, out) == (2, "") and err.count("\n") == 1, err
    assert f"35990 rows, beyond the budget of {cli.KERNEL_ROW_BUDGET} rows" in err
    assert "`emzv.find_lie_relations(60, 3)`" in err
    monkeypatch.setattr(derlie, "kernel_basis", real)
    code, out, err = run_cli(capsys, "derlie-relations", "--weight", "16", "--depth", "3")
    assert (code, err) == (0, "") and out.startswith("candidates: ")


def test_length1_cost_guard_refuses_at_once():
    # B_10000 would take hours: the guard refuses before any Bernoulli work
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "emzv", "gamma", "--index", "10000"]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert f"≤ {LENGTH1_BUDGET}" in proc.stderr and "--no-cost-guard" in proc.stderr


def test_length1_cost_guard_override(capsys, monkeypatch):
    # a lowered budget, so that the override runs a cheap index
    monkeypatch.setattr(cli, "LENGTH1_BUDGET", 8)
    for command in ("gamma", "decompose", "qexp", "fourier-check", "membership"):
        code, out, err = run_cli(capsys, command, "--index", "10")
        assert (code, out) == (2, ""), command
        assert "≤ 8" in err and "--no-cost-guard" in err and err.count("\n") == 1, err
    code, out, err = run_cli(capsys, "gamma", "--index", "10", "--no-cost-guard")
    assert code == 0 and err == ""
    assert out.strip() == "1/47900160 * pi"
    # within the budget, and odd entries (constant 0, no Bernoulli number)
    for idx, want in (("8", "-1/1209600 * pi"), ("9", "0"), ("10001", "0")):
        code, out, err = run_cli(capsys, "gamma", "--index", idx)
        assert (code, out.strip(), err) == (0, want, ""), idx


def test_relations_guard_is_the_index_guard(capsys):
    # length 1 reads no table: weight 9 runs on the weight-8 table, as
    # gamma --index 9 does; the Bernoulli budget refuses weight 402 at once
    code, out, err = run_cli(capsys, "relations", "--length", "1", "--weight", "9")
    assert (code, err) == (0, "") and "relation: 1" in out
    code, out, err = run_cli(capsys, "relations", "--length", "1", "--weight", "402")
    assert (code, out) == (2, "") and err.count("\n") == 1, err
    assert f"B_402, beyond the budget of even entries ≤ {LENGTH1_BUDGET}" in err
    assert "`gamma --index 402 --no-cost-guard`" in err


def test_fourier_check_epoly_keeps_the_bernoulli_budget(capsys, monkeypatch):
    # the q-expansion of E_402 and the E_0 correction read B_402: refused
    # before any Bernoulli work, as gamma --index 402 is, unless overridden;
    # an odd letter is dropped by the e-word key rule and reads nothing
    from emzv import derlie, eisalg

    word = '[["0,402", "1 * 1"]]'
    real = {m: m.bernoulli for m in (derlie, eisalg)}
    for module in real:
        monkeypatch.setattr(module, "bernoulli", lambda k: pytest.fail(f"read B_{k}"))
    code, out, err = run_cli(capsys, "fourier-check", "--epoly", word)
    assert (code, out) == (2, "") and err.count("\n") == 1, err
    assert f"B_402, beyond the budget of even entries ≤ {LENGTH1_BUDGET}" in err
    assert "--epoly word 0,402" in err and "`--no-cost-guard`" in err
    code, out, err = run_cli(capsys, "fourier-check", "--epoly", '[["401", "1 * 1"]]')
    assert (code, err) == (0, "") and "member: True" in out
    for module, bernoulli in real.items():
        monkeypatch.setattr(module, "bernoulli", bernoulli)
    code, out, err = run_cli(capsys, "fourier-check", "--epoly", word, "--no-cost-guard")
    assert (code, err) == (1, "") and "member: False" in out


def test_membership_kernel_guard_refuses_at_once(monkeypatch):
    # the 0,402 component needs a Lie kernel of C(403, 2) = 81,003 rows,
    # which ran for minutes: refused before any kernel
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "emzv", "membership", "--epoly", '[["0,402", "1 * 1"]]']
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "component length=2 letters=402" in proc.stderr and "81003 rows" in proc.stderr
    assert f"budget of {cli.KERNEL_ROW_BUDGET} rows" in proc.stderr
    assert "`--no-cost-guard`" in proc.stderr
    from emzv import derlie

    monkeypatch.setattr(derlie, "kernel_basis", lambda m: pytest.fail("a kernel ran"))
    assert run(argv[3:]) == 2


def test_membership_kernel_guard_override(capsys, monkeypatch):
    # with a lowered budget a cheap component is refused, and the override
    # gives the unguarded verdict; components within the budget run
    cheap = '[["2,4", "1 * 1"], ["4,2", "-1 * 1"], ["0,0,2", "1 * 1"]]'
    want = run_cli(capsys, "membership", "--epoly", cheap)
    assert want[0] == 1 and "member: False" in want[1]
    assert cli._kernel_rows(2, 6) == 21 and cli._kernel_rows(3, 2) == 3
    monkeypatch.setattr(cli, "KERNEL_ROW_BUDGET", 20)
    code, out, err = run_cli(capsys, "membership", "--epoly", cheap)
    assert (code, out) == (2, "") and err.count("\n") == 1, err
    assert "length=2 letters=6 needs a Lie kernel of 21 rows, beyond the budget of 20" in err
    assert run_cli(capsys, "membership", "--epoly", cheap, "--no-cost-guard") == want
    code, out, err = run_cli(capsys, "membership", "--index", "2,0,0")
    assert (code, err) == (0, "") and "member: True" in out


def test_derlie_relations(capsys):
    code, out, _ = run_cli(
        capsys, "derlie-relations", "--weight", "14", "--depth", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == 14 and doc["depth"] == 2
    assert "[eps4,eps10]" in doc["candidates"]
    # the Ihara-Takao vector appears up to scale
    from fractions import Fraction

    found = False
    for vec in doc["kernel"]:
        pairs = {k: Fraction(v) for k, v in zip(doc["candidates"], vec)}
        a = pairs["[eps4,eps10]"]
        b = pairs["[eps6,eps8]"]
        if a and b / a == -3 and not pairs["[eps2,eps12]"]:
            found = True
    assert found


def test_derlie_relations_with_only_zero_rows(capsys):
    code, out, _ = run_cli(capsys, "derlie-relations", "--weight", "2", "--depth", "3")
    assert code == 0
    assert out.splitlines() == ["candidates: [eps0,[eps0,eps2]]", "relation: 1"]


def test_relations(capsys):
    code, out, _ = run_cli(capsys, "relations", "--length", "1", "--weight", "1")
    assert code == 0
    assert "relation: 1" in out
    # length 4 and weight 5 needs exactly the cap 8
    code, out, _ = run_cli(capsys, "relations", "--length", "4", "--weight", "5")
    assert code == 0
    assert out.startswith("indices: ")


def test_membership_and_fourier(capsys):
    code, out, _ = run_cli(capsys, "membership", "--index", "2,0,0")
    assert code == 0
    assert "member: True" in out
    code, out, _ = run_cli(
        capsys, "membership", "--epoly", '[["2,4", "1 * 1"], ["4,2", "-1 * 1"]]'
    )
    assert code == 1
    assert "member: False" in out
    code, out, _ = run_cli(capsys, "fourier-check", "--index", "2,0,0")
    assert code == 0
    code, out, _ = run_cli(capsys, "fourier-check", "--epoly", '[["0", "1 * 1"]]')
    assert code == 1


@pytest.mark.parametrize(
    "command,split,merged,code",
    [
        # the image part of decompose(2,0,0), with -2 pi split in halves
        (
            "fourier-check",
            '[["0,4", "-1 * pi"], ["0,0", "-1/120 * pi"], ["0,4", "-1 * pi"]]',
            '[["0,4", "-2 * pi"], ["0,0", "-1/120 * pi"]]',
            0,
        ),
        ("fourier-check", '[["2", "1 * 1"], ["2", "-1 * 1"]]', "[]", 0),
        ("fourier-check", '[["0", "1/3 * 1"], ["0", "2/3 * 1"]]', '[["0", "1 * 1"]]', 1),
        (
            "membership",
            '[["2,4", "1/2 * 1"], ["4,2", "1 * 1"], ["2,4", "1/2 * 1"]]',
            '[["2,4", "1 * 1"], ["4,2", "1 * 1"]]',
            0,
        ),
    ],
)
def test_epoly_repeated_words_are_summed(capsys, command, split, merged, code):
    got = run_cli(capsys, command, "--epoly", split)
    assert got == run_cli(capsys, command, "--epoly", merged)
    assert got[0] == code


def test_dump_ainf(capsys):
    code, out, _ = run_cli(capsys, "dump-ainf", "--degree", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["maxdeg"] == 3
    terms = dict(map(tuple, doc["terms"]))
    assert terms[""] == "1 * 1"
    assert terms["b"] == "-1 * pi"


def test_verify_subset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "bernoulli")
    assert code == 0
    assert out.startswith("ok")
    # each line ends with the check's wall time
    assert re.fullmatch(r"ok   bernoulli - .* \(\d+\.\d\d s\)\n", out)
    code, _, err = run_cli(capsys, "verify", "--only", "zzz-no-such-check")
    assert code == 2


def test_custom_table_flag(tmp_path, capsys):
    from emzv.coeffring import dump_mzv_table

    path = tmp_path / "table.txt"
    path.write_text(dump_mzv_table(shipped_table()), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "gamma", "--index", "0,0", "--mzv-table", str(path)
    )
    assert code == 0
    assert out.strip() == "1/2 * pi^2"


def test_table_from_environment(tmp_path, capsys, monkeypatch):
    from emzv.cli import ENV_TABLE
    from emzv.coeffring import dump_mzv_table

    path = tmp_path / "env_table.txt"
    path.write_text(dump_mzv_table(shipped_table()), encoding="utf-8")
    monkeypatch.setenv(ENV_TABLE, str(path))
    code, out, _ = run_cli(capsys, "gamma", "--index", "2,0")
    assert code == 0
    assert out.strip() == "1/24 * pi^2"


SHARED_FLAGS = ("--mzv-table", "--order", "--degree", "--format")

# subcommand -> (arguments of a passing run, the shared flags it reads)
SUBCOMMAND_FLAGS = {
    "decompose": (["--index", "2,0"], ("--mzv-table", "--format")),
    "qexp": (["--index", "3,0"], ("--mzv-table", "--order", "--format")),
    "gamma": (["--index", "2,0,0"], ("--mzv-table", "--format")),
    "relations": (["--length", "1", "--weight", "1"], ("--mzv-table", "--format")),
    "derlie-relations": (["--weight", "14", "--depth", "2"], ("--format",)),
    "fourier-check": (["--index", "2,0,0"], ("--mzv-table", "--order", "--format")),
    "membership": (["--index", "2,0,0"], ("--mzv-table", "--format")),
    "dump-ainf": (["--degree", "3"], ("--mzv-table", "--degree", "--format")),
    "verify": (["--only", "bernoulli"], ("--mzv-table", "--order", "--degree")),
}


def test_subcommand_flags_cover_every_subcommand():
    assert sorted(SUBCOMMAND_FLAGS) == sorted(_SUBCOMMANDS)
    assert sum(len(reads) for _, reads in SUBCOMMAND_FLAGS.values()) == 21


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_subcommand_flags(capsys, tmp_path, command):
    base, reads = SUBCOMMAND_FLAGS[command]
    table = tmp_path / "table.txt"
    table.write_text(dump_mzv_table(shipped_table()), encoding="utf-8")
    good = {"--mzv-table": str(table), "--order": "6", "--degree": "3", "--format": "json"}
    for flag in SHARED_FLAGS:
        code, out, err = run_cli(capsys, command, *base, flag, good[flag])
        if flag not in reads:  # a flag the handler would not read is refused
            assert code == 2 and not out, flag
            assert err == f"emzv {command}: error: unrecognized arguments: {flag} {good[flag]}\n"
            continue
        assert code == 0, (flag, err)
        if flag == "--format":
            json.loads(out)
    # each flag it reads is read: a bad value is a one-line usage error
    for flag, value, need in (
        ("--mzv-table", "/nonexistent", "cannot read --mzv-table '/nonexistent'"),
        ("--order", "0", "bad --order 0: the order must be ≥ 1"),
        ("--degree", "-3", "bad --degree -3: the degree must be ≥ 1"),
        ("--format", "xml", "invalid choice: 'xml'"),
    ):
        if flag in reads:
            code, out, err = run_cli(capsys, command, *base, flag, value)
            assert code == 2 and not out and need in err, (flag, err)
            assert err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["decompose", "--index", "2,0", "--degree", "0"],
            "emzv decompose: error: unrecognized arguments: --degree 0",
        ),
        (
            ["gamma", "--index", "2,0,0", "--format", "xml"],
            "emzv gamma: error: argument --format: invalid choice: 'xml'",
        ),
        (["decompose"], "emzv decompose: error: the following arguments are required: --index"),
        (["--bogus", "decompose", "--index", "2,0"], "emzv: error: unrecognized arguments: --bogus"),
        ([], "emzv: error: the following arguments are required: command"),
    ],
)
def test_argparse_usage_errors_are_one_line(capsys, argv, line):
    # README "Exit codes": a usage error is one line on stderr, exit 2
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(line) and err.count("\n") == 1 and err.endswith("\n"), err


_SURVEY = Path(__file__).resolve().parent.parent / "scripts" / "relation_survey.py"


def test_relation_survey_script_runs():
    proc = subprocess.run(
        [sys.executable, str(_SURVEY), "--max-length", "2", "--max-weight", "5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    # (length, weight, #indices) of every exact family in range
    assert [tuple(map(int, r[:3])) for r in rows] == [
        (1, 0, 1), (1, 1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1),
        (2, 0, 1), (2, 1, 2), (2, 2, 3), (2, 3, 4), (2, 4, 5), (2, 5, 6),
    ]
    # the kernel's relations beyond reflection, weights 0-5: none at
    # length 1, where reflection is the vanishing of the odd entries
    extra = {(int(r[0]), int(r[1])): int(r[5]) for r in rows}
    assert [extra[1, w] for w in range(6)] == [0] * 6
    assert [extra[2, w] for w in range(6)] == [0, 0, 1, 0, 2, 1]


def test_relation_survey_past_degree_nine():
    # length 3 up to weight 12 reaches degree 15 on the weight-8 table; a
    # length-9 family at degree 10 needs weight 9: one line and exit 1
    def survey(*argv):
        cmd = [sys.executable, str(_SURVEY), *argv]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=120)

    proc = survey("--max-length", "3", "--max-weight", "12")
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    assert len(proc.stdout.splitlines()) == 1 + 3 * 13
    proc = survey("--max-length", "9", "--max-weight", "1")
    assert proc.returncode == 1 and proc.stdout.splitlines()[-1].split()[:2] == ["9", "0"]
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("TableOverflow: ")


def test_relation_survey_names_the_first_reflection_failure(capsys, monkeypatch):
    import importlib.util

    spec = importlib.util.spec_from_file_location("relation_survey", _SURVEY)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    real = survey.decompose

    def broken(idx, table):  # psi(2, 0) off by a constant
        dec = real(idx, table)
        if tuple(idx) != (2, 0):
            return dec
        return dec._replace(epoly=dec.epoly + EPoly.constant(1))

    monkeypatch.setattr(survey, "decompose", broken)
    assert survey.main(["--max-length", "2", "--max-weight", "3"]) == 1
    out, err = capsys.readouterr()
    # the families before (2, 2) are printed, and (0, 2) meets (2, 0) first
    assert [line.split()[:2] for line in out.splitlines()[1:]][-1] == ["2", "1"]
    assert err == "reflection fails at index 0,2: psi is not (-1)^2 times psi(2,0)\n"
