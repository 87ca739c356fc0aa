"""README's memo paragraph names every module memo, and no other.

The module memos are found in the source: every module-level dict that is
passed to ``coeffring.memoized``, plus ``coeffring._bernoulli_cache``, the
growing prefix that ``bernoulli`` publishes under the same lock.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "emzv"


def module_memos() -> set[str]:
    memos = {"coeffring._bernoulli_cache"}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        dicts = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if isinstance(node.value, ast.Dict):
                dicts.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "memoized"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in dicts
            ):
                memos.add(f"{path.stem}.{node.args[0].id}")
    return memos


def memo_paragraph() -> str:
    paragraphs = (ROOT / "README.md").read_text(encoding="utf-8").split("\n\n")
    [found] = [p for p in paragraphs if p.startswith("Every memo ")]
    return found


def test_the_scan_finds_the_module_memos():
    memos = module_memos()
    assert {"coeffring._shipped", "eisalg._iei_cache", "ncalg._plan_cache"} <= memos
    derlie = {m for m in memos if m.startswith("derlie.")}
    assert derlie == {"derlie._tensor_cache", "derlie._eps_nc_cache", "derlie._eps_word_cache"}


def test_readme_names_every_module_memo():
    named = {f"{m}.{n}" for m, n in re.findall(r"`(\w+)\.(_\w+)`", memo_paragraph())}
    assert named == module_memos()
