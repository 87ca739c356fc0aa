"""Self-test of the benchmark's own gates.

    python3 perfbench/selftest.py

1. The intact reference passes: ``cusp`` exits 0 with no failed request.
2. A reference with one corrupted digest is reported: exit code 1,
   ``correct`` false and the request counted as failed in every operation
   that serves it (three per pass, one per degree of the ladder).
3. A reference holding one request that the workload does not serve is
   reported the same way, with that one request failed.
4. A directory holding only ``BENCHMARK.json`` and the benchmark's own
   files (no ``src/``) makes the command fail without printing a result.

Cases 2 and 3 run a copy of the benchmark, with a changed
``reference.json``, against this checkout's ``src/``.  Each case runs the
command for one second, which is one pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORRUPTED = "relations:l=2,w=1"  # served by every operation of cusp
UNSERVED = "decompose:[9]"  # weight + length 10, above every degree of cusp


def bench(root: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cusp", "--seed", "7",
           "--seconds", "1", "--trace", "0"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def last_json(out: str) -> dict | None:
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def copy_benchmark(dest: Path, with_src: bool) -> Path:
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns(".selftest-*", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_src:
        (dest / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return dest


def with_reference(dest: Path, change) -> Path:
    """A copy of the benchmark whose cusp digests went through ``change``."""
    copy_benchmark(dest, with_src=True)
    path = dest / "perfbench" / "reference.json"
    ref = json.loads(path.read_text("utf-8"))
    change(ref["workloads"]["cusp"])
    path.write_text(json.dumps(ref), "utf-8")
    return dest


def corrupt(cusp: dict) -> None:
    good = cusp[CORRUPTED]
    cusp[CORRUPTED] = ("0" if good[0] != "0" else "1") + good[1:]


def add_unserved(cusp: dict) -> None:
    assert UNSERVED not in cusp
    cusp[UNSERVED] = "0" * 64


def main() -> int:
    problems = []

    res = bench(ROOT)
    doc = last_json(res.stdout)
    if res.returncode != 0 or not doc or not doc["correct"] or doc["failed"] != 0:
        problems.append(f"intact reference: exit {res.returncode}, result {doc}")

    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=HERE) as tmp:
        for case, change, failed in (("corrupted", corrupt, 3), ("unserved", add_unserved, 1)):
            res = bench(with_reference(Path(tmp) / case, change))
            doc = last_json(res.stdout)
            if res.returncode != 1 or not doc or doc["correct"] or doc["failed"] != failed:
                problems.append(f"{case} reference: exit {res.returncode}, result {doc}")

        res = bench(copy_benchmark(Path(tmp) / "bare", with_src=False))
        if res.returncode == 0 or last_json(res.stdout) is not None:
            problems.append(f"bare directory: exit {res.returncode}, stdout {res.stdout[-200:]!r}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
