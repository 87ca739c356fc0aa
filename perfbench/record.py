"""Record the reference digests of every request of every workload.

    python3 perfbench/record.py

Serves each workload once, in canonical order, in a fresh interpreter, and
writes ``reference.json``.  Before writing it checks, untimed, that the
generating-series route (``crosscheck``) gives the same digest as the
length recursion's ``decompose`` over the same indices, and that no
request raised.  Run it only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, WORKLOADS, BenchmarkError, run_pass, spawn


def record() -> dict:
    out: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS:
        _, doc = run_pass(workload, 0, -1, traced=False)
        digests: dict[str, str] = {}
        for rid, dig in doc["results"]:
            if dig.startswith("error:"):
                raise BenchmarkError(f"{workload} {rid}: {dig}")
            if digests.setdefault(rid, dig) != dig:
                raise BenchmarkError(f"{workload} {rid}: two different outputs")
        out[workload] = dict(sorted(digests.items()))
        print(f"{workload}: {len(digests)} requests", file=sys.stderr)

    _, text = spawn(["--mode", "crosscheck-recursion"])
    recursion = json.loads(text.strip().splitlines()[-1])
    for rid, dig in recursion.items():
        if out["crosscheck"][rid] != dig:
            raise BenchmarkError(f"{rid}: generating-series route disagrees with decompose")
    print("crosscheck digests equal the length recursion's", file=sys.stderr)
    return {"format": 1, "workloads": out}


def main() -> int:
    try:
        doc = record()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
