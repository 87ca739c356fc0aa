"""One cold benchmark process.

Started by ``run.py`` (or ``record.py``) in a fresh interpreter, so every
module-level memo of ``emzv`` starts empty.  Protocol on standard output:

1. after set-up (``import emzv`` including ``emzv.cli``, then loading and
   validating the shipped table) the worker prints ``ready``;
2. unless the mode is ``setup``, it then serves one pass of the workload
   and prints one JSON object: the pass's wall time, its peak resident
   memory, one ``[request id, digest]`` pair per request and, when traced,
   the per-layer metrics.

A request that raises is reported with the digest ``error: <name>``.
The worker itself runs no threads or pools.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def setup(tracer) -> None:
    sys.path.insert(0, str(SRC))
    import emzv
    import emzv.cli  # noqa: F401

    if not str(Path(emzv.__file__).resolve()).startswith(str(SRC.resolve())):
        raise ImportError(f"emzv imported from {emzv.__file__}, not from {SRC}")
    if tracer is not None:
        tracer.install()
    emzv.shipped_table()


def serve_pass(workload: str, seed: int, pass_index: int) -> tuple[float, list]:
    import workloads

    ops = workloads.seeded_operations(workload, seed, pass_index)
    clock = time.perf_counter
    wall = 0.0
    results = []
    for op in ops:
        t0 = clock()
        table = workloads.fresh_table()
        outs = []
        for req in op.requests:
            try:
                outs.append(req.run(table))
            except Exception as exc:  # reported per request, never fatal
                outs.append(exc)
        wall += clock() - t0
        # Rendering and hashing are the benchmark's check, outside the timing.
        for req, out in zip(op.requests, outs):
            if isinstance(out, Exception):
                results.append([req.rid, f"error: {type(out).__name__}: {out}"])
            else:
                results.append([req.rid, workloads.digest(req.render(out))])
        del table, outs
    return wall, results


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "pass", "crosscheck-recursion"), required=True)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pass-index", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    ns = p.parse_args(argv)

    tracer = None
    if ns.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    setup(tracer)
    print("ready", flush=True)
    if ns.mode == "setup":
        return 0

    if ns.mode == "crosscheck-recursion":
        import workloads

        doc = {
            f"gseries:{l},{w}": workloads.crosscheck_recursion_digest(l, w)
            for l, w in workloads.CROSSCHECK_RANGES
        }
        print(json.dumps(doc), flush=True)
        return 0

    wall, results = serve_pass(ns.workload, ns.seed, ns.pass_index)
    doc = {
        "wall_s": wall,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
        "trace": None,
    }
    if tracer is not None:
        tracer.check_expected(ns.workload)
        doc["trace"] = tracer.metrics()
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
