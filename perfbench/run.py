"""Benchmark entry point.

    python3 perfbench/run.py --workload cusp --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and drives the ``emzv`` package in
``src/`` through its public API.  Every pass of a workload runs in a fresh
interpreter (``worker.py``), one process at a time, so the package's
module-level caches start empty.  Each pass draws its order of requests
from the seed; every output is hashed and checked against
``reference.json``.

With ``--trace 0`` the passes are untraced and the end-to-end metrics are
reported:

* ``setup_s``      median time from spawning an interpreter to ready
                   (``import emzv`` with ``emzv.cli``, shipped table loaded
                   and validated), over set-up-only spawns between passes
                   and the passes' own set-ups;
* ``wall_s``       median time of one pass after set-up;
* ``peak_rss_mib`` median peak resident memory of a pass's process.

With ``--trace 1`` each round runs one untraced and one traced pass in the
same order of requests, and the per-layer metrics of ``tracer.py`` are
reported (medians over the traced passes), with ``trace.overhead_s`` =
the median over rounds of traced minus untraced wall time.

The last line of standard output is the JSON result.  The exit code is 0
only if every pass served exactly the requests of ``reference.json`` and
each matched its reference digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import declared_units
from workloads import NAMES as WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
SETUP_SPAWNS_PER_PASS = 2
PASS_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the worker imports emzv from ROOT/src only
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # cold starts reuse cached bytecode
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], timeout: float = PASS_TIMEOUT_S) -> tuple[float, str]:
    """Start a worker; return (seconds from spawn to ready, rest of its stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        env=worker_env(),
        text=True,
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"worker {args} timed out after {timeout} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"worker {args} failed with exit code {proc.returncode}")
    return ready, rest


def run_pass(workload: str, seed: int, index: int, traced: bool) -> tuple[float, dict]:
    args = ["--mode", "pass", "--workload", workload, "--seed", str(seed), "--pass-index", str(index)]
    ready, out = spawn(args + (["--trace"] if traced else []))
    return ready, json.loads(out.strip().splitlines()[-1])


def check_pass(results: list, reference: dict[str, str]) -> tuple[int, list[str]]:
    """(requests attempted, failed request ids) of one pass.  A request fails
    if its digest differs from the reference, or if the reference holds it
    and the pass did not serve it."""
    missing = sorted(set(reference) - {rid for rid, _ in results})
    bad = [rid for rid, dig in results if reference.get(rid) != dig]
    return len(results) + len(missing), bad + missing


def environment(workload: str, seed: int, trace: bool) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src" / "emzv").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"  # a plain source checkout has no git metadata; src_sha256 still applies
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    deadline = time.perf_counter() + seconds
    spawn(["--mode", "setup"])  # untimed: writes bytecode caches, warms the file cache
    setups: list[float] = []
    walls: list[float] = []
    rss: list[float] = []
    traced_walls: list[float] = []
    layer: dict[str, list[float]] = {}
    attempted = failed = 0
    bad_ids: list[str] = []
    rounds: list[float] = []
    index = 0
    while True:
        start = time.perf_counter()
        if not trace:
            for _ in range(SETUP_SPAWNS_PER_PASS):
                setups.append(spawn(["--mode", "setup"])[0])
        # Traced and untraced passes swap places every round, so that a slow
        # drift of the machine does not bias the tracing overhead.
        sides = ((False, True) if index % 2 == 0 else (True, False)) if trace else (False,)
        for traced in sides:
            ready, doc = run_pass(workload, seed, index, traced)
            tried, bad = check_pass(doc["results"], reference)
            attempted += tried
            failed += len(bad)
            bad_ids += bad
            if traced:
                traced_walls.append(doc["wall_s"])
                for k, v in doc["trace"].items():
                    layer.setdefault(k, []).append(v)
            else:
                setups.append(ready)
                walls.append(doc["wall_s"])
                rss.append(doc["peak_rss_kib"] / 1024)
        index += 1
        rounds.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(rounds) > deadline:
            break

    summary = {"attempted": attempted, "failed": failed, "bad_ids": bad_ids[:5], "passes": index * len(sides)}
    if trace:
        metrics = {k: statistics.median(v) for k, v in layer.items()}
        # Untraced and traced passes of a round serve the same requests in the
        # same order; pairing them cancels the machine's drift between rounds.
        metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_walls, walls))
        summary["metrics"] = metrics
    else:
        summary["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mib": statistics.median(rss),
        }
        summary["samples"] = {"setup_s": setups, "wall_s": walls, "peak_rss_mib": rss}
    return summary


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)

    if not (ROOT / "src" / "emzv" / "__init__.py").is_file():
        print(f"error: no emzv package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        reference = json.loads(REFERENCE.read_text("utf-8"))["workloads"][ns.workload]
        units = declared_units("per_layer" if ns.trace else "end_to_end")
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot read reference digests or metric list: {exc!r}", file=sys.stderr)
        return 2
    try:
        summary = measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace), reference)
        if set(summary["metrics"]) != set(units):
            raise BenchmarkError(
                f"measured metrics {sorted(summary['metrics'])} differ from BENCHMARK.json's {sorted(units)}"
            )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = summary["attempted"], summary["failed"]
    print("# " + json.dumps(environment(ns.workload, ns.seed, bool(ns.trace)), sort_keys=True))
    print(f"# passes {summary['passes']}, requests {attempted}, "
          f"ops_failed_frac {failed / attempted:.6g} ratio")
    if failed:
        print(f"# first failed requests: {summary['bad_ids']}")
    for name, xs in summary.get("samples", {}).items():
        q1, q2, q3 = quartiles(xs)
        print(f"# {name} median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} {units[name]} (n={len(xs)})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in summary["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
