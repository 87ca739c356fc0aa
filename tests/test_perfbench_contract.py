"""The benchmark's calls into the package still work and give its outputs.

``perfbench/tracer.py`` wraps a ``Class.method`` boundary through the class's
own ``__dict__`` and a function boundary through its ``emzv`` module, so a
method moved into a base class, or a renamed function, fails here rather
than when a traced benchmark run installs the tracer.  A few requests of
each workload are served through ``perfbench/workloads.py`` and checked
against the recorded digests, so a changed call shape or output fails here
rather than in a benchmark run.  One traced pass of each workload runs in
a worker process, so a layer the tracer requires but no request calls any
more fails here too.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    """perfbench/tracer.py, imported as the benchmark imports it (not installed)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    own = [name for name in ("tracer", "workloads") if name not in sys.modules]
    yield importlib.import_module("tracer")
    for name in own:
        sys.modules.pop(name, None)


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, imported as the benchmark imports it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    own = "workloads" not in sys.modules
    yield importlib.import_module("workloads")
    if own:
        sys.modules.pop("workloads", None)


def test_tracer_boundaries_resolve(tracer):
    importlib.import_module("emzv.cli")
    importlib.import_module("emzv.verify")
    for module, path, kind in tracer.BOUNDARIES:
        assert kind in ("span", "leaf"), (module, path)
        home = sys.modules[f"emzv.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(home, cls_name)
            assert attr in cls.__dict__, f"{module}.{path} is not defined in {cls_name}'s body"
        else:
            assert callable(getattr(home, path, None)), f"emzv.{module} has no {path}"


def test_expected_calls_name_boundaries(tracer):
    names = {tracer.metric_name(module, path) for module, path, _ in tracer.BOUNDARIES}
    for workload, expected in tracer.EXPECTED.items():
        assert set(expected) <= names, workload


def test_cache_observers_read_live_caches(tracer):
    # the traced hit ratios read these caches by name and key; a renamed
    # cache fails traced runs, a changed key reads silently as no hits
    from emzv import eisalg
    from emzv.coeffring import dump_mzv_table, loads_mzv_table, shipped_table
    from emzv.decomp import decompose
    from emzv.ncalg import shuffle_regularize

    t = loads_mzv_table(dump_mzv_table(shipped_table()))
    decompose((2, 0, 0), t)
    assert (2, 0, 0) in t.caches["decomp"]
    shuffle_regularize("AB", t)
    assert "AB" in t.caches["reg"]
    eisalg.iei_qexp((4,), 6)
    assert ((4,), 6) in eisalg._iei_cache

    tr = tracer.Tracer()
    observers = tr._observers()
    for name, args in (
        ("decomp.decompose", ((2, 0, 0), t)),
        ("ncalg.shuffle_regularize", ("AB", t)),
        ("eisalg.iei_qexp", ((4,), 6)),
    ):
        before, _ = observers[name]
        before(args)
        assert tr.hits.get(name) == 1, name


# A few small requests of each workload, each served on a fresh table.
_SERVED = {
    "cusp": ("decompose:[0,1,0,0]", "decompose:[1,0,0,1,0,0]", "relations:l=3,w=4"),
    "crosscheck": ("gseries:3,5",),
    "image": ("shuffle:[2]x[4,2]", "fourier:[2,0,1]", "lie:14,3"),
}


@pytest.mark.parametrize(
    "workload, rid", [(w, rid) for w, rids in _SERVED.items() for rid in rids]
)
def test_requests_match_reference_digests(workloads, workload, rid):
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    request = next(
        r for op in workloads.build_operations(workload) for r in op.requests if r.rid == rid
    )
    out = request.run(workloads.fresh_table())
    assert workloads.digest(request.render(out)) == reference["workloads"][workload][rid]


@pytest.mark.parametrize("workload", ("cusp", "crosscheck", "image"))
def test_traced_pass_calls_every_expected_layer(workload):
    # the worker exits non-zero when a layer in tracer.EXPECTED records no call
    proc = subprocess.run(
        [
            sys.executable, str(PERFBENCH / "worker.py"), "--mode", "pass",
            "--workload", workload, "--seed", "1", "--pass-index", "0", "--trace",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.splitlines()[-1])
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    assert dict(doc["results"]) == reference["workloads"][workload]
