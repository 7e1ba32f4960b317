"""Self-test of the benchmark: traced counts repeat exactly at a fixed
seed, every wrapped binding is restored afterwards, and the host-speed
probe stands apart from the package.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402

# A few ops of each workload keep the test short; the mechanism is the
# same for a full traced run.
OPS = {"corpus-audit": 4, "consequence-mix": 12, "frontend": 60}


def bindings() -> dict:
    return {
        (name, key): val
        for name, m in sys.modules.items()
        if name == "aml" or name.startswith("aml.")
        for key, val in vars(m).items()
        if callable(val)
    }


def traced_counts(name: str, seed: int):
    _, wl = run.fresh_workload(name, seed)
    import tracer

    before = bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        import aml.cli
        import aml.proof
        import aml.semantics

        assert aml.proof.consequence is not before[("aml.proof", "consequence")]
        assert aml.cli.consequence is aml.proof.consequence
        assert aml.semantics.subsets_of is not before[("aml.semantics", "subsets_of")]
        for i, op in enumerate(wl.ops[: OPS[name]]):
            assert wl.check(op, tr.run_op(i, wl.run, op))
    finally:
        tr.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = run.layer_metrics(tr.totals(), 1.0)
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")}


@pytest.mark.parametrize("name", sorted(OPS))
def test_counts_repeat_and_bindings_restored(name):
    first = traced_counts(name, 7)
    second = traced_counts(name, 7)
    assert first == second
    assert first["op.calls"] == OPS[name]


def test_frontend_evaluates_nothing():
    counts = traced_counts("frontend", 3)
    assert counts["semantics.evaluate.calls"] == 0
    assert counts["syntax.parse_core.calls"] > 0


def test_layer_metrics_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in declared["per_layer"]}
    emitted = {k: unit for k, (_, unit) in run.layer_metrics({}, 1.0).items()}
    assert emitted == names


def test_probe_imports_nothing_from_the_package():
    import probe

    assert not [name for name, val in vars(probe).items() if getattr(val, "__module__", "").startswith("aml")]
    assert "aml" not in (HERE / "probe.py").read_text().split('"""', 2)[2]


def test_clock_scales_by_the_probes_near_an_op():
    clock = run.Clock()
    clock.at = [0.0, 1.0, 1.1, 1.2, 5.0]
    clock.seconds = [0.001, 0.006, 0.006, 0.012, 0.001]
    assert clock.scale(1.05, 1.15) == run.PROBE_REFERENCE / 0.006
    # Nothing within the window: the nearest probe on each side.
    assert clock.scale(3.0, 3.1) == run.PROBE_REFERENCE / statistics.median([0.012, 0.001])
