"""Harness test: one tiny run per workload and mode.

Checks that every metric ``BENCHMARK.json`` declares is emitted with its
unit, that seed 0 reproduces the registered presets' traffic, and that
the layer wrappers leave no patched attribute behind.  Run with::

    python3 -m pytest perfbench/test_harness.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from layers import LayerTracer  # noqa: E402
from repro.api import scenario  # noqa: E402
from repro.serving.cluster import ClusterSim  # noqa: E402
from repro.serving.engine import report_digest  # noqa: E402
from workloads import MODEL, WORKLOADS, build, parts  # noqa: E402

#: Shrinks each part's window to a few seconds of traffic.
TINY = {"multi_tenant": 1 / 16, "multi_tenant_specdec": 1 / 16, "reasoning_prod": 1 / 4}

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload, preset", [
    ("multi_tenant", "multi_tenant_prod"),
    ("reasoning_prod", "reasoning_prod"),
])
def test_offset_zero_reproduces_the_preset(workload, preset):
    assert build(workload, 0, 1.0).requests() == scenario(preset, MODEL).requests()


def test_every_part_of_every_seed_gets_its_own_offset():
    offsets = [offset for seed in range(3) for offset, _ in parts("reasoning_prod", seed)]
    assert offsets[0] == 0 and len(set(offsets)) == len(offsets)
    first, second = (build("reasoning_prod", seed, 0.25).requests() for seed in (0, 1))
    assert first != second


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", repr(TINY[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _digest(workload: str) -> str:
    [(offset, window), *_] = parts(workload, 0, TINY[workload])
    built = build(workload, offset, window)
    return report_digest(ClusterSim(built.cluster()).run(built.requests()))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrappers_restore_every_attribute(workload):
    untraced = _digest(workload)
    tracer = LayerTracer()
    originals = [(p.owner, p.attr, vars(p.owner)[p.attr]) for p in tracer.probes]
    with tracer:
        traced = _digest(workload)
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    assert tracer.stats["cluster.run"].calls == 1
    assert traced == untraced == _digest(workload)
