"""Row-filled step memo vs the pure-scalar step cost: a differential oracle.

On a sub-bucket memo miss a decode pod fills the whole context row
``[context, STEP_CONTEXT_BUCKET]`` from one numpy evaluation per
platform.  Every element must equal the scalar ``decode_step`` it
replaces, so turning the row path off (the guarded numpy alias set to
``None``, exactly the ``REPRO_NO_NUMPY`` leg) must leave every report
digest bit-identical.  The cases cover plain and speculative RPU
fleets, the production multi-tenant roster with and without specdec,
and the fleets that must stay scalar: GPU decode pods and a split GPU
draft.
"""

import pytest

from repro.analysis import perf_model
from repro.api import multi_tenant_prod
from repro.models.llama3 import LLAMA3_8B
from repro.platform import RpuPlatform
from repro.serving import gpu_only_cluster
from repro.serving.cluster import simulate
from repro.serving.engine import report_diff, report_digest
from repro.specdec import SpecDecConfig
from test_engine import SCENARIOS, _traffic
from test_quiet_lane_oracle import CASES as LANE_CASES

pytestmark = pytest.mark.skipif(
    perf_model._np is None, reason="row path needs numpy (off or not installed)"
)


def _prod(**overrides):
    scenario = multi_tenant_prod(LLAMA3_8B, **overrides)
    return scenario.cluster(), scenario.requests()


#: name -> (config and requests factory, whether RPU rows fill the memo)
CASES = {
    "specdec_fleet": (SCENARIOS["specdec_fleet"], True),
    "multi_tenant_prod": (_prod, True),
    "multi_tenant_prod_specdec": (lambda: _prod(specdec=SpecDecConfig()), True),
    "gpu_decode": (
        lambda: (
            gpu_only_cluster(LLAMA3_8B, kv_budget_bytes=2e8),
            _traffic(seed=43, duration=4.0),
        ),
        False,
    ),
    "split_gpu_draft": (LANE_CASES["split_draft"], False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_row_fill_matches_scalar_path(name, monkeypatch):
    build, fills = CASES[name]
    config, requests = build()
    rows = 0
    row = RpuPlatform.decode_step_row

    def counted(self, workload, seq_lens):
        nonlocal rows
        rows += 1
        return row(self, workload, seq_lens)

    monkeypatch.setattr(RpuPlatform, "decode_step_row", counted)
    on = simulate(config, requests)
    assert (rows > 0) is fills, rows
    monkeypatch.setattr(perf_model, "_np", None)
    off = simulate(config, requests)
    assert report_digest(on) == report_digest(off), report_diff(on, off)
