"""Speculative decoding on the fleet: the ``reasoning_prod`` preset
with draft/verify speculation off vs on at equal KV budget, the
acceptance-rate sweep behind it, and a defaults-off digest re-check --
emitted as tables and machine-readable ``BENCH_specdec_fleet.json``.

Two contracts are enforced here:

- **speedup**: at the paper's lookahead-8 / 4.6-accepted operating
  point, specdec-on decode pods deliver >= 1.5x the goodput-weighted
  effective decode tok/s of the same fleet with specdec off, on
  identical reasoning arrivals at equal KV budget;
- **neutrality**: with specdec off the simulator is bit-identical to
  the pinned baseline -- every specdec-off digest pin in
  ``tests/serving/test_engine.py`` is recomputed and compared here,
  like ``tools/capture_digests.py --check`` does in CI.
"""

import importlib.util
from pathlib import Path

from conftest import emit

from _emit import write_bench_json
from repro.analysis.cluster_sweep import effective_decode_rate, specdec_acceptance_sweep
from repro.api import scenario
from repro.models.llama3 import LLAMA3_70B
from repro.serving.cluster import simulate
from repro.serving.engine import report_digest
from repro.specdec import SpecDecConfig
from repro.util.tables import Table

JSON_PATH = Path(__file__).resolve().parent / "BENCH_specdec_fleet.json"
ENGINE_TESTS = (
    Path(__file__).resolve().parent.parent
    / "tests" / "serving" / "test_engine.py"
)

#: The acceptance bar: goodput-weighted effective decode throughput
#: with specdec on over off, same arrivals, equal KV budget.
MIN_SPEEDUP = 1.5


def _load_engine_pins():
    """Import the digest-pin module the way the capture tool does."""
    spec = importlib.util.spec_from_file_location("test_engine", ENGINE_TESTS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def build():
    off_scenario = scenario("reasoning_prod", LLAMA3_70B)
    requests = off_scenario.requests()
    off = off_scenario.run(requests)
    on = scenario(
        "reasoning_prod", LLAMA3_70B, specdec=SpecDecConfig()
    ).run(requests)
    sweep = specdec_acceptance_sweep(
        LLAMA3_70B, accepted=(2.0, 3.0, 4.6, 6.0), duration_s=15.0
    )
    # Defaults-off neutrality: recompute every specdec-off pin.
    pins = _load_engine_pins()
    digests = {}
    for name, builder in pins.SCENARIOS.items():
        config, pin_requests = builder()
        if config.specdec is not None:
            continue
        digests[name] = report_digest(simulate(config, pin_requests))
    return off, on, sweep, pins.DIGESTS, digests


def test_specdec_fleet(benchmark):
    off, on, sweep, pinned, recomputed = benchmark.pedantic(
        build, rounds=1, iterations=1
    )
    off_rate = effective_decode_rate(off)
    on_rate = effective_decode_rate(on)
    speedup = on_rate / off_rate

    preset_table = Table(
        "reasoning_prod preset, identical arrivals at equal KV budget "
        "(Llama3-70B verify, Llama3-8B colocated draft, L=8 / 4.6 accepted)",
        ["specdec", "completed", "eff decode tok/s", "tok/s", "J/token"],
    )
    for label, report, rate in (("off", off, off_rate), ("on", on, on_rate)):
        preset_table.add_row([
            label,
            f"{len(report.completed)}/{report.num_submitted}",
            f"{rate:,.0f}",
            f"{report.tokens_per_s:,.0f}",
            f"{report.energy_per_token_j:.2f}",
        ])

    sweep_table = Table(
        "Acceptance-rate sweep (lookahead 8, colocated draft, "
        "reasoning traffic)",
        ["accepted/window", "eff decode tok/s", "speedup", "J/token"],
    )
    for p in sweep:
        label = "off" if p["lookahead"] == 0 else f"{p['accepted_per_window']:.1f}"
        sweep_table.add_row([
            label,
            f"{p['effective_decode_tokens_per_s']:,.0f}",
            f"{p['speedup']:.2f}x",
            f"{p['energy_per_token_j']:.2f}",
        ])
    emit(preset_table, sweep_table)

    # -- acceptance: the paper's operating point pays off on the fleet
    assert len(on.completed) == len(off.completed)
    assert speedup >= MIN_SPEEDUP, (
        f"specdec-on effective decode rate {on_rate:,.0f} tok/s is only "
        f"{speedup:.2f}x the specdec-off {off_rate:,.0f} tok/s "
        f"(need >= {MIN_SPEEDUP}x)"
    )
    # The sweep brackets the operating point: negligible lift at low
    # acceptance, monotone-increasing effective rate above it.
    rates = [p["effective_decode_tokens_per_s"] for p in sweep]
    assert rates[-1] > rates[1]
    by_accept = {p["accepted_per_window"]: p for p in sweep}
    assert by_accept[6.0]["speedup"] > by_accept[2.0]["speedup"]

    # -- acceptance: specdec off is bit-identical to the pinned baseline
    for name, digest in recomputed.items():
        assert digest == pinned[name], (
            f"specdec-off scenario {name!r} drifted from its pin"
        )
    assert len(recomputed) == 20

    write_bench_json(
        JSON_PATH,
        "specdec_fleet",
        config={
            "model": LLAMA3_70B.name,
            "preset": "reasoning_prod",
            "lookahead": 8,
            "accepted_per_window": 4.6,
            "sweep_accepted": [2.0, 3.0, 4.6, 6.0],
            "min_speedup": MIN_SPEEDUP,
        },
        metrics={
            "effective_decode_tokens_per_s": {
                "off": off_rate,
                "on": on_rate,
                "speedup": speedup,
            },
            "acceptance_sweep": [
                {
                    key: p[key]
                    for key in (
                        "accepted_per_window",
                        "lookahead",
                        "effective_decode_tokens_per_s",
                        "speedup",
                        "energy_per_token_j",
                        "completed",
                    )
                }
                for p in sweep
            ],
            "defaults_off_pins_checked": len(recomputed),
            "reasoning_prod": {
                "off": off.to_json(),
                "on": on.to_json(),
            },
        },
    )
