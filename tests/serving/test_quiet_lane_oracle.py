"""Bulk quiet lane oracles: every leg must reproduce the same digests.

The lane chains quiet decode steps inside one event and replays their
float arithmetic in the single-step order.  Three legs take it apart,
and each must leave every report digest bit-identical:

- ``lane_off``: every step takes the single-step path;
- ``walkers_off``: the lane runs, but every other pod's pending step is
  a hard cap instead of a walked quiet chain;
- ``forced_tie``: the exact-tie guard fires on every span, so each one
  is re-walked a boundary short (the rollback branch, which no pinned
  scenario reaches on its own).

The legs run over every digest-pinned scenario (against its pin) and
over extra speculative-decoding cases (against the unpatched run),
whose draft-token headroom moves each sequence's KV block growth
boundaries: a split draft, uncharged draft KV, headroom wider than a
block under the prefix cache, and a pool tight enough that growths
turn loud (reclaim or preempt) inside would-be spans.
"""

import dataclasses
import functools

import pytest

from repro.models.llama3 import LLAMA3_8B, LLAMA3_70B
from repro.serving.cluster import ClusterSim, simulate
from repro.serving.engine import report_diff, report_digest
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.specdec import SpecDecConfig
from repro.specdec.speculative import SpeculativeConfig
from test_engine import DIGESTS, SCENARIOS, _base, _traffic


def _specdec_70b(**specdec):
    return (
        _base(LLAMA3_70B, 3e9, specdec=SpecDecConfig(**specdec)),
        _traffic(
            model=LLAMA3_70B, rate=2.5, seed=59, duration=6.0,
            prompt_mean=2048, decode_mean=1024,
        ),
    )


CASES = {
    "specdec_fleet": SCENARIOS["specdec_fleet"],
    "specdec_reasoning": SCENARIOS["specdec_reasoning"],
    "split_draft": lambda: _specdec_70b(draft_platform="gpu"),
    "uncharged_draft_kv": lambda: _specdec_70b(charge_draft_kv=False),
    # lookahead 8 > block_tokens 4: the headroom spans several blocks.
    "headroom_over_block": lambda: (
        _base(
            block_tokens=4, prefix_caching=True, specdec=SpecDecConfig(),
        ),
        _traffic(prefix_share=0.6, seed=13, duration=5.0),
    ),
    # A tight pool and a wide lookahead: growths reclaim and preempt.
    "tight_pool": lambda: (
        _base(
            LLAMA3_8B, 5e7, block_tokens=16,
            specdec=SpecDecConfig(speculation=SpeculativeConfig(lookahead=20)),
        ),
        _traffic(rate=8.0, decode_mean=512),
    ),
}


def _lane_off(monkeypatch):
    monkeypatch.setattr(
        ClusterSim, "_bulk_quiet_steps", lambda self, now, pod: False
    )


def _walkers_off(monkeypatch):
    horizon = ClusterSim._quiet_horizon

    def hard_caps_only(self, now, pod):
        bound, walkers = horizon(self, now, pod)
        return min([bound, *(chain.t for chain in walkers)]), []

    monkeypatch.setattr(ClusterSim, "_quiet_horizon", hard_caps_only)


def _forced_tie(monkeypatch):
    monkeypatch.setattr(ClusterSim, "_walk_tie", lambda self, walkers, t: True)


LEGS = {
    "lane_off": _lane_off,
    "walkers_off": _walkers_off,
    "forced_tie": _forced_tie,
}


@functools.cache
def _unpatched(name):
    config, requests = CASES[name]()
    return simulate(config, requests)


class TestQuietLaneOracle:
    @pytest.mark.parametrize("leg", sorted(LEGS))
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_leg_matches_the_pin(self, name, leg, monkeypatch):
        config, requests = SCENARIOS[name]()
        LEGS[leg](monkeypatch)
        report = simulate(config, requests)
        if report_digest(report) != DIGESTS[name]:
            monkeypatch.undo()
            pytest.fail(
                f"{leg}: {report_diff(simulate(config, requests), report)}"
            )

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_lane_on_matches_lane_off(self, name, monkeypatch):
        self._check_case(name, "lane_off", monkeypatch)

    @pytest.mark.parametrize("leg", ["forced_tie", "walkers_off"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_lane_on_matches_leg(self, name, leg, monkeypatch):
        self._check_case(name, leg, monkeypatch)

    @staticmethod
    def _check_case(name, leg, monkeypatch):
        on = _unpatched(name)
        config, requests = CASES[name]()
        LEGS[leg](monkeypatch)
        off = simulate(config, requests)
        assert report_digest(on) == report_digest(off), report_diff(on, off)
        if name == "tight_pool":  # the case must really preempt
            assert sum(p.preemptions for p in on.pod_stats) > 0


class TestQuietLaneCoverage:
    def test_specdec_rides_the_lane(self, monkeypatch):
        """Speculation must not push decode steps off the bulk lane:
        single-step ``advance`` calls with specdec on stay within 1.5x
        of the same traffic with it off.  Call counts repeat exactly,
        so this guards the lane's speedup without a wall-clock bound."""
        calls = 0
        advance = ContinuousBatchScheduler.advance

        def counted(self, step_end_s):
            nonlocal calls
            calls += 1
            return advance(self, step_end_s)

        monkeypatch.setattr(ContinuousBatchScheduler, "advance", counted)
        config, requests = SCENARIOS["specdec_fleet"]()
        simulate(config, requests)
        on, calls = calls, 0
        simulate(dataclasses.replace(config, specdec=None), requests)
        assert on <= 1.5 * calls, (on, calls)
