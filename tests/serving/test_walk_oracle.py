"""Differential oracle for the quiet-chain walk (``ClusterSim._walk``).

The walk runs each stretch of equal-cost boundaries in a tight inner
loop.  ``_reference_walk`` below is the plain one-boundary-at-a-time
loop it replaced: both walk the same chains under the same sequence of
limits, and every chain field must compare equal after every call --
floats bit for bit.
"""

import heapq
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.cluster import STEP_CONTEXT_BUCKET, ClusterSim, _QuietChain
from repro.serving.scheduler import _EPS_BYTES

BUCKET = STEP_CONTEXT_BUCKET


def _reference_walk(chain: _QuietChain, limit: float) -> bool:
    """The per-boundary walk: every boundary checks growths and the
    cost refresh, then adds its cost."""
    (t, steps, end, quotient, mean, cost, cost_until, v, occupancy,
     busy_s, energy_j, kv_occupancy_s) = (
        chain.t, chain.steps, chain.end, chain.quotient, chain.mean,
        chain.cost, chain.cost_until, chain.v, chain.occupancy,
        chain.busy_s, chain.energy_j, chain.kv_occupancy_s)
    tie, batch, cache, gheap, grown = (
        chain.tie, chain.batch, chain.cache, chain.gheap, chain.grown)
    block_tokens, overhead, budget = chain.block_tokens, chain.overhead, chain.budget
    next_growth = gheap[0][0] if gheap else 1 << 60
    while steps < end and t < limit:
        grows = steps == next_growth
        if grows:
            mark = len(grown)
            while gheap and gheap[0][0] == steps:
                idx, pos, entry = gheap[0]
                if budget - v - overhead < entry.bytes_per_block - _EPS_BYTES:
                    del grown[mark:]
                    end = steps
                    break
                v += entry.bytes_per_block
                heapq.heappop(gheap)
                grown.append(entry)
                if idx + block_tokens < end:
                    heapq.heappush(gheap, (idx + block_tokens, pos, entry))
            if end == steps:
                break
            next_growth = gheap[0][0] if gheap else 1 << 60
        if mean >= cost_until:
            context = mean if mean <= BUCKET else mean // BUCKET * BUCKET
            cost = cache.get((batch, context)) or chain.step_cost(batch, mean)
            cost_until = mean + 1 if mean < BUCKET else context + BUCKET
        step_s, step_j = cost
        kv_occupancy_s += occupancy * step_s
        busy_s += step_s
        energy_j += step_j
        t += step_s
        steps += 1
        if grows:
            occupancy = (v + overhead) / budget
        if tie:
            quotient += 1
            mean = quotient + (quotient & 1)
        else:
            mean += 1
    (chain.t, chain.steps, chain.end, chain.quotient, chain.mean,
     chain.cost, chain.cost_until, chain.v, chain.occupancy,
     chain.busy_s, chain.energy_j, chain.kv_occupancy_s) = (
        t, steps, end, quotient, mean, cost, cost_until, v, occupancy,
        busy_s, energy_j, kv_occupancy_s)
    return steps == end


class _Entry:
    """A batch sequence as the walk sees it: bytes per KV block."""

    def __init__(self, bytes_per_block: float) -> None:
        self.bytes_per_block = bytes_per_block


def _pod(batch, v, overhead, budget):
    """A decode pod stand-in holding exactly what ``_QuietChain`` reads.
    Its ``step_cost`` buckets the context as ``DecodePod.step_cost``
    does and memoizes into ``_step_cache``, with costs that differ for
    every (batch, context) so a stale cost shows in the sums."""
    cache = {}

    def step_cost(batch_size, context_len):
        if context_len > BUCKET:
            context_len = context_len // BUCKET * BUCKET
        cost = (
            1.3e-3 + context_len * 3.7e-7 + batch_size * 1.1e-5,
            0.41 + context_len * 2.9e-5 + batch_size * 7.3e-3,
        )
        cache[(batch_size, context_len)] = cost
        return cost

    scheduler = SimpleNamespace(
        active=[None] * batch, block_tokens=0, kv_in_use_bytes=v,
        store=SimpleNamespace(resident_overhead_bytes=overhead),
        kv_budget_bytes=budget, kv_occupancy=(v + overhead) / budget,
    )
    return SimpleNamespace(
        scheduler=scheduler, _step_cache=cache, step_cost=step_cost,
        busy_s=0.7, energy_j=11.3, kv_occupancy_s=0.29,
    )


@st.composite
def chain_specs(draw):
    batch = draw(st.integers(1, 9))
    # Batch means below the bucket, just below/above bucket edges, and
    # deep inside higher buckets.
    mean = draw(st.one_of(
        st.integers(1, 60),
        st.sampled_from([BUCKET, 2 * BUCKET, 5 * BUCKET]).flatmap(
            lambda edge: st.integers(edge - 40, edge + 40)),
        st.integers(BUCKET, 40 * BUCKET),
    ))
    if batch % 2 == 0 and draw(st.booleans()):
        total = mean * batch + batch // 2  # exact .5 remainder: a tie batch
    else:
        total = mean * batch + draw(st.integers(0, batch - 1))
    end = draw(st.integers(1, 3000))
    block_tokens = draw(st.integers(1, 300))
    per_block = draw(st.sampled_from([1.0, 2.5, 4096.0]))
    budget = 1e6
    # Free room for a handful of growths: later ones turn loud.
    v = budget - per_block * draw(st.integers(0, 12)) - 0.5
    overhead = draw(st.sampled_from([0.0, 0.25]))
    growths = [
        (first, pos, _Entry(per_block))
        for pos, first in enumerate(
            draw(st.lists(st.integers(0, 400), max_size=batch)))
        if first < end
    ]
    heapq.heapify(growths)
    paged = draw(st.booleans()) or bool(growths)
    fractions = draw(st.lists(
        st.tuples(st.floats(0.0, 1.0), st.sampled_from(["at", "beyond", "free"])),
        max_size=6,
    ))
    start = draw(st.sampled_from([0.0, 1234.5678]))
    return dict(
        batch=batch, total=total, end=end, block_tokens=block_tokens,
        v=v, overhead=overhead, budget=budget,
        growths=growths if paged else None, fractions=fractions, start=start,
    )


def _chain(spec):
    pod = _pod(spec["batch"], spec["v"], spec["overhead"], spec["budget"])
    pod.scheduler.block_tokens = spec["block_tokens"]
    growths = spec["growths"]
    return _QuietChain(
        pod, spec["start"], spec["end"], spec["total"],
        None if growths is None else list(growths),
    )


def _state(chain):
    return {
        name: getattr(chain, name)
        for name in _QuietChain.__slots__ if name != "step_cost"
    }


def _boundary_clocks(spec):
    """Every boundary clock of the chain, one reference call each."""
    chain = _chain(spec)
    clocks = [chain.t]
    while not _reference_walk(chain, math.nextafter(chain.t, math.inf)):
        clocks.append(chain.t)
    clocks.append(chain.t)
    return clocks


def _limits(spec):
    """Rising limits: exact boundary clocks (the walk stops short of
    them), one ulp past them (as the lane advances other pods' walkers)
    and points between boundaries, then ``inf`` to finish."""
    clocks = _boundary_clocks(spec)
    limits = []
    for fraction, kind in spec["fractions"]:
        i = min(int(fraction * len(clocks)), len(clocks) - 1)
        if kind == "at":
            limits.append(clocks[i])
        elif kind == "beyond":
            limits.append(math.nextafter(clocks[i], math.inf))
        else:
            limits.append(clocks[0] + fraction * (clocks[-1] - clocks[0]))
    limits.sort()
    return [*limits, math.inf]


def _assert_walks_agree(spec):
    reference, walked = _chain(spec), _chain(spec)
    assert _state(reference) == _state(walked)
    for limit in _limits(spec):
        expected = _reference_walk(reference, limit)
        assert ClusterSim._walk(walked, limit) == expected
        assert _state(walked) == _state(reference), limit
    assert walked.steps == walked.end


@settings(max_examples=300, deadline=None)
@given(chain_specs())
def test_walk_matches_per_boundary_walk(spec):
    _assert_walks_agree(spec)


def _spec(batch=4, total=4 * 700, end=900, growths=None, free_blocks=50,
          block_tokens=64, fractions=()):
    per_block = 4096.0
    budget = 1e6
    entries = [(first, pos, _Entry(per_block)) for pos, first in enumerate(growths or [])]
    heapq.heapify(entries)
    return dict(
        batch=batch, total=total, end=end, block_tokens=block_tokens,
        v=budget - per_block * free_blocks - 0.5, overhead=0.0, budget=budget,
        growths=entries, fractions=list(fractions), start=0.0,
    )


@pytest.mark.parametrize("spec", [
    # Tie batch below the bucket: stretches of one boundary between
    # refreshes, and the refresh boundary sits on an odd quotient.
    _spec(batch=4, total=4 * 20 + 2, end=700),
    _spec(batch=4, total=4 * 21 + 2, end=700),
    # Tie batch crossing bucket edges (and their stretch stops).
    _spec(batch=6, total=6 * (BUCKET - 9) + 3, end=2 * BUCKET + 5),
    _spec(batch=6, total=6 * (2 * BUCKET - 10) + 3, end=900),
    # Non-tie batches below, across and above the bucket edge.
    _spec(batch=3, total=3 * 500 + 1, end=600),
    _spec(batch=5, total=5 * 3 * BUCKET + 2, end=2000),
    # A loud growth inside what would be a stretch: the pool holds one
    # more block, the second growth is the trigger.
    _spec(batch=2, total=2 * 1030, end=2000, growths=[37, 90], free_blocks=1),
    # Growths every few boundaries from several sequences.
    _spec(batch=3, total=3 * 1500, end=1500, growths=[5, 6, 300], block_tokens=7),
    # Limits cutting stretches: at, one ulp past and between boundaries.
    _spec(batch=2, total=2 * 800, end=1200, growths=[100],
          fractions=[(0.1, "at"), (0.3, "beyond"), (0.55, "free"), (0.8, "beyond")]),
    _spec(batch=4, total=4 * 30 + 2, end=1000,
          fractions=[(0.02, "beyond"), (0.45, "at"), (0.5, "beyond"), (0.99, "free")]),
], ids=[
    "tie_sub_bucket_even", "tie_sub_bucket_odd", "tie_bucket_edge",
    "tie_second_edge", "sub_to_above_bucket", "above_bucket",
    "loud_growth_in_stretch", "dense_growths", "cut_stretches",
    "cut_tie_stretches",
])
def test_walk_matches_per_boundary_walk_cases(spec):
    _assert_walks_agree(spec)


def test_cases_reach_what_they_name():
    """The hand-picked cases do what their names say: a tie chain
    refreshes mid-bucket, a loud growth ends a chain early, and a
    ``nextafter`` limit cuts a stretch part-way."""
    chain = _chain(_spec(batch=4, total=4 * 21 + 2, end=700))
    assert chain.tie
    chain = _chain(_spec(batch=2, total=2 * 1030, end=2000, growths=[37, 90],
                         free_blocks=1))
    assert ClusterSim._walk(chain, math.inf)
    assert chain.end == 90 and len(chain.grown) == 1
    spec = _spec(batch=5, total=5 * 3 * BUCKET + 2, end=2000)
    clocks = _boundary_clocks(spec)
    chain = _chain(spec)
    assert not ClusterSim._walk(chain, math.nextafter(clocks[100], math.inf))
    assert chain.steps == 101 and chain.mean < chain.cost_until
