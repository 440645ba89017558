"""Fleet-simulator benchmark: host cost and simulated SLOs per workload.

Runs one workload (see ``workloads.py``: a few independent fleets, the
"parts") through the public API -- ``Scenario`` ->
``ClusterSim(config).run(requests)`` -> ``ClusterReport`` -- checks
every run's output, and prints one JSON object as the last line of
standard output::

    python3 perfbench/run.py --workload multi_tenant --seed 0 --seconds 50 --trace 0

``--trace 0`` (end-to-end metrics, no instrumentation).  It makes
passes over the parts until ``--seconds`` is spent:

- ``us_per_decode_token``: host µs of ``ClusterSim.run`` per simulated
  decode token (each part's median run, summed over the parts);
- ``wall_s``: host seconds of scenario build + ``cluster()`` +
  ``requests()`` + ``run`` + ``to_json()``, summed the same way;
- ``setup_s``: median over fresh processes of ``import repro`` through
  every part ready to run (``setup_probe.py``);
- ``peak_rss_mb``: peak resident memory of this process after one pass;
- ``sim.*``: simulated SLO figures pooled over the parts.  They are
  deterministic: every run of a part must give the same digest.

Host times are *reference seconds*: each run is timed between two runs
of a fixed calibration kernel and rescaled to the machine speed at
which that kernel takes ``calibrate.REFERENCE_S`` (see
``calibrate.py``; raw seconds are kept in the results file).  On a
shared VM whose speed drifts by up to ~1.8x for minutes at a time this
takes the run-to-run spread of the host metrics from ~0.2-0.3 down to
~0.03-0.05 (IQR/median over workload seeds).

``BENCHMARK.json`` lists ``multi_tenant`` and ``multi_tenant_specdec``.
``reasoning_prod`` runs the same way but is left out: its simulations
last several seconds each, too long for the calibration on either side
to track the host's speed, and one run of it at ~3 host µs per decode
token carries too little traffic for its TTFT percentiles to hold
still across seeds (IQR/median ~0.15-0.2).  Its per-layer ledger
(``--trace 1``) is the only one that exercises KV parking and swapping.

``--trace 1`` (the per-layer ledger): one untraced pass, two passes
under ``layers.LayerTracer`` (whose call counts must repeat exactly)
and one pass with the simulator's own ``TraceConfig`` observability on.
It prints the per-layer metrics and a self-time table of the traced
``ClusterSim.run`` time, and writes the wrapper spans as a Chrome trace.

Every run checks conservation (submitted == completed + rejected +
shed), that the report's decode tokens equal the sum over completed
requests, and that the ``report_digest`` matches every other run of
the same part.  A run that raises or fails a check counts as failed.
Results, the environment record and the traces go to
``perfbench/out/``.  The harness test is
``python3 -m pytest perfbench/test_harness.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh-process samples behind ``setup_s`` (after one discarded
#: warm-up that compiles the bytecode cache).
SETUP_SAMPLES = 5
#: Untimed warm-up run of part 0, as a share of its window: lets lazy
#: imports and allocator growth happen before the timed runs.
WARMUP_SCALE = 1 / 16
#: Passes over the parts per untraced invocation, at least (the digest
#: check needs two runs of each part).
MIN_PASSES = 2

E2E_UNITS = {
    "us_per_decode_token": "us",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim.goodput": "fraction",
    "sim.completed_frac": "fraction",
    "sim.ttft_p50_s": "sim_s",
    "sim.ttft_p95_s": "sim_s",
    "sim.tpot_p50_s": "sim_s",
    "sim.decode_tok_per_s": "tok/sim_s",
    "sim.energy_per_token_j": "J",
    "sim.usd_per_mtok": "USD/Mtok",
}

LAYER_UNITS = {
    "requests.generate.calls": "count",
    "requests.generate.s": "s",
    "platform.prefill.calls": "count",
    "platform.prefill.s": "s",
    "platform.decode_step.calls": "count",
    "platform.decode_step.s": "s",
    "perf_model.decode_step_perf.calls": "count",
    "flops.chunked_prefill_flops.calls": "count",
    "cluster.step_cost.calls": "count",
    "cluster.step_cost.s": "s",
    "specdec.effective_step_cost.calls": "count",
    "costmodel.step_memo_hit_ratio": "ratio",
    "costmodel.prefill_calls_per_request": "ratio",
    "costmodel.self_s": "s",
    "scheduler.admit.calls": "count",
    "scheduler.admit.s": "s",
    "scheduler.advance.calls": "count",
    "scheduler.advance.s": "s",
    "scheduler.enqueue.calls": "count",
    "scheduler.self_s": "s",
    "scheduler.advance_per_kdecode_token": "1/ktok",
    "kvstore.calls": "count",
    "kvstore.self_s": "s",
    "kvstore.acquire_prefix.calls": "count",
    "kvstore.swap_out.calls": "count",
    "kvstore.swap_in.calls": "count",
    "engine.push.calls": "count",
    "engine.pop_batch.calls": "count",
    "engine.events_per_kdecode_token": "1/ktok",
    "engine.self_s": "s",
    "cluster.run.s": "s",
    "cluster.self_s": "s",
    "cluster.self_share": "ratio",
    "report.s": "s",
    "obs.overhead_ratio": "ratio",
    "obs.spans_dropped": "count",
    "trace.overhead_ratio": "ratio",
    "trace.spans_dropped": "count",
    "sim.prefix_hit_rate": "fraction",
    "sim.preemptions": "count",
    "sim.swaps": "count",
    "sim.kv_occupancy": "fraction",
    "sim.prefill_queue.mean_depth": "jobs",
    "sim.mean_queueing_delay_s": "sim_s",
}

#: Layers billed inside ``ClusterSim.run``: their self times sum to
#: the traced run's inclusive time.
RUN_LAYERS = ("costmodel", "scheduler", "kvstore", "engine", "cluster")


class CheckFailed(Exception):
    """A run's output broke one of the benchmark's invariants."""


# ----------------------------------------------------------------------
# One simulated part and its checks
# ----------------------------------------------------------------------
def check_report(report, requests) -> None:
    """Conservation and token accounting of one part."""
    completed, rejected, shed = (
        len(report.completed), len(report.rejected), len(report.shed)
    )
    if len(requests) != completed + rejected + shed:
        raise CheckFailed(
            f"conservation: submitted {len(requests)} != completed {completed}"
            f" + rejected {rejected} + shed {shed}"
        )
    decode_len = {r.request_id: r.decode_len for r in requests}
    expected = sum(decode_len[rec.request.request_id] for rec in report.completed)
    if report.decode_tokens != expected:
        raise CheckFailed(
            f"decode tokens {report.decode_tokens} != {expected} summed over "
            "completed requests"
        )


def part_figures(report) -> dict:
    """What the pooled simulated metrics need from one part's report."""
    return {
        "ttft": [r.ttft_s for r in report.completed],
        "tpot": [r.tpot_s for r in report.completed],
        "submitted": report.num_submitted,
        "completed": len(report.completed),
        "good": report.goodput * report.num_submitted,
        "tok_per_s": report.arrival_window_tokens_per_s,
        "energy_j": report.total_energy_j,
        "cost_usd": report.cost_usd,
        "decode_tokens": report.decode_tokens,
    }


def sim_metrics(figures: list[dict]) -> dict[str, float]:
    """The simulated end-to-end figures pooled over a run's parts:
    latency percentiles over every completed request, ratios of totals,
    and the mean per-fleet decode throughput."""
    from repro.util.stats import percentile

    def total(key: str) -> float:
        return sum(f[key] for f in figures)

    def pooled(key: str) -> list[float]:
        return [v for f in figures for v in f[key]]

    return {
        "sim.goodput": total("good") / total("submitted"),
        "sim.completed_frac": total("completed") / total("submitted"),
        "sim.ttft_p50_s": percentile(pooled("ttft"), 50),
        "sim.ttft_p95_s": percentile(pooled("ttft"), 95),
        "sim.tpot_p50_s": percentile(pooled("tpot"), 50),
        "sim.decode_tok_per_s": total("tok_per_s") / len(figures),
        "sim.energy_per_token_j": total("energy_j") / total("decode_tokens"),
        "sim.usd_per_mtok": total("cost_usd") / total("decode_tokens") * 1e6,
    }


class Runs:
    """Outcome bookkeeping of one invocation: the attempted/failed tally,
    and the digest and simulated figures every run of a part must
    agree on."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.figures: dict[int, dict] = {}

    def agree(self, part: int, digest: str, figures: dict) -> None:
        if part not in self.digests:
            self.digests[part], self.figures[part] = digest, figures
        elif digest != self.digests[part]:
            raise CheckFailed(
                f"part {part}: report digest {digest} != {self.digests[part]} "
                "of an earlier run"
            )
        elif figures != self.figures[part]:
            raise CheckFailed(f"part {part}: simulated figures differ from an earlier run")

    def digest(self) -> str:
        """One digest over every part's ``report_digest``, in part order."""
        joined = "".join(self.digests[part] for part in sorted(self.digests))
        return hashlib.sha256(joined.encode()).hexdigest()

    def attempt(self, fn, *args, **kwargs):
        """Run ``fn``; a raise or failed check counts as a failed run
        and returns ``None``."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed run is reported, not fatal
            self.failed += 1
            print(f"run {self.attempted} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


def simulate(name: str, offset: int, window: float, *, trace_config=None) -> dict:
    """Build, simulate and serialize one part, timed."""
    from repro.serving.cluster import ClusterSim
    from workloads import build

    t0 = time.perf_counter()
    scenario = build(name, offset, window)
    config = scenario.cluster()
    requests = scenario.requests()
    if trace_config is not None:
        config = dataclasses.replace(config, trace=trace_config)
    t1 = time.perf_counter()
    report = ClusterSim(config).run(requests)
    t2 = time.perf_counter()
    report.to_json()
    t3 = time.perf_counter()
    return {"report": report, "requests": requests, "run_s": t2 - t1, "wall_s": t3 - t0}


def checked_run(
    runs: Runs, name: str, part: int, offset: int, window: float, *, trace_config=None
) -> dict:
    """:func:`simulate`, then check the part against the invariants and
    against every earlier run of it."""
    from repro.serving.engine import report_digest

    result = simulate(name, offset, window, trace_config=trace_config)
    report, requests = result["report"], result.pop("requests")
    check_report(report, requests)
    runs.agree(part, report_digest(report), part_figures(report))
    return {**result, "requests": len(requests), "decode_tokens": report.decode_tokens}


def run_parts(runs: Runs, name: str, layout: list, **kwargs) -> list[dict | None]:
    """One pass over every part (``None`` for a part that failed), each
    timed between two calibrations and converted to reference seconds
    (``ref_run_s``, ``ref_wall_s``)."""
    from calibrate import calibration_s, to_reference

    results = []
    before = calibration_s()
    for part, (offset, window) in enumerate(layout):
        result = runs.attempt(checked_run, runs, name, part, offset, window, **kwargs)
        after = calibration_s()
        if result is not None:
            result["ref_run_s"] = to_reference(result["run_s"], before, after)
            result["ref_wall_s"] = to_reference(result["wall_s"], before, after)
        results.append(result)
        before = after
    return results


# ----------------------------------------------------------------------
# End-to-end (untraced) measurement
# ----------------------------------------------------------------------
def setup_samples(name: str, seed: int, scale: float, samples: int) -> list[dict]:
    """``samples`` fresh-process setup timings (plus one discarded
    warm-up), each from ``setup_probe.py``."""
    cmd = [
        sys.executable, str(HERE / "setup_probe.py"),
        "--workload", name, "--seed", str(seed), "--scale", repr(scale),
    ]
    results = []
    for _ in range(samples + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results[1:]


def measure(name: str, seed: int, seconds: float, scale: float, runs: Runs) -> dict:
    """End-to-end metrics: setup probes, one untimed warm-up, then
    passes over every part until ``seconds`` is spent (at least
    :data:`MIN_PASSES`).  Host times sum each part's median run, in
    reference seconds (``calibrate.py``)."""
    from workloads import parts

    layout = parts(name, seed, scale)
    probes = setup_samples(name, seed, scale, SETUP_SAMPLES)
    offset, window = layout[0]
    simulate(name, offset, window * WARMUP_SCALE)

    samples: list[list[dict]] = [[] for _ in layout]
    peak_rss_mb = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        for part, result in enumerate(run_parts(runs, name, layout)):
            if result is not None:
                del result["report"]
                samples[part].append(result)
        passes += 1
        if passes == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (1 + 1 / passes) > seconds:
            break
    if not all(samples):
        raise SystemExit(f"{name}: a part never completed its checks")
    requests = sum(s[0]["requests"] for s in samples)
    if any(p["requests"] != requests for p in probes):
        raise SystemExit(f"{name}: the setup probe generated different traffic")

    def median_sum(key: str) -> float:
        return sum(statistics.median(r[key] for r in s) for s in samples)

    decode_tokens = sum(s[0]["decode_tokens"] for s in samples)
    metrics = {
        "us_per_decode_token": median_sum("ref_run_s") / decode_tokens * 1e6,
        "wall_s": median_sum("ref_wall_s"),
        "setup_s": statistics.median(p["ref_setup_s"] for p in probes),
        "peak_rss_mb": peak_rss_mb,
        **sim_metrics([runs.figures[part] for part in sorted(runs.figures)]),
    }
    return {
        "metrics": metrics,
        "samples": {
            key: [[r[key] for r in s] for s in samples]
            for key in ("run_s", "ref_run_s", "wall_s", "ref_wall_s")
        } | {"setup_s": probes},
        "requests": requests,
        "decode_tokens": decode_tokens,
    }


# ----------------------------------------------------------------------
# Per-layer (traced) measurement
# ----------------------------------------------------------------------
def traced_pass(runs: Runs, name: str, layout: list) -> dict:
    """One pass over the parts with every layer probe wrapped, report
    calls included; also returns the in-run self seconds per layer."""
    from layers import LayerTracer
    from repro.serving import engine

    with LayerTracer() as tracer:
        before = tracer.layer_self_s()
        results = run_parts(runs, name, layout)
        after = tracer.layer_self_s()
        for result in filter(None, results):
            # What a user reads off a report: figures, table, the pin.
            report = result["report"]
            for q in (50, 95, 99):
                report.ttft_percentile(q)
                report.tpot_percentile(q)
                report.e2e_percentile(q)
            report.summary_table()
            engine.report_digest(report)
    in_run = {
        layer: after.get(layer, 0.0) - before.get(layer, 0.0) for layer in RUN_LAYERS
    }
    return {"results": results, "tracer": tracer, "in_run_self_s": in_run}


def layer_metrics(traced: dict, untraced: list[dict], observed: list[dict]) -> dict[str, float]:
    """The per-layer ledger of one traced pass (totals over its parts).
    Host times are in reference seconds, converted at the pass's mean
    machine speed."""
    tracer = traced["tracer"]
    stats = tracer.stats
    reports = [r["report"] for r in traced["results"]]
    ref = reference_scale(traced["results"])
    ktok = sum(r.decode_tokens for r in reports) / 1000.0
    completed = sum(len(r.completed) for r in reports)
    lookups = sum(r.prefix_lookup_tokens for r in reports)

    def calls(key: str) -> int:
        return stats[key].calls

    def incl(key: str) -> float:
        return stats[key].incl_s * ref

    def mean(values: list[float]) -> float:
        return sum(values) / len(values)

    layer_self = {layer: s * ref for layer, s in tracer.layer_self_s().items()}
    run_s = incl("cluster.run")
    untraced_run_s = sum(r["ref_run_s"] for r in untraced)
    return {
        "requests.generate.calls": calls("requests.generate"),
        "requests.generate.s": incl("requests.generate"),
        "platform.prefill.calls": calls("platform.prefill"),
        "platform.prefill.s": incl("platform.prefill"),
        "platform.decode_step.calls": calls("platform.decode_step"),
        "platform.decode_step.s": incl("platform.decode_step"),
        "perf_model.decode_step_perf.calls": calls("perf_model.decode_step_perf"),
        "flops.chunked_prefill_flops.calls": calls("flops.chunked_prefill_flops"),
        "cluster.step_cost.calls": calls("cluster.step_cost"),
        "cluster.step_cost.s": incl("cluster.step_cost"),
        "specdec.effective_step_cost.calls": calls("specdec.effective_step_cost"),
        "costmodel.step_memo_hit_ratio": (
            1.0 - calls("platform.decode_step") / calls("cluster.step_cost")
        ),
        "costmodel.prefill_calls_per_request": (
            calls("platform.prefill") / sum(r.num_submitted for r in reports)
        ),
        "costmodel.self_s": layer_self["costmodel"],
        "scheduler.admit.calls": calls("scheduler.admit"),
        "scheduler.admit.s": incl("scheduler.admit"),
        "scheduler.advance.calls": calls("scheduler.advance"),
        "scheduler.advance.s": incl("scheduler.advance"),
        "scheduler.enqueue.calls": calls("scheduler.enqueue"),
        "scheduler.self_s": layer_self["scheduler"],
        "scheduler.advance_per_kdecode_token": calls("scheduler.advance") / ktok,
        "kvstore.calls": sum(s.calls for s in stats.values() if s.layer == "kvstore"),
        "kvstore.self_s": layer_self["kvstore"],
        "kvstore.acquire_prefix.calls": calls("kvstore.acquire_prefix"),
        "kvstore.swap_out.calls": calls("kvstore.swap_out"),
        "kvstore.swap_in.calls": calls("kvstore.swap_in"),
        "engine.push.calls": calls("engine.push"),
        "engine.pop_batch.calls": calls("engine.pop_batch"),
        "engine.events_per_kdecode_token": calls("engine.push") / ktok,
        "engine.self_s": layer_self["engine"],
        "cluster.run.s": run_s,
        "cluster.self_s": stats["cluster.run"].self_s * ref,
        "cluster.self_share": stats["cluster.run"].self_s / stats["cluster.run"].incl_s,
        "report.s": layer_self["report"],
        "obs.overhead_ratio": sum(r["ref_run_s"] for r in observed) / untraced_run_s,
        "obs.spans_dropped": sum(r["report"].trace.dropped_spans for r in observed),
        "trace.overhead_ratio": run_s / untraced_run_s,
        "trace.spans_dropped": tracer.spans_dropped,
        "sim.prefix_hit_rate": (
            sum(r.prefix_hit_tokens for r in reports) / lookups if lookups else 0.0
        ),
        "sim.preemptions": sum(r.total_preemptions for r in reports),
        "sim.swaps": sum(r.total_swaps for r in reports),
        "sim.kv_occupancy": mean([r.mean_decode_kv_occupancy for r in reports]),
        "sim.prefill_queue.mean_depth": mean([r.prefill_queue.mean_depth for r in reports]),
        "sim.mean_queueing_delay_s": (
            sum(r.mean_queueing_delay_s * len(r.completed) for r in reports) / completed
        ),
    }


def reference_scale(results: list[dict]) -> float:
    """Reference seconds per host second over a pass."""
    return sum(r["ref_run_s"] for r in results) / sum(r["run_s"] for r in results)


def self_time_table(traced: dict) -> list[dict]:
    """In-run self reference seconds per layer and their share of the
    traced ``ClusterSim.run`` time (the shares sum to 1)."""
    ref = reference_scale(traced["results"])
    run_s = traced["tracer"].stats["cluster.run"].incl_s
    rows = [
        {"layer": layer, "self_s": s * ref, "share": s / run_s}
        for layer, s in traced["in_run_self_s"].items()
    ]
    rows.append({"layer": "ClusterSim.run", "self_s": run_s * ref,
                 "share": sum(r["share"] for r in rows)})
    return rows


def measure_layers(name: str, seed: int, scale: float, runs: Runs) -> dict:
    """Per-layer metrics: an untraced pass, two wrapped passes whose
    call counts must match exactly, and one pass with the simulator's
    own observability on."""
    from repro import TraceConfig
    from workloads import parts

    layout = parts(name, seed, scale)
    untraced = run_parts(runs, name, layout)
    traced = traced_pass(runs, name, layout)
    again = traced_pass(runs, name, layout)
    observed = run_parts(runs, name, layout, trace_config=TraceConfig())
    if None in untraced + traced["results"] + again["results"] + observed:
        raise SystemExit(f"{name}: a traced-mode run failed")
    first, second = traced["tracer"].calls(), again["tracer"].calls()
    if first != second:
        runs.failed += 1
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        print(f"per-layer call counts differ between passes of one seed: {diff}",
              file=sys.stderr)
    reports = [r["report"] for r in traced["results"]]
    return {
        "metrics": layer_metrics(traced, untraced, observed),
        "self_time": self_time_table(traced),
        "calls": first,
        "tracer": traced["tracer"],
        "requests": sum(r.num_submitted for r in reports),
        "decode_tokens": sum(r.decode_tokens for r in reports),
    }


# ----------------------------------------------------------------------
# Environment record and entry point
# ----------------------------------------------------------------------
def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no git process); the
    benchmark may run from an exported tree that has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY", ""),
        "commit": git_commit(),
        "workload_seed": seed,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 reproduces the preset seeds")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="time budget of the timed untraced runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer ledger instead of end-to-end metrics")
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)

    runs = Runs()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = measure_layers(args.workload, args.seed, args.scale, runs)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        result.pop("tracer").write_chrome_trace(trace_path, args.workload)
        units = LAYER_UNITS
        print(f"{'layer':<16}{'self ref-s':>12}{'share':>8}")
        for row in result["self_time"]:
            print(f"{row['layer']:<16}{row['self_s']:>12.4f}{row['share']:>8.1%}")
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
    else:
        result = measure(args.workload, args.seed, args.seconds, args.scale, runs)
        units = E2E_UNITS
    print(f"report digest: {runs.digest()}")

    record = {"workload": args.workload, "env": environment(args.seed),
              "digest": runs.digest(), "part_digests": runs.digests,
              "attempted": runs.attempted,
              "failed": runs.failed, **result}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
