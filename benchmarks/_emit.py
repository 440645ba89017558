"""Shared machine-readable emitter for the ``BENCH_*.json`` artifacts.

Every serving benchmark that publishes numbers (``bench_sim_speed``,
``bench_fleet_ops``, ``bench_kv_hierarchy``, ``bench_prefill_queue``)
writes the same envelope instead of hand-rolling its own top level::

    {
      "schema_version": 1,
      "bench": "sim_speed",
      "config": {...},              # the knobs that shaped the run
      "config_fingerprint": "...",  # short stable hash of "config"
      "environment": {...},         # machine and commit that ran it
      "metrics": {...}              # the bench's own payload
    }

``config`` is the small JSON dict of parameters that determine what was
measured (mode, scale, sweep ranges) -- enough for a reader of the
artifact to tell two runs apart without diffing ``metrics``.  The
fingerprint is a prefix of the SHA-256 over the sorted-key JSON, so the
same knobs always produce the same tag regardless of dict ordering.
``environment`` records what produced the numbers: Python version,
CPU model, usable CPUs, the checkout's commit and whether the numpy
fast paths were on.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BENCH_SCHEMA_VERSION = 1

_FINGERPRINT_CHARS = 16


def config_fingerprint(config: dict[str, object]) -> str:
    """Short stable fingerprint of a bench's configuration dict.

    ``config`` must be JSON-serializable; pass the plain parameter dict
    that defines the run, not live simulator objects.
    """
    blob = json.dumps(config, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:_FINGERPRINT_CHARS]


def git_commit(root: Path = ROOT) -> str:
    """HEAD of the checkout at ``root``, read from ``.git`` without
    running git; ``"unknown"`` outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    """The CPU's model name (``/proc/cpuinfo`` on Linux)."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict[str, object]:
    """The machine and checkout a bench ran on."""
    nproc = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    )
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": nproc,
        "commit": git_commit(),
        "numpy": importlib.util.find_spec("numpy") is not None
        and not os.environ.get("REPRO_NO_NUMPY"),
    }


def bench_payload(
    bench: str,
    config: dict[str, object],
    metrics: dict[str, object],
) -> dict[str, object]:
    """The shared ``BENCH_*.json`` envelope as a dict."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": bench,
        "config": config,
        "config_fingerprint": config_fingerprint(config),
        "environment": environment(),
        "metrics": metrics,
    }


def write_bench_json(
    path: Path,
    bench: str,
    config: dict[str, object],
    metrics: dict[str, object],
) -> None:
    """Write the envelope to ``path`` (trailing newline included).

    A full-scale record is never replaced by a smaller run: when
    ``path`` holds a record whose ``config.mode`` is ``"full"`` and
    ``config`` does not, this raises ``ValueError`` and leaves the file
    as it is.
    """
    if config.get("mode") != "full" and path.exists():
        old = json.loads(path.read_text()).get("config", {})
        if old.get("mode") == "full":
            raise ValueError(
                f"{path} holds a mode='full' record; refusing to overwrite "
                f"it with a mode={config.get('mode')!r} run"
            )
    payload = bench_payload(bench, config, metrics)
    path.write_text(json.dumps(payload, indent=2) + "\n")
