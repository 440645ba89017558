"""Shared machine-readable emitter for the ``BENCH_*.json`` artifacts.

Every serving benchmark that publishes numbers (``bench_sim_speed``,
``bench_fleet_ops``, ``bench_kv_hierarchy``, ``bench_prefill_queue``)
writes the same envelope instead of hand-rolling its own top level::

    {
      "schema_version": 1,
      "bench": "sim_speed",
      "config": {...},              # the knobs that shaped the run
      "config_fingerprint": "...",  # short stable hash of "config"
      "metrics": {...}              # the bench's own payload
    }

``config`` is the small JSON dict of parameters that determine what was
measured (mode, scale, sweep ranges) -- enough for a reader of the
artifact to tell two runs apart without diffing ``metrics``.  The
fingerprint is a prefix of the SHA-256 over the sorted-key JSON, so the
same knobs always produce the same tag regardless of dict ordering.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

BENCH_SCHEMA_VERSION = 1

_FINGERPRINT_CHARS = 16


def config_fingerprint(config: dict[str, object]) -> str:
    """Short stable fingerprint of a bench's configuration dict.

    ``config`` must be JSON-serializable; pass the plain parameter dict
    that defines the run, not live simulator objects.
    """
    blob = json.dumps(config, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:_FINGERPRINT_CHARS]


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
