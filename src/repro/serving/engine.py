"""Discrete-event engine: the calendar and loop under the fleet sim.

:mod:`repro.serving.cluster` used to inline a ``heapq`` loop with a
string of ``if kind == ...`` branches; this module is that loop pulled
out as infrastructure, so the simulator reads as *handlers per event
kind* and the event plumbing is testable (and swappable) on its own.

Two pieces:

- :class:`EventCalendar` -- a min-heap of ``(when, seq, kind, payload)``
  events that drains in *batches*: :meth:`EventCalendar.pop_batch`
  removes every event at the earliest timestamp at once.  The batch is
  **live**: events pushed at exactly the open batch's timestamp while
  the consumer is still iterating are appended to it, in push order --
  byte-for-byte the interleaving a one-pop-at-a-time heap loop would
  produce, because ``seq`` is monotone and the heap orders equal
  timestamps by ``seq``.  (An event can never be pushed *before* the
  open timestamp; that would be travel into the past.)
- :func:`run_loop` -- the generic drive loop: pop a batch, filter stale
  events, advance the clock, dispatch through a handler *table* indexed
  by event kind (no if/elif chain), and run a per-event follow-up (the
  cluster's prefill-queue drain).  Returns the clock of the last
  handled event.

:func:`report_digest` is the equivalence oracle the engine refactor is
pinned by: a SHA-256 over every request's full lifecycle record plus
the serialized report, with floats rendered by ``repr`` (shortest
round-trip -- exact).  Two reports share a digest iff the simulated
histories are bit-identical.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections.abc import Callable, Iterator, Sequence
from typing import TYPE_CHECKING

from repro.serving.contracts import mutates

if TYPE_CHECKING:
    from repro.serving.cluster import ClusterReport, RequestRecord

#: One scheduled event: (when, seq, kind, payload).  ``seq`` is the
#: global push counter -- the tie-break that makes simultaneous events
#: fire in schedule order.
Event = tuple[float, int, int, object]


class EventCalendar:
    """Min-heap event calendar with same-timestamp batch draining."""

    __slots__ = ("_heap", "_seq", "_open_when", "_open_batch", "cursor")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0
        self._open_when = float("nan")  # nan: == matches no timestamp
        self._open_batch: list[Event] | None = None
        #: Index of the event currently being dispatched within the
        #: open batch (maintained by :func:`run_loop`); lets
        #: :meth:`next_when` see same-timestamp events still pending.
        self.cursor = 0

    def __len__(self) -> int:
        pending = len(self._heap)
        if self._open_batch is not None:
            pending += len(self._open_batch)
        return pending

    def __bool__(self) -> bool:
        return bool(self._heap)

    @mutates
    def push(self, when: float, kind: int, payload: object) -> None:
        """Schedule an event.  Pushes at exactly the open batch's
        timestamp join that batch (see :meth:`pop_batch`); anything
        later goes back on the heap."""
        self._seq += 1
        event = (when, self._seq, kind, payload)
        if when == self._open_when:
            self._open_batch.append(event)
        else:
            heapq.heappush(self._heap, event)

    def next_when(self) -> float | None:
        """Timestamp of the next event that will be dispatched after the
        one currently in flight, or ``None`` if the calendar is drained.

        Same-timestamp events still pending in the open batch count: a
        handler probing this mid-batch sees its own timestamp, which
        tells fast-path consumers (the cluster's bulk decode lane) that
        another actor acts *now* and they must not leap ahead.
        """
        batch = self._open_batch
        if batch is not None and self.cursor + 1 < len(batch):
            return self._open_when
        return self._heap[0][0] if self._heap else None

    def open_batch_pending(self) -> bool:
        """True while same-timestamp events beyond the one in flight
        remain in the open batch."""
        batch = self._open_batch
        return batch is not None and self.cursor + 1 < len(batch)

    def pending_events(self) -> Iterator[tuple[float, int, object]]:
        """Unordered iterator over scheduled-but-unpopped events as
        ``(when, kind, payload)`` -- the heap only, never the open
        batch (check :meth:`open_batch_pending` first).  Read-only
        introspection for fast-path consumers sizing how far they can
        run before another actor acts."""
        for when, _seq, kind, payload in self._heap:
            yield when, kind, payload

    @mutates
    def pop_batch(self) -> tuple[float, list[Event]]:
        """Remove and return ``(when, events)`` -- every event at the
        earliest timestamp, in ``seq`` order.

        The returned list is *live* until the next ``pop_batch``:
        same-timestamp pushes made while iterating are appended, so a
        ``for`` loop over it sees them exactly where a single-pop heap
        loop would have.  Iterate with a plain ``for``; don't copy.
        """
        heap = self._heap
        when = heap[0][0]
        batch: list[Event] = []
        while heap and heap[0][0] == when:
            batch.append(heapq.heappop(heap))
        self._open_when = when
        self._open_batch = batch
        return when, batch


def run_loop(
    calendar: EventCalendar,
    handlers: Sequence[Callable[[float, object], None]],
    *,
    stale: Callable[[int, object], bool] | None = None,
    after: Callable[[float], None] | None = None,
    observe: Callable[[float, int], None] | None = None,
) -> float:
    """Drain ``calendar`` to empty; returns the last handled clock.

    ``handlers`` is the dispatch table: one callable per event kind,
    indexed by the kind integer, called as ``handler(now, payload)``.
    ``stale(kind, payload)`` -- when true the event is dropped *before*
    it advances the clock (so a stale wake-up cannot stretch the run's
    reported duration).  ``after(now)`` runs once per handled event --
    the cluster hangs its prefill-queue drain here, preserving the old
    loop's handle-then-drain cadence event for event.  ``observe(now,
    kind)`` runs last, once per handled event: a read-only telemetry
    boundary (the cluster's metric sampling) that must not mutate
    simulator state -- ``None`` (the default) costs nothing.
    """
    last_time = 0.0
    while calendar:
        now, batch = calendar.pop_batch()
        # Index loop, not ``for``: the batch is live (same-timestamp
        # pushes append mid-iteration) and ``cursor`` must track the
        # event in flight for :meth:`EventCalendar.next_when`.
        i = 0
        while i < len(batch):
            event = batch[i]
            calendar.cursor = i
            i += 1
            kind = event[2]
            if stale is not None and stale(kind, event[3]):
                continue
            if now > last_time:
                last_time = now
            handlers[kind](now, event[3])
            if after is not None:
                after(now)
            if observe is not None:
                observe(now, kind)
    return last_time


# ----------------------------------------------------------------------
# Equivalence oracle
# ----------------------------------------------------------------------
#: Field names of one lifecycle record, in digest order.
_RECORD_FIELDS = (
    "request_id", "arrival_s", "model", "prompt_len", "decode_len",
    "priority", "prefix_id", "prefix_len", "tenant", "rejected", "shed",
    "prefill_pod", "decode_pod", "prefill_start_s", "prefill_end_s",
    "transfer_end_s", "admitted_s", "first_token_s", "completed_s",
    "num_preemptions", "num_swaps", "cached_prefix_tokens",
    "resume_tokens", "queue_wait_s",
)


def _record_fields(r: "RequestRecord") -> tuple[str, ...]:
    """One request's lifecycle, canonically rendered field by field
    (see :data:`_RECORD_FIELDS`).  ``repr`` on floats is exact
    (shortest round-trip), so two renderings match iff the histories
    are bit-identical."""
    q = r.request
    fields = (
        q.request_id, repr(q.arrival_s), q.model.name, q.prompt_len,
        q.decode_len, q.priority, q.prefix_id, q.prefix_len, q.tenant,
        int(r.rejected), int(r.shed), r.prefill_pod, r.decode_pod,
        repr(r.prefill_start_s), repr(r.prefill_end_s),
        repr(r.transfer_end_s), repr(r.admitted_s),
        repr(r.first_token_s), repr(r.completed_s),
        r.num_preemptions, r.num_swaps, r.cached_prefix_tokens,
        r.resume_tokens, repr(r.queue_wait_s),
    )
    return tuple(str(f) for f in fields)


def _record_groups(
    report: "ClusterReport",
) -> tuple[tuple[str, Sequence["RequestRecord"]], ...]:
    return (
        ("completed", report.completed),
        ("rejected", report.rejected),
        ("shed", report.shed),
    )


def report_digest(report: "ClusterReport") -> str:
    """SHA-256 hex digest of a :class:`~repro.serving.cluster.ClusterReport`.

    Covers every completed/rejected/shed record's full lifecycle (in
    report order -- event order is part of what's pinned) and the
    ``to_json()`` serialization (pod stats, queue stats, tenants,
    scaling events).  The engine-refactor regression tests pin these
    strings: any behavioral drift -- a reordered tie-break, a float
    accumulated in a different order -- changes the digest.
    """
    h = hashlib.sha256()
    for _, group in _record_groups(report):
        for r in group:
            h.update("|".join(_record_fields(r)).encode())
            h.update(b"\n")
        h.update(b"--\n")
    h.update(json.dumps(report.to_json(), sort_keys=True).encode())
    return h.hexdigest()


def report_diff(a: "ClusterReport", b: "ClusterReport") -> str | None:
    """Where two reports first diverge, or ``None`` when their
    :func:`report_digest` inputs are identical.

    Records are compared first, group by group in digest order: the
    first mismatch is named as ``group[index] request_id field: a != b``
    (``field`` is ``<record count>`` when one group runs out first).
    With every record equal, the first differing ``to_json()`` key path
    is named, e.g. ``to_json.pod_stats[1].busy_s: a != b``."""
    for (group, records_a), (_, records_b) in zip(_record_groups(a), _record_groups(b)):
        for index, (ra, rb) in enumerate(zip(records_a, records_b)):
            fa, fb = _record_fields(ra), _record_fields(rb)
            for name, va, vb in zip(_RECORD_FIELDS, fa, fb):
                if va != vb:
                    return f"{group}[{index}] {fa[0]} {name}: {va} != {vb}"
        if len(records_a) != len(records_b):
            index = min(len(records_a), len(records_b))
            extra = (records_a if len(records_a) > index else records_b)[index]
            return (
                f"{group}[{index}] {extra.request.request_id} <record count>: "
                f"{len(records_a)} != {len(records_b)}"
            )
    return _json_diff("to_json", a.to_json(), b.to_json())


_MISSING = "<missing>"


def _json_diff(path: str, a: object, b: object) -> str | None:
    """First differing key path of two JSON-shaped values (keys in
    sorted order, as the digest serializes them)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            found = _json_diff(f"{path}.{key}", a.get(key, _MISSING), b.get(key, _MISSING))
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for index, (va, vb) in enumerate(zip(a, b)):
            found = _json_diff(f"{path}[{index}]", va, vb)
            if found is not None:
                return found
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        return None
    if json.dumps(a) != json.dumps(b):
        return f"{path}: {a!r} != {b!r}"
    return None
