"""Tests for :mod:`repro.serving.contracts` (runtime purity contracts).

The decorators are import-time no-ops unless ``REPRO_CHECK`` is set, so
these tests exercise the always-on wrappers (:func:`checked_probe`,
:func:`checked_mutator`) directly, plus a subprocess leg that proves the
digest oracle is bit-identical with the contract mode enabled.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.models.llama3 import LLAMA3_8B
from repro.serving.cluster import RequestRecord
from repro.serving.contracts import (
    _MAX_DEPTH,
    PurityViolation,
    checked_mutator,
    checked_probe,
    contracts_enabled,
    fingerprint,
    mutates,
    pure_probe,
)
from repro.serving.requests import Request, RequestTable

REPO = Path(__file__).parents[2]


class Box:
    def __init__(self) -> None:
        self.items: list[int] = []
        self.total = 0.0


class SlottedBox:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 1


class MemoBox:
    _contract_exempt = frozenset({"cache"})

    def __init__(self) -> None:
        self.cache: dict[int, int] = {}
        self.real = 0


class TestFingerprint:
    def test_detects_list_mutation(self):
        box = Box()
        before = fingerprint(box)
        box.items.append(1)
        assert fingerprint(box) != before

    def test_detects_attribute_write(self):
        box = Box()
        before = fingerprint(box)
        box.total = 2.5
        assert fingerprint(box) != before

    def test_detects_dict_and_slot_state(self):
        d = {"a": [1, 2]}
        before = fingerprint(d)
        d["a"].append(3)
        assert fingerprint(d) != before
        s = SlottedBox()
        before = fingerprint(s)
        s.value = 2
        assert fingerprint(s) != before

    def test_stable_when_unchanged(self):
        box = Box()
        box.items.extend([1, 2, 3])
        assert fingerprint(box) == fingerprint(box)

    def test_exempt_attributes_are_invisible(self):
        box = MemoBox()
        before = fingerprint(box)
        box.cache[1] = 1  # benign memo fill
        assert fingerprint(box) == before
        box.real = 1
        assert fingerprint(box) != before

    def test_cycles_terminate(self):
        a: list[object] = []
        a.append(a)
        assert fingerprint(a) == fingerprint(a)

    def test_nan_state_is_stable(self):
        box = Box()
        box.total = float("nan")
        assert fingerprint(box) == fingerprint(box)

    def test_set_order_is_canonical(self):
        assert fingerprint({1, 2, 3}) == fingerprint({3, 2, 1})

    def test_shared_object_reached_deep_first_is_still_walked(self):
        """``box`` is first reached one level above the depth cap, so
        its own walk is cut; reached again near the root it must be
        walked in full, not stood in for by a reference."""
        box = Box()
        box.items.append(0)
        deep: list[object] = [box]
        for _ in range(_MAX_DEPTH - 3):
            deep = [deep]
        root = [deep, box]
        before = fingerprint(root)
        box.items[0] = 1
        assert fingerprint(root) != before

    def test_table_column_write_is_caught_through_a_second_view(self):
        """Record views share one table, which the walk renders once;
        a write to the second view's row must still show."""
        table = RequestTable(
            [Request(i, 0.0, LLAMA3_8B, 128, 16) for i in range(2)]
        )
        views = [RequestRecord(table=table, row=row) for row in range(2)]
        before = fingerprint(views)
        views[1].completed_s = 1.5
        assert fingerprint(views) != before
        assert table.completed_s[1] == pytest.approx(1.5)

    def test_shared_table_is_walked_once(self):
        """Linear walk: each extra view adds a constant-size reference,
        not another copy of the table."""
        table = RequestTable(
            [Request(i, 0.0, LLAMA3_8B, 128, 16) for i in range(50)]
        )
        views = [RequestRecord(table=table, row=row) for row in range(50)]
        assert repr(fingerprint(views)).count("'RequestTable'") == 1


class TestCheckedProbe:
    def test_pure_probe_passes(self):
        @checked_probe
        def probe(box):
            return len(box.items)

        assert probe(Box()) == 0

    def test_impure_probe_raises(self):
        def probe(box):
            box.items.append(1)
            return True

        with pytest.raises(PurityViolation, match="mutated argument 'box'"):
            checked_probe(probe)(Box())

    def test_violation_names_the_mutated_argument(self):
        def probe(left, right):
            right.total += 1.0
            return True

        with pytest.raises(PurityViolation, match="'right'"):
            checked_probe(probe)(Box(), Box())

    def test_state_shared_between_arguments_is_still_checked(self):
        """Watched arguments share one walk, so ``inner`` renders under
        ``outer``; a write through ``inner`` must still be caught."""

        def probe(outer, inner):
            inner.total += 1.0
            return True

        outer = Box()
        inner = Box()
        outer.items.append(inner)
        with pytest.raises(PurityViolation, match="'outer'"):
            checked_probe(probe)(outer, inner)

    def test_watch_restricts_fingerprinting(self):
        def probe(box, scratch):
            scratch.append(1)  # deliberately outside the watch set
            return len(box.items)

        wrapped = checked_probe(probe, watch=("box",))
        assert wrapped(Box(), []) == 0

    def test_mutator_under_probe_raises(self):
        @checked_mutator
        def bump(box):
            box.total += 1.0

        @checked_probe
        def probe(box):
            bump(box)

        with pytest.raises(PurityViolation, match="inside a pure probe"):
            probe(Box())

    def test_mutator_outside_probe_is_fine(self):
        @checked_mutator
        def bump(box):
            box.total += 1.0

        box = Box()
        bump(box)
        assert box.total == pytest.approx(1.0)


class TestDecoratorsWhenOff:
    """With ``REPRO_CHECK`` unset (the tier-1 default) both decorators
    only attach marker attributes."""

    def test_mode_reflects_environment(self):
        expected = os.environ.get("REPRO_CHECK", "") not in ("", "0")
        assert contracts_enabled() is expected

    def test_pure_probe_attaches_marker(self):
        @pure_probe
        def probe(x):
            return x

        assert probe.__simlint_pure__ is True
        assert probe(7) == 7

    def test_pure_probe_parameterized_form(self):
        @pure_probe(watch=("x",))
        def probe(x, y):
            return x

        assert probe.__simlint_pure__ is True
        assert probe(1, 2) == 1

    def test_mutates_attaches_marker(self):
        @mutates
        def bump(box):
            box.total += 1.0

        assert bump.__simlint_mutates__ is True


class TestReproCheckSubprocess:
    def test_digest_identical_under_repro_check(self):
        """One pinned scenario, digested with the contract mode off and
        on (``full`` -- every probe call fingerprinted): bit-identical.
        The full 12+ scenario sweep runs in CI's REPRO_CHECK leg."""
        script = (
            "import importlib.util, sys\n"
            "sys.path.insert(0, 'src')\n"
            "spec = importlib.util.spec_from_file_location(\n"
            "    'te', 'tests/serving/test_engine.py')\n"
            "mod = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(mod)\n"
            "config, requests = mod.SCENARIOS['fifo_paged']()\n"
            "print(mod.report_digest(mod.simulate(config, requests)))\n"
        )
        digests = {}
        for mode in (None, "full"):
            env = {k: v for k, v in os.environ.items() if k != "REPRO_CHECK"}
            if mode is not None:
                env["REPRO_CHECK"] = mode
            out = subprocess.run(
                [sys.executable, "-c", script],
                cwd=REPO,
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            digests[mode] = out.stdout.strip()
        assert digests[None] == digests["full"]
        assert digests[None], "digest subprocess produced no output"
