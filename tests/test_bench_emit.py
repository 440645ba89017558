"""The ``BENCH_*.json`` emitter: a smaller run never clobbers a
full-scale record."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "_emit", Path(__file__).resolve().parents[1] / "benchmarks" / "_emit.py"
)
_emit = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_emit)


def _mode(path):
    return json.loads(path.read_text())["config"]["mode"]


class TestWriteBenchJson:
    def test_smoke_refuses_to_overwrite_full(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        _emit.write_bench_json(path, "x", {"mode": "full"}, {"n": 1})
        before = path.read_text()
        with pytest.raises(ValueError, match="BENCH_x.json"):
            _emit.write_bench_json(path, "x", {"mode": "smoke"}, {"n": 2})
        with pytest.raises(ValueError, match="BENCH_x.json"):
            _emit.write_bench_json(path, "x", {}, {"n": 3})
        assert path.read_text() == before

    def test_full_and_smoke_overwrite_as_usual(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        _emit.write_bench_json(path, "x", {"mode": "smoke"}, {"n": 1})
        _emit.write_bench_json(path, "x", {"mode": "smoke"}, {"n": 2})
        assert _mode(path) == "smoke"
        _emit.write_bench_json(path, "x", {"mode": "full"}, {"n": 3})
        _emit.write_bench_json(path, "x", {"mode": "full"}, {"n": 4})
        assert _mode(path) == "full"
        assert json.loads(path.read_text())["metrics"] == {"n": 4}
