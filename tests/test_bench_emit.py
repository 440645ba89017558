"""The ``BENCH_*.json`` emitter: a smaller run never clobbers a
full-scale record, and every record names the machine and commit."""

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


class TestEnvironment:
    def test_payload_records_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
        env = _emit.bench_payload("x", {"mode": "smoke"}, {})["environment"]
        assert set(env) == {"python", "cpu", "nproc", "commit", "numpy"}
        assert env["python"].count(".") == 2
        assert isinstance(env["nproc"], int) and env["nproc"] >= 1
        assert env["cpu"]
        assert env["numpy"] is (importlib.util.find_spec("numpy") is not None)

    def test_numpy_off_under_repro_no_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert _emit.environment()["numpy"] is False

    def test_commit_read_from_git_dir(self, tmp_path):
        sha = "0123456789abcdef0123456789abcdef01234567"
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "refs" / "heads" / "main").write_text(sha + "\n")
        assert _emit.git_commit(tmp_path) == sha
        (git / "refs" / "heads" / "main").unlink()
        (git / "packed-refs").write_text(f"# pack-refs\n{sha} refs/heads/main\n")
        assert _emit.git_commit(tmp_path) == sha
        (git / "HEAD").write_text(sha + "\n")  # detached
        assert _emit.git_commit(tmp_path) == sha

    def test_commit_outside_a_checkout(self, tmp_path):
        assert _emit.git_commit(tmp_path) == "unknown"
