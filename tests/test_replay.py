"""The benchmark replay's hold on the library, checked without running the benchmark.

``perfbench/replay.py`` wraps library names on ``poollab.cli`` and on the
modules that define them.  A name that is renamed, removed or no longer
exported, or a wrapped name that a handler calls in a way its wrapper does
not take, breaks the traced benchmark run; these tests find that first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import poollab
import poollab.cli as cli
import poollab.runlog as runlog
import poollab.scaling as scaling
import poollab.theory as theory
from poollab import Document, write_documents

REPLAY = Path(__file__).resolve().parent.parent / "perfbench" / "replay.py"

#: The modules whose names the replay may replace, and the modules it imports by name.
WRAPPED_MODULES = (cli, runlog, scaling, theory)
REPLAY_IMPORTS = ("tracing", "workloads")


@pytest.fixture
def replay(monkeypatch):
    """``perfbench/replay.py``, loaded as a module; the modules it imports are unloaded after."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the replay puts perfbench/ first
    imported = set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_replay", REPLAY)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        for name in REPLAY_IMPORTS:
            if name not in imported:
                sys.modules.pop(name, None)


def test_every_wrapped_name_resolves_and_is_restored(replay):
    originals = replay.install(replay.Tracer())  # getattr of a name that is gone raises
    try:
        assert originals
        for module, name, original in originals:
            assert any(module is m for m in WRAPPED_MODULES), (module, name)
            assert getattr(module, name) is not original, f"{module.__name__}.{name}"
            if module is cli:
                assert original is getattr(poollab, name), f"poollab.cli.{name}"
            else:
                assert original.__module__ == module.__name__, f"{module.__name__}.{name}"
    finally:
        replay.restore(originals)
    for module, name, original in originals:
        assert getattr(module, name) is original, f"{module.__name__}.{name}"


def test_judge_config_is_checked_under_the_replays_wrappers(replay, tmp_path, monkeypatch):
    # the replay wraps mock_judge_client with a required classify, so checking
    # a judge config must build its client some other way
    monkeypatch.chdir(tmp_path)
    write_documents(tmp_path / "p.jsonl", [Document("d0", "the answer")])
    (tmp_path / "qa.jsonl").write_text(json.dumps(
        {"subject": "s", "question": "q", "answer": "answer", "keywords": ["answer"]}) + "\n",
        encoding="utf-8")
    (tmp_path / "c.json").write_text('{"timeout": 5}', encoding="utf-8")
    originals = replay.install(replay.Tracer())
    try:
        assert cli.dispatch(["judge", "--mock", "--qa", "qa.jsonl", "--pool", "p.jsonl",
                             "--config", "c.json", "--output", "j.jsonl"]) == 0
    finally:
        replay.restore(originals)
