"""The benchmark replay's hold on the library, checked without running the benchmark.

``perfbench/replay.py`` wraps library names on ``poollab.cli`` and on the
modules that define them.  A name that is renamed, removed or no longer
exported breaks the traced benchmark run; this test finds that first.
"""

import importlib.util
import sys
from pathlib import Path

import poollab
import poollab.cli as cli
import poollab.runlog as runlog
import poollab.scaling as scaling
import poollab.theory as theory

REPLAY = Path(__file__).resolve().parent.parent / "perfbench" / "replay.py"

#: The modules whose names the replay may replace, and the modules it imports by name.
WRAPPED_MODULES = (cli, runlog, scaling, theory)
REPLAY_IMPORTS = ("tracing", "workloads")


def test_every_wrapped_name_resolves_and_is_restored(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the replay puts perfbench/ first
    imported = set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_replay", REPLAY)
        replay = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(replay)
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
    finally:
        for name in REPLAY_IMPORTS:
            if name not in imported:
                sys.modules.pop(name, None)
