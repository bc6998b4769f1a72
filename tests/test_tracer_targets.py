import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_every_tracer_target_exists(monkeypatch):
    # Tracer.install skips a name the program no longer defines, so a renamed
    # function would silently read 0 in every per-layer metric that traces it.
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # dataclasses look their module up here
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing._targets() if attr not in owner.__dict__]
    assert missing == []
