"""The benchmark's span tracer still finds every function it wraps by name."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = {module: dict(vars(module)) for module in spans.MODULES}
    tracer = spans.Tracer()
    try:
        # Raises AttributeError if a traced name is gone from the package.
        tracer.install()
        patched = list(tracer._patched)
        for owner, attr, _, _ in spans.TARGETS:
            assert getattr(owner, attr) is not before[owner][attr]
    finally:
        tracer.uninstall()
    assert len(patched) >= len(spans.TARGETS)
    for module, key, value in patched:
        assert getattr(module, key) is value
    for module, attrs in before.items():
        assert all(vars(module)[key] is value for key, value in attrs.items())
