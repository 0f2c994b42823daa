"""The benchmark's tracer (perfbench/tracer.py) wraps every public function of
the package by name, so a renamed or deleted function it hooks, or a
module-level name bound to None, breaks only the traced benchmark runs. This
keeps its contract under the plain test suite."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_hooked_function_and_restores_all():
    tracer = load_tracer()
    traced = tracer.Tracer()
    try:
        unwrapped = traced.install()
        wrapped = set(traced.names)
    finally:
        still_wrapped = traced.restore()
    assert unwrapped == []
    assert still_wrapped == []
    named = set(tracer.HOOKS) | set(tracer.WRITERS)
    assert sorted(named - wrapped) == []
