"""The benchmark's tracer (``perfbench/tracer.py``) names chorkit functions
by module and attribute.  A rename in chorkit must fail here, not only in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from chorkit.cli import main

TRACER_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    for module_name, attr, _ in _tracer_module().TARGETS:
        owner = importlib.import_module(f"chorkit.{module_name}")
        for part in attr.split("."):
            assert part in vars(owner), f"chorkit.{module_name}.{attr}"
            owner = vars(owner)[part]
        assert callable(owner), f"chorkit.{module_name}.{attr}"


def test_trace_rendering_is_charged_to_render(tmp_path, capsys):
    # The tracer charges render time by the span it runs under, and counts
    # the characters each outermost render span returns: every trace line
    # must come from a traced render function.
    path = tmp_path / "chain.mc"
    path.write_text("p.1 -> q; q.2 -> r; r.3 -> p; 0")
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        assert main(["run", str(path), "--mode", "async"]) == 0
    finally:
        tracer.uninstall()
    lines = capsys.readouterr().out.splitlines()[:-1]
    metrics = tracer.metrics()
    assert metrics["run.steps"][0] == len(lines) == 6
    assert metrics["render.trace.self_s"][0] > 0
    assert metrics["render.chars"][0] >= sum(map(len, lines))
