"""The benchmark (``perfbench/``) names chorkit functions by module and
attribute: the tracer to count and time them, the ``verify`` workload to
time each report.  A rename in chorkit, or a check that stops being called
through its module global, must fail here, not only in a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

from chorkit import verify
from chorkit.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    for module_name, attr, _ in _perfbench_module("tracer").TARGETS:
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
    tracer = _perfbench_module("tracer").Tracer()
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


def test_each_report_is_one_call_of_a_timed_check(monkeypatch):
    # The verify workload times a report by wrapping the check functions
    # it names on ``chorkit.verify``, and pairs latencies with reports in
    # order.
    names = _perfbench_module("workloads")._CHECKS
    returned, called = [], set()
    for name in names:
        def wrapper(*args, name=name, fn=getattr(verify, name), **kwargs):
            report = fn(*args, **kwargs)
            returned.append(report)
            called.add(name)
            return report
        monkeypatch.setattr(verify, name, wrapper)
    reports = verify.verify_corpus(set(verify.THEOREMS),
                                   verify.CorpusSpec(count=4), depth=2)
    assert len(returned) == len(reports) == 4 * 8 + 1
    assert all(a is b for a, (_, b) in zip(returned, reports))
    assert called == set(names)
