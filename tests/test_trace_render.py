"""Trace text: pinned output of ``run``/``simulate``, and agreement of the
trace renderer with one-shot rendering."""

import hashlib
import importlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from chorkit import (
    Configuration,
    epp_async,
    epp_sync,
    format_trace,
    make_scheduler,
    parse_choreography,
    parse_network,
    pn,
    projectable,
    render,
    render_value,
    run_chor,
    run_network,
)
from chorkit.cli import main
from chorkit.terms import interning
from chorkit.verify import CorpusSpec, _random_program, default_state

# A straight-line chain of 40 communications over four processes, with
# expressions that need parentheses and one that stores a boolean.
CHAIN = "".join(
    f"{'pqrs'[i % 4]}."
    + ("not (@ < 3)" if i == 17 else f"(@ + {i}) * 2 - {i % 5}")
    + f" -> {'pqrs'[(i + 1 + i % 2) % 4]}; "
    for i in range(40)) + "0\n"
RING = "def X = { p.@ + 1 -> q; q.@ * 2 -> r; r.@ - 3 -> p; X } in X\n"
# p sends and never receives, so leftmost async simulation piles its
# messages up in the queues of q and r.
PRODUCER = "def X = { p.@ + 1 -> q; p.@ * 3 -> r; X } in X\n"

# p is done after its send, but q names it until its guard picks the then
# branch, so p stays until that step and goes with it.
NAMED_WHILE_DONE = ("p[0]{ q!1; 0 } | q[0]{ p?; r!@; "
                    "if @ = 1 then { r!2; 0 } else { p?; 0 } } "
                    "| r[0]{ q?; q?; 0 }")

# (program, steps) for run and simulate under each mode, scheduler and
# trace format.
PINNED = ((CHAIN, 200), (RING, 60), (PRODUCER, 300))


def _out(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_traces_are_pinned(tmp_path, capsys):
    # Every trace line of the three programs, pinned as one SHA-256 so that
    # any change in what run and simulate print shows.
    digest = hashlib.sha256()
    for i, (text, steps) in enumerate(PINNED):
        prog = tmp_path / f"prog{i}.mc"
        prog.write_text(text)
        for mode in ("sync", "async"):
            net = tmp_path / f"net{i}{mode}.mc"
            _out(capsys, ["project", str(prog), "--mode", mode,
                          "--out", str(net)])
            for cmd, path in (("run", prog), ("simulate", net)):
                for sched in ("leftmost", "random"):
                    for fmt in ("human", "records"):
                        argv = [cmd, str(path), "--mode", mode,
                                "--scheduler", sched, "--seed", "11",
                                "--steps", str(steps), "--trace", fmt]
                        digest.update(" ".join([cmd] + argv[2:]).encode())
                        digest.update(_out(capsys, argv).encode())
    assert digest.hexdigest() == (
        "25abe20e2bbeebbd97699d5bb1c08d58f444fd7307b04a51adf84d09c47ecbc4")


def test_a_queue_line_costs_what_its_step_changed(monkeypatch):
    # Leftmost async simulation of the producer piles messages up, and
    # random simulation also drains them; each line still shows what a
    # one-shot render shows, with a bounded number of values rendered.
    program = parse_choreography(PRODUCER)
    net = epp_sync(program, default_state(program))
    module = importlib.import_module("chorkit.render")
    calls = []

    def counted(v):
        calls.append(v)
        return render_value(v)

    for sched in ("leftmost", "random"):
        trace = run_network(net, "async", make_scheduler(sched, 3), 300)
        monkeypatch.setattr(module, "render_value", counted)
        lines = format_trace(trace).split("\n")
        monkeypatch.undo()
        assert len(calls) <= 5 * len(trace.steps)
        calls.clear()
        for line, step in zip(lines, trace.steps):
            assert line.split(" :: ", 1)[1] == render(step.result)
    assert max(len(lane) for _, p in trace.steps[-1].result.procs
               for _, lane in p.queue.lanes) > 1


@given(st.integers(0, 2 ** 32), st.integers(0, 99),
       st.sampled_from(["human", "records"]))
@settings(max_examples=60, deadline=None)
def test_trace_renders_like_one_shot_render(seed, run_seed, fmt):
    # The trace renderer shares text between steps; every line must still
    # show what a one-shot render of that step's term shows.
    program = _random_program(random.Random(seed), CorpusSpec(max_actions=10))
    sigma = default_state(program)
    runs = []
    for mode in ("sync", "async"):
        runs.append(run_chor(Configuration(program, sigma), mode,
                             make_scheduler("random", run_seed), 30))
        if pn(program) and projectable(program):
            project = epp_sync if mode == "sync" else epp_async
            runs.append(run_network(project(program, sigma), mode,
                                    make_scheduler("random", run_seed), 30))
    for trace in runs:
        lines = format_trace(trace, fmt).split("\n")
        assert len(lines) == len(trace.steps) + 1
        for line, step in zip(lines, trace.steps):
            result = step.result
            if fmt == "human":
                term = getattr(result, "chor", result)
                assert line.split(" :: ", 1)[1] == render(term)
            elif isinstance(result, Configuration):
                assert json.loads(json.loads(line)["state"]) == {
                    name: render_value(v) for name, v in result.state.cells}
            else:
                assert json.loads(line)["state"] == render(result)


def _simulation_lines_match_one_shot_render(net, mode, steps):
    for sched in ("leftmost", "random"):
        trace = run_network(net, mode, make_scheduler(sched, 5), steps)
        human = format_trace(trace, "human").split("\n")
        records = format_trace(trace, "records").split("\n")
        for step, line, record in zip(trace.steps, human, records):
            text = render(step.result)
            assert line.split(" :: ", 1)[1] == text
            assert json.loads(record)["state"] == text
    return trace


def test_simulation_lines_match_one_shot_render():
    # A line reuses the previous line's text for every process object that
    # did not change; each must still be what a one-shot render gives.
    for text, steps in PINNED:
        program = parse_choreography(text)
        sigma = default_state(program)
        for mode in ("sync", "async"):
            project = epp_sync if mode == "sync" else epp_async
            _simulation_lines_match_one_shot_render(project(program, sigma),
                                                    mode, steps)
    for mode in ("sync", "async"):
        trace = _simulation_lines_match_one_shot_render(
            parse_network(NAMED_WHILE_DONE), mode, 20)
        names = [step.result.names() for step in trace.steps]
        rules = [step.label.rule for step in trace.steps]
        gone = rules.index("Then")
        assert all("p" in n for n in names[:gone])
        assert all("p" not in n for n in names[gone:])
        assert trace.outcome == "terminated"
    # Under interning, equal processes of different names are one object,
    # so a line must not take another name's text for it.
    with interning({}):
        nets = [parse_network(f"{name}[0]{{ r!1; 0 }} | r[0]{{ p?; 0 }}")
                for name in ("p", "q", "p")]
    assert nets[0].procs[0][1] is nets[1].procs[0][1]
    memo = {}
    for net in nets:
        assert render(net, memo) == render(net)
