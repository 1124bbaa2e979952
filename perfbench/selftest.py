"""Checks that the benchmark itself works and can fail.

    python3 perfbench/selftest.py

1. A smoke-size run of each workload, untraced and traced, must be correct
   and print exactly the metrics that BENCHMARK.json names.
2. Negative controls: the reference checks must flag a flipped final cell,
   a truncated trace, a wrong outcome, a failed verify report, and a
   seeded engine bug (arithmetic without 64-bit wraparound).
3. No call escapes the tracer: for functions that never nest, the tracer's
   call counts equal those of a profiler hook.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def smoke_runs():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = bench.main(["--workload", workload, "--seed", "3",
                                 "--seconds", "0", "--trace", str(trace),
                                 "--smoke"])
            result = json.loads(out.getvalue().splitlines()[-1])
            expect(rc == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"smoke {workload} trace={trace}: correct, "
                   f"{result['attempted']} operations")
            expect(set(result["metrics"]) == names[trace],
                   f"smoke {workload} trace={trace}: metric names match "
                   f"BENCHMARK.json")


def negative_controls(cli, workdir):
    rng = random.Random(5)
    comms = wl.make_chain(rng, 40)
    path = os.path.join(workdir, "neg.mc")
    with open(path, "w") as fh:
        fh.write(wl.chain_program(comms))
    received, sent, cells = wl.expected_streams(comms, len(comms))

    def problems(text, outcome="terminated", steps=2 * len(comms)):
        return wl.check_trace(text, "async", steps, outcome, received, sent,
                              cells)

    rc, out, _ = wl.run_cli(cli.main, ["run", path, "--mode", "async"])
    expect(rc == 0 and not problems(out), "reference accepts a real trace")
    lines = out.splitlines()
    last_recv = max(i for i, line in enumerate(lines) if " ComR " in line)
    head, rest = lines[last_recv].split(" v=", 1)
    value, tail = rest.split(" ", 1)
    flipped = lines[:]
    flipped[last_recv] = f"{head} v={int(value) ^ 1} {tail}"
    expect(bool(problems("\n".join(flipped))), "flags a flipped final cell")
    expect(bool(problems("\n".join(lines[:-2] + lines[-1:]))),
           "flags a truncated trace")
    expect(bool(problems(out.replace("-- terminated", "-- budget"))),
           "flags a wrong outcome")

    good = "\n".join(f"t1 prog{i:03d}: pass (3 states)"
                     for i in range(wl.VERIFY_PROGRAMS * wl.VERIFY_CHECKS + 1))
    latencies = [0.001] * (wl.VERIFY_PROGRAMS * wl.VERIFY_CHECKS + 1)
    ops, _ = wl.report_ops(0, good, latencies)
    expect(not any(op.problems for op in ops), "accepts all-pass reports")
    ops, _ = wl.report_ops(0, good.replace("pass", "fail", 1), latencies)
    expect(sum(1 for op in ops if op.problems) == 1,
           "flags one failed verify report")
    ops, _ = wl.report_ops(0, good.rsplit("\n", 1)[0], latencies[:-1])
    expect(any(op.problems for op in ops), "flags a missing verify report")

    import chorkit.values as values

    original = values._wrap64
    values._wrap64 = lambda n: n
    try:
        rc, out, _ = wl.run_cli(cli.main, ["run", path, "--mode", "async"])
    finally:
        values._wrap64 = original
    expect(rc == 0 and bool(problems(out)),
           "flags an engine without 64-bit wraparound")


def no_escapes(cli, workdir):
    import tracer

    never_nested = ["sync.enabled", "network.enabled_sp",
                    "network.enabled_asp", "terms.queue.enqueue",
                    "terms.queue.dequeue", "congruence.network_equiv",
                    "verify.explore", "run.pick", "run.format_trace",
                    "chor_async.well_formed"]
    codes = {}
    for module, attr, span in tracer.TARGETS:
        if span in never_nested:
            owner = sys.modules[f"chorkit.{module}"]
            for part in attr.split("."):
                owner = getattr(owner, part)
            codes[owner.__code__] = span
    counts = dict.fromkeys(never_nested, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    t = tracer.Tracer()
    t.install()
    sys.setprofile(profile)
    try:
        for name in wl.WORKLOADS:
            workload = wl.WORKLOADS[name](4, workdir, smoke=True)
            workload.generate()
            workload.run_pass(cli.main, 0)
    finally:
        sys.setprofile(None)
        t.uninstall()
    metrics = t.metrics()
    for span in never_nested:
        traced = metrics[f"{span}.calls"][0] if f"{span}.calls" in metrics \
            else sum(1 for n in t.name if t.names[n] == span)
        expect(traced == counts[span] and traced > 0,
               f"tracer sees every call of {span} "
               f"({traced} traced, {counts[span]} made)")


def main() -> int:
    smoke_runs()
    workdir = os.path.join(bench.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    sys.path.insert(0, bench.SRC)
    try:
        cli = bench.import_chorkit()
        negative_controls(cli, workdir)
        no_escapes(cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
