"""chorkit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify|long-chain|loop \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; chorkit is imported from ``src/``.
With ``--trace 0`` it times passes of the workload for about S seconds and
prints the end-to-end metrics; with ``--trace 1`` it runs the workload's
traced round and prints the per-layer metrics.  Every output is checked
against an independent reference.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; details, provenance and
the spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402

SETUP_REPEATS = 11
MIN_PASSES = {"verify": 2, "long-chain": 6, "loop": 4}
TRACED_PASSES = {"verify": 1, "long-chain": 2, "loop": 1}


def import_chorkit():
    """Import chorkit afresh from this checkout's ``src``; returns
    ``chorkit.cli``."""
    for name in [m for m in sys.modules
                 if m == "chorkit" or m.startswith("chorkit.")]:
        del sys.modules[name]
    import chorkit.cli

    if not os.path.abspath(chorkit.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"chorkit imported from {chorkit.cli.__file__}")
    return chorkit.cli


def setup(workload_cls, seed, workdir, smoke):
    """Import chorkit and generate the inputs SETUP_REPEATS times; returns
    (the last workload, cli module, median set-up seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        start = time.perf_counter()
        cli = import_chorkit()
        workload = workload_cls(seed, workdir, smoke)
        workload.generate()
        times.append(time.perf_counter() - start)
    return workload, cli, statistics.median(times)


def timed_passes(workload, main, seconds, min_passes):
    """At least ``min_passes`` passes, then more while the next one, taking
    the median pass time so far, would end within ``seconds``; returns
    (pass seconds, ops, trace steps)."""
    walls, ops, steps = [], [], 0
    start = time.perf_counter()
    while len(walls) < min_passes or (
            time.perf_counter() - start + statistics.median(walls)
            <= seconds):
        wall, pass_ops, pass_steps = workload.run_pass(main, len(walls))
        walls.append(wall)
        ops.extend(pass_ops)
        steps += pass_steps
    return walls, ops, steps


def end_to_end(workload, cli, setup_s, args, details):
    walls, ops, steps = timed_passes(
        workload, cli.main, args.seconds,
        2 if args.smoke else MIN_PASSES[workload.name])
    latencies = [op.seconds for op in ops]
    pct, tail_s = wl.tail(latencies)
    busy = sum(latencies) if workload.name != "verify" else sum(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    max_len, probe = wl.chain_probe(cli.main, workload.seed, workload.workdir)
    _, details["defect_probe"] = workload.probe(cli.main)
    failed = sum(1 for op in ops if op.problems)
    details.update(passes=len(walls), pass_seconds=walls, operations=len(ops),
                   op_tail_percentile=pct, op_samples=len(latencies),
                   chain_probe=probe)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "steps_per_s": (steps / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_share": (1 - failed / len(ops), "share"),
        "max_chain_len": (max_len, "count"),
    }
    return ops, metrics


def traced(workload, cli, args, details):
    import tracer

    passes = TRACED_PASSES[workload.name]
    plain = [workload.run_pass(cli.main, i) for i in range(passes)]
    untraced_s = sum(p[0] for p in plain)
    t = tracer.Tracer()
    t.install()
    try:
        runs = [workload.run_pass(cli.main, i) for i in range(passes)]
    finally:
        t.uninstall()
    traced_s = sum(p[0] for p in runs)
    _, probe = wl.chain_probe(cli.main, workload.seed, workload.workdir)
    seeded_failures, details["defect_probe"] = workload.probe(cli.main)
    metrics = t.metrics()
    metrics["verify.probe_failures"] = (seeded_failures, "count")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    metrics["cli.recursion_errors"] = (
        sum(r.count("RecursionError") for r in probe.values()), "count")
    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}")
    details.update(traced_passes=passes, untraced_s=untraced_s,
                   traced_s=traced_s, chain_probe=probe,
                   spans=t.dump(stem + ".spans"))
    ops = [op for p in plain + runs for op in p[1]]
    return ops, metrics


def provenance(seed):
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "chorkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_commit": commit, "source_sha256": digest.hexdigest(),
            "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, to check that the benchmark works")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chorkit", "cli.py")):
        print(f"no chorkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    details = {"workload": args.workload, "trace": args.trace,
               "provenance": provenance(args.seed)}
    try:
        workload, cli, setup_s = setup(wl.WORKLOADS[args.workload],
                                       args.seed, workdir, args.smoke)
        if args.trace:
            ops, metrics = traced(workload, cli, args, details)
        else:
            ops, metrics = end_to_end(workload, cli, setup_s, args, details)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [(" ".join(op.argv), op.problems) for op in ops if op.problems]
    details["failures"] = failures[:20]
    details["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(details, fh, indent=1, default=str)
    for argv_text, problems in failures[:5]:
        print(f"FAILED {argv_text}: {'; '.join(problems)}")
    if details.get("defect_probe"):
        print("defect probe " + json.dumps(details["defect_probe"]))
    print("provenance " + json.dumps(details["provenance"]))
    if not args.trace:
        print(f"op_tail_ms is p{details['op_tail_percentile']:.1f} of "
              f"{details['op_samples']} operations; "
              f"{details['passes']} timed passes")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
