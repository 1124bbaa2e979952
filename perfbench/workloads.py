"""Seeded inputs, timed passes and reference checks for the three workloads.

The reference checks never call chorkit: expected values come from a small
evaluator for the benchmark's own expression subset (integer literals,
``@``, ``+ - *`` with 64-bit wraparound), and traces are read from the text
the CLI prints.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
import re
import time
from dataclasses import dataclass, field

PROCS = ("p", "q", "r", "s", "t", "u")

# long-chain: every pass runs one chain of this many communications through
# six commands.  Step cost is linear in term size, so a pass is quadratic in
# the length; 600 communications overflow the recursion limit today.
CHAIN_LEN = 200
POOL = 12  # programs (long-chain) or program sets (loop) a run cycles over
# The max_chain_len probe: check and project on chains of doubling length.
LADDER = (75, 150, 300, 600, 1200, 2400, 4800)

# loop: every pass runs the same four shapes of recursive program, so the
# mix of operations does not depend on the seed; the seed picks names and
# expressions.  Rings keep queues short; the producer's sender never
# receives, so leftmost async simulation piles its messages up.
LOOP_SHAPES = (("ring", 2), ("ring", 3), ("ring", 4), ("producer", 2))
LOOP_STEPS = 1000
LOOP_COMMANDS = tuple(
    (cmd, mode, sched)
    for cmd in ("run", "simulate")
    for mode in ("sync", "async")
    for sched in ("leftmost", "random"))

# verify: the timed pass is the reference corpus at the CLI's default seed
# and depth.  The corpus generator's program sizes vary so much between
# seeds (1.5 s to 19 s for one pass) that a per-seed corpus cannot give a
# steady time.  The seeded corpus is verified at a small depth, untimed, as
# a probe: corpus seed 102 has a program that fails t2 and t8.
VERIFY_TIMED_SEED = 42
VERIFY_DEPTH = 12
PROBE_DEPTH = 4
VERIFY_PROGRAMS = 60
VERIFY_CHECKS = 8  # t1 t5 t2 t8 t6 diamond t7 wf, then one abstract-async


# ---------------------------------------------------------------------------
# Expression subset and its evaluator

_MASK = (1 << 64) - 1


def wrap64(n: int) -> int:
    n &= _MASK
    return n - (1 << 64) if n >= (1 << 63) else n


def eval_expr(e, cell: int) -> int:
    kind = e[0]
    if kind == "lit":
        return e[1]
    if kind == "cell":
        return cell
    left, right = eval_expr(e[1], cell), eval_expr(e[2], cell)
    if kind == "+":
        return wrap64(left + right)
    if kind == "-":
        return wrap64(left - right)
    return wrap64(left * right)


def render_expr(e) -> str:
    kind = e[0]
    if kind == "lit":
        return str(e[1])
    if kind == "cell":
        return "@"
    return f"({render_expr(e[1])} {kind} {render_expr(e[2])})"


def random_expr(rng) -> tuple:
    roll = rng.random()
    if roll < 0.15:
        return ("lit", rng.randrange(1000))
    if roll < 0.25:
        return ("cell",)
    if roll < 0.5:
        # Large factors make long chains wrap around 64 bits.
        return ("+", ("*", ("cell",), ("lit", rng.randrange(2, 1 << 31))),
                ("lit", rng.randrange(1000)))
    return (rng.choice("+-"), ("cell",), ("lit", rng.randrange(1, 1000)))


def program_text(comms) -> str:
    return "; ".join(f"{s}.{render_expr(e)} -> {d}" for s, e, d in comms)


def expected_streams(comms, total: int):
    """Execute ``comms`` in order, cycling, for ``total`` communications.

    Returns (values received per receiver, values sent per (sender,
    receiver) pair, final cells).  Each process is sequential and the
    semantics are confluent, so every schedule delivers a prefix of these
    streams, and a terminated run ends with these cells.
    """
    cells, received, sent = {}, {}, {}
    for i in range(total):
        src, e, dst = comms[i % len(comms)]
        v = eval_expr(e, cells.get(src, 0))
        cells[dst] = v
        received.setdefault(dst, []).append(str(v))
        sent.setdefault((src, dst), []).append(str(v))
    return received, sent, cells


# ---------------------------------------------------------------------------
# Generators


def make_chain(rng, length: int):
    comms = []
    for _ in range(length):
        src = rng.choice(PROCS)
        dst = rng.choice([p for p in PROCS if p != src])
        comms.append((src, random_expr(rng), dst))
    return comms


def chain_program(comms) -> str:
    return program_text(comms) + "; 0\n"


def make_loop_body(rng, shape: str, size: int):
    if shape == "ring":
        names = rng.sample(PROCS, size)
        return [(names[i], random_expr(rng), names[(i + 1) % size])
                for i in range(size)]
    # A producer: the alphabetically first process sends and never
    # receives, so the leftmost scheduler always picks its send.
    names = sorted(rng.sample(PROCS, size + 1))
    sender, receivers = names[0], names[1:]
    return [(sender, random_expr(rng), dst) for dst in receivers]


def loop_program(body) -> str:
    return f"def X = {{ {program_text(body)}; X }} in X\n"


# ---------------------------------------------------------------------------
# Trace reading and checks

_STEP = re.compile(r"#(\d+) (\w+) (\w+),(\w+)(?: v=(\S+))?")
_CELL = re.compile(r"(?:^|\| )(\w+)\[(-?\d+)\]")


def read_trace(text: str):
    """(steps, outcome) from human trace text; a step is (rule, src, dst,
    value)."""
    lines = text.rstrip("\n").split("\n")
    outcome = lines[-1][3:] if lines and lines[-1].startswith("-- ") else None
    steps = []
    for line in lines[:-1]:
        m = _STEP.match(line)
        if m is None:
            return None, None
        steps.append((m.group(2), m.group(3), m.group(4), m.group(5)))
    return steps, outcome


def check_trace(text, mode, want_steps, want_outcome, received, sent,
                final_cells=None):
    """Problems with a run/simulate trace, as strings; empty if correct."""
    steps, outcome = read_trace(text)
    if steps is None:
        return ["unreadable trace"]
    problems = []
    if outcome != want_outcome:
        problems.append(f"outcome {outcome!r}, expected {want_outcome!r}")
    if len(steps) != want_steps:
        problems.append(f"{len(steps)} steps, expected {want_steps}")
    got_recv, got_sent = {}, {}
    receive_rule = "Com" if mode == "sync" else "ComR"
    for rule, src, dst, value in steps:
        if rule == receive_rule:
            got_recv.setdefault(dst, []).append(value)
        if rule in ("Com", "ComS"):
            got_sent.setdefault((src, dst), []).append(value)
        if rule not in ("Com", "ComS", "ComR") or \
                (mode == "sync") != (rule == "Com"):
            problems.append(f"unexpected rule {rule} in {mode} mode")
            break
    for dst, values in got_recv.items():
        if values != received.get(dst, [])[:len(values)]:
            problems.append(f"values received by {dst} differ")
    for pair, values in got_sent.items():
        if values != sent.get(pair, [])[:len(values)]:
            problems.append(f"values sent on {pair} differ")
    if final_cells is not None:
        cells = {dst: int(vals[-1]) for dst, vals in got_recv.items()}
        if cells != final_cells:
            problems.append("final cells differ")
    return problems


def check_network(text, names):
    cells = dict(_CELL.findall(text))
    if set(cells) != set(names) or any(v != "0" for v in cells.values()):
        return [f"projected network has cells {cells}"]
    return []


_REPORT = re.compile(r"^(\S+) (\S+): (pass|fail|budget-exceeded) "
                     r"\((\d+) states\)$", re.M)


def read_reports(text):
    return [(m.group(1), m.group(2), m.group(3), int(m.group(4)))
            for m in _REPORT.finditer(text)]


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    """One CLI command, its latency and whatever was wrong with it."""

    argv: list
    seconds: float
    problems: list = field(default_factory=list)


def run_cli(main, argv):
    """Run ``main(argv)`` in-process; (exit code or exception, stdout,
    seconds).  Garbage from earlier commands is collected first, so each
    command starts, like a fresh ``chorkit`` process, with no collection
    pending."""
    out = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    except Exception as exc:  # an escaped exception is a failed operation
        rc = exc
    return rc, out.getvalue(), time.perf_counter() - start


def cli_op(main, argv, check=None):
    rc, out, seconds = run_cli(main, argv)
    op = Op(argv, seconds)
    if rc != 0:
        op.problems.append(f"exit {rc!r}")
    elif check is not None:
        op.problems.extend(check(out))
    return op


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Inputs from a seed, plus timed passes over them.  ``smoke`` shrinks
    every input so that a pass takes well under a second."""

    name = ""

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def generate(self):
        """Make and write the inputs; part of the timed set-up."""

    def run_pass(self, main, index: int):
        """One timed pass: (seconds, [Op], trace steps produced)."""
        raise NotImplementedError

    def probe(self, main):
        """Untimed probe for a known defect: (count, details)."""
        return 0, None

    def path(self, name):
        return os.path.join(self.workdir, name)


class LongChain(Workload):
    name = "long-chain"

    def generate(self):
        rng = random.Random(self.seed)
        length = 12 if self.smoke else CHAIN_LEN
        self.chains = [make_chain(rng, length) for _ in range(POOL)]
        for i, comms in enumerate(self.chains):
            with open(self.path(f"chain{i}.mc"), "w") as fh:
                fh.write(chain_program(comms))

    def run_pass(self, main, index):
        i = index % len(self.chains)
        comms = self.chains[i]
        n = len(comms)
        received, sent, cells = expected_streams(comms, n)
        names = sorted({s for s, _, _ in comms} | {d for _, _, d in comms})
        src, net = self.path(f"chain{i}.mc"), self.path(f"chain{i}.net")

        def trace_check(mode):
            steps = n if mode == "sync" else 2 * n
            return lambda out: check_trace(out, mode, steps, "terminated",
                                           received, sent, cells)

        ops = [
            cli_op(main, ["check", src],
                   lambda out: [] if out == "ok\n" else ["check output"]),
            cli_op(main, ["project", src, "--out", net],
                   lambda out: check_network(_read(net), names)),
        ]
        for cmd, file in (("run", src), ("simulate", net)):
            for mode in ("sync", "async"):
                ops.append(cli_op(main, [cmd, file, "--mode", mode],
                                  trace_check(mode)))
        steps = 6 * n  # run and simulate: n steps sync, 2n async
        return sum(op.seconds for op in ops), ops, steps


class Loop(Workload):
    name = "loop"

    def generate(self):
        rng = random.Random(self.seed)
        self.sets = []
        for k in range(POOL):
            bodies = [make_loop_body(rng, shape, size)
                      for shape, size in LOOP_SHAPES]
            for j, body in enumerate(bodies):
                with open(self.path(f"loop{k}_{j}.mc"), "w") as fh:
                    fh.write(loop_program(body))
            self.sets.append(bodies)

    def run_pass(self, main, index):
        k = index % len(self.sets)
        budget = 40 if self.smoke else LOOP_STEPS
        ops, steps = [], 0
        for j, body in enumerate(self.sets[k]):
            received, sent, _ = expected_streams(body, budget)
            names = sorted({s for s, _, _ in body} | {d for _, _, d in body})
            src, net = self.path(f"loop{k}_{j}.mc"), self.path(
                f"loop{k}_{j}.net")
            ops.append(cli_op(main, ["project", src, "--out", net],
                              lambda out: check_network(_read(net), names)))
            for cmd, mode, sched in LOOP_COMMANDS:
                argv = [cmd, src if cmd == "run" else net, "--mode", mode,
                        "--scheduler", sched, "--seed", str(self.seed + k),
                        "--steps", str(budget)]
                ops.append(cli_op(main, argv, lambda out, mode=mode:
                                  check_trace(out, mode, budget, "budget",
                                              received, sent)))
                steps += budget
        return sum(op.seconds for op in ops), ops, steps


class Verify(Workload):
    name = "verify"

    def generate(self):
        # The corpus is made by chorkit inside the command; set-up covers
        # making it once so that generator cost is visible.
        from chorkit.verify import CorpusSpec, generate_corpus

        self.timed_seed = self.seed if self.smoke else VERIFY_TIMED_SEED
        generate_corpus(CorpusSpec(seed=self.timed_seed))

    def run_pass(self, main, index):
        return self.verify_pass(main, self.timed_seed,
                                2 if self.smoke else VERIFY_DEPTH)

    def probe(self, main):
        """Verify the seeded corpus at a small depth; returns (reports that
        are missing or not ``pass``, the failed operations)."""
        _, ops, _ = self.verify_pass(main, self.seed,
                                     1 if self.smoke else PROBE_DEPTH)
        failed = [" ".join(op.argv + op.problems) for op in ops
                  if op.problems]
        return len(failed), {"corpus_seed": self.seed, "failed": failed[:10]}

    def verify_pass(self, main, corpus_seed, depth):
        """Each (program, theorem) report is an operation, timed by
        wrapping the check functions of ``chorkit.verify``."""
        import chorkit.verify as verify

        latencies = []
        originals = {name: getattr(verify, name) for name in _CHECKS}
        for name, fn in originals.items():
            setattr(verify, name, _timed(fn, latencies))
        try:
            rc, out, seconds = run_cli(main, [
                "verify", "--theorem", "all", "--corpus-seed",
                str(corpus_seed), "--depth", str(depth)])
        finally:
            for name, fn in originals.items():
                setattr(verify, name, fn)
        ops, states = report_ops(rc, out, latencies)
        return seconds, ops, states


def report_ops(rc, out, latencies):
    """One operation per (program, theorem) report; it fails unless its
    verdict is ``pass``.  A missing report, or a nonzero exit, adds failed
    operations.  Returns (ops, states explored)."""
    reports = read_reports(out)
    want = VERIFY_PROGRAMS * VERIFY_CHECKS + 1
    ops = [Op(["verify", pid, theorem], lat,
              [] if verdict == "pass" else [verdict])
           for (theorem, pid, verdict, _), lat in zip(reports, latencies)]
    if rc != 0 or len(reports) != want or len(latencies) != want:
        missing = max(1, want - len(reports))
        ops.extend(Op(["verify"], 0.0,
                      [f"exit {rc!r}, {len(reports)} reports, "
                       f"expected {want}"]) for _ in range(missing))
    return ops, sum(r[3] for r in reports)


_CHECKS = ("check_deadlock_freedom", "check_epp_sync", "check_epp_async",
           "check_async_equivalence", "check_diamond",
           "check_sp_asp_simulation", "check_well_formedness_preservation",
           "check_abstract_asynchrony")


def _timed(fn, latencies):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - start)
    return timed


def _read(path):
    with open(path) as fh:
        return fh.read()


WORKLOADS = {w.name: w for w in (Verify, LongChain, Loop)}


# ---------------------------------------------------------------------------
# Statistics


def tail(values, beyond: int = 10):
    """(percentile, value): the highest percentile of ``values`` with at
    least ``beyond`` samples above it (the maximum if there are fewer)."""
    ordered = sorted(values)
    rank = max(0, len(ordered) - beyond - 1)
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


# ---------------------------------------------------------------------------
# max_chain_len probe


def chain_probe(main, seed: int, workdir: str):
    """Walk the ladder until check or project fails; returns
    (longest passing rung or 0, {rung: outcome}).  A RecursionError that
    escapes the CLI is caught here and recorded."""
    rng = random.Random(seed)
    best, outcomes = 0, {}
    for rung in LADDER:
        path = os.path.join(workdir, f"probe{rung}.mc")
        with open(path, "w") as fh:
            fh.write(chain_program(make_chain(rng, rung)))
        results = []
        for argv in (["check", path], ["project", path]):
            rc, _, _ = run_cli(main, argv)
            results.append(rc if isinstance(rc, int) else type(rc).__name__)
        outcomes[rung] = results
        if results != [0, 0]:
            break
        best = rung
    return best, outcomes
