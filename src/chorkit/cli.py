"""Command-line interface.

Exit codes: 0 success, 1 parse error, 2 not projectable, 3 ill-formed,
4 verification failure, 5 runtime error (a guard that is not boolean, a
state lookup outside the program, queued messages under the synchronous
network semantics, an asynchronous run that needs a fresh tag past
2^63-1, or an expression nested too deeply to parse or evaluate within
Python's recursion limit; terms nest to any depth), 64 usage error (a
bad flag, a negative ``--steps`` or ``--depth``, a file that cannot be
read or written, or a ``--state`` that is not a JSON object mapping the
program's process names to storable values), 141 standard output closed
before the command wrote all of it (a broken pipe, as in ``| head``:
the rest of the output is dropped, with no message, and 141 is the
status a shell reports for a process that SIGPIPE ends).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chor_async import well_formed
from .congruence import canonical
from .errors import ChorError, GuardNotBoolean, IllFormed, NonEmptyQueue, \
    NotProjectable, ParseError, TagsExhausted, UnknownProcess
from .parse import parse_choreography, parse_network
from .project import epp_async, epp_sync, project_network
from .render import render_choreography, render_network, render_value
from .run import format_trace, make_scheduler, run_chor, run_network, \
    step_order
from .sync import Configuration
from .terms import ERR, BoolV, IntV
from .values import GlobalState
from .verify import THEOREMS, CorpusSpec, default_state, verify_corpus

EXIT_PARSE = 1
EXIT_NOT_PROJECTABLE = 2
EXIT_ILL_FORMED = 3
EXIT_VERIFY = 4
EXIT_RUNTIME = 5
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141

RUNTIME_ERRORS = (GuardNotBoolean, UnknownProcess, NonEmptyQueue,
                  TagsExhausted)


class UsageError(Exception):
    """A command-line input that parses as flags but cannot be used."""


def _read(path: str) -> str:
    """The text of ``path``; bytes that are not UTF-8 become U+FFFD, which
    the parser rejects."""
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") \
            from None


def _output(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to standard output without one."""
    if path is None:
        print(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") \
            from None


def _initial_state(program, spec: str | None) -> GlobalState:
    base = default_state(program)
    if spec is None:
        return base
    try:
        cells = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--state is not valid JSON: {exc}") from None
    except ValueError:  # more digits than ``int`` reads
        raise UsageError("--state: integer outside the 64-bit range") \
            from None
    if not isinstance(cells, dict):
        raise UsageError("--state must be a JSON object of cell values")
    for name, raw in cells.items():
        if isinstance(raw, bool):
            value = BoolV(raw)
        elif isinstance(raw, int) and -2**63 <= raw < 2**63:
            value = IntV(raw)
        elif raw == "err":
            value = ERR
        else:
            raise UsageError(f"--state: not a storable value for "
                             f"{json.dumps(name)}: {json.dumps(raw)}")
        try:
            base = base.update(name, value)
        except UnknownProcess:
            raise UsageError(f"--state: no process {json.dumps(name)} in "
                             f"the program") from None
    return base


def cmd_check(args) -> int:
    program = parse_choreography(_read(args.file))
    canon = well_formed(program)[1]
    project_network(canon, _initial_state(program, None))
    if args.canonical:
        print(render_choreography(canonical(canon)))
    else:
        print("ok")
    return 0


class InteractiveScheduler:
    """Lists the steps with where each leads and asks on standard input
    which to take; picks no step (so the run ends ``interrupted``) when the
    user quits."""

    def pick(self, steps):
        options = sorted(steps, key=step_order)
        print()
        for i, (label, succ) in enumerate(options, 1):
            extra = ("" if label.value is None
                     else f" v={render_value(label.value)}")
            print(f"  {i}. {label.rule} {','.join(label.subjects)}{extra} "
                  f":: {render_choreography(succ.chor)}")
        while True:
            try:
                raw = input(f"step [1-{len(options)}, q to quit]: ").strip()
            except EOFError:
                return None
            if raw.lower() in ("q", "quit", ""):
                return None
            if raw.isdecimal() and 1 <= int(raw) <= len(options):
                return options[int(raw) - 1]
            print("invalid choice", file=sys.stderr)


def cmd_run(args) -> int:
    program = parse_choreography(_read(args.file))
    cfg = Configuration(program, _initial_state(program, args.state))
    if args.interactive:
        scheduler = InteractiveScheduler()
    else:
        scheduler = make_scheduler(args.scheduler, args.seed)
    trace = run_chor(cfg, args.mode, scheduler, args.steps)
    print(format_trace(trace, args.trace))
    return 0


def cmd_project(args) -> int:
    program = parse_choreography(_read(args.file))
    sigma = _initial_state(program, args.state)
    project = epp_sync if args.mode == "sync" else epp_async
    _output(args.out, render_network(project(program, sigma)))
    return 0


def cmd_simulate(args) -> int:
    net = parse_network(_read(args.file))
    scheduler = make_scheduler(args.scheduler, args.seed)
    trace = run_network(net, args.mode, scheduler, args.steps)
    print(format_trace(trace, args.trace))
    return 0


def cmd_verify(args) -> int:
    theorems = set(THEOREMS) if args.theorem == "all" else {args.theorem}
    spec = CorpusSpec(seed=args.corpus_seed)
    reports = verify_corpus(theorems, spec, depth=args.depth)
    lines = []
    for pid, report in reports:
        lines.append(f"{report.theorem} {pid}: {report.verdict} "
                     f"({report.states} states)")
        lines += [f"  counterexample: {ce}" for ce in report.counterexample]
    _output(args.report, "\n".join(lines))
    by_theorem = {}
    for _, report in reports:
        agg = by_theorem.setdefault(report.theorem, [0, 0, 0])
        idx = {"pass": 0, "fail": 1, "budget-exceeded": 2}[report.verdict]
        agg[idx] += 1
    for theorem, (ok, bad, budget) in sorted(by_theorem.items()):
        print(f"{theorem}: {ok} pass, {bad} fail, {budget} budget-exceeded")
    failed = any(report.verdict != "pass" for _, report in reports)
    return EXIT_VERIFY if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chorkit",
        description="Choreographic programming toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def executor(name, what):
        """A subcommand that runs a program under a scheduler."""
        p = sub.add_parser(name, help=what)
        p.add_argument("file")
        p.add_argument("--mode", choices=("sync", "async"), default="sync")
        p.add_argument("--scheduler", choices=("leftmost", "random"),
                       default="leftmost")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--steps", type=int, default=1000)
        p.add_argument("--trace", choices=("human", "records"),
                       default="human")
        return p

    p = sub.add_parser("check", help="parse and validate a choreography")
    p.add_argument("file")
    p.add_argument("--canonical", action="store_true",
                   help="print the canonical form: independent actions "
                   "in the order communications, detached sends, "
                   "receives")

    p = executor("run", "execute a choreography")
    p.add_argument("--state", help="JSON object of initial cell values")
    p.add_argument("--interactive", action="store_true",
                   help="choose each step by hand")

    p = sub.add_parser("project", help="compile to a process network")
    p.add_argument("file")
    p.add_argument("--mode", choices=("sync", "async"), default="sync")
    p.add_argument("--state", help="JSON object of initial cell values")
    p.add_argument("--out", help="write the network here instead of stdout")

    executor("simulate", "execute a process network")

    p = sub.add_parser("verify", help="check the metatheory on a corpus")
    p.add_argument("--theorem", default="all",
                   choices=("all", *THEOREMS))
    p.add_argument("--corpus-seed", type=int, default=42)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--report", help="write the per-program report here")
    return parser


_parser = None  # built by the first call of main, not at import


def pipe_closed() -> int:
    """The exit code of a command whose reader closed its output: standard
    output goes to ``os.devnull`` from here on, so the interpreter's last
    flush of what is still buffered does not raise again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return EXIT_BROKEN_PIPE  # not a file: nothing flushes at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)
    return EXIT_BROKEN_PIPE


def main(argv=None) -> int:
    """Run the command ``argv`` names.  The parser is built once per
    process, and the command's ``cmd_*`` function is looked up in this
    module at each call, so a wrapper set there sees every call."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        for budget in ("steps", "depth"):
            if getattr(args, budget, 0) < 0:
                raise UsageError(f"--{budget} must not be negative")
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        return pipe_closed()
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotProjectable as exc:
        print(f"not projectable: {exc}", file=sys.stderr)
        return EXIT_NOT_PROJECTABLE
    except IllFormed as exc:
        print(f"ill-formed: {exc}", file=sys.stderr)
        return EXIT_ILL_FORMED
    except RUNTIME_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except RecursionError:
        print("runtime error: term nested too deeply (maximum recursion "
              "depth exceeded)", file=sys.stderr)
        return EXIT_RUNTIME
    except ChorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
