"""Command-line interface.

Exit codes: 0 success, 1 parse error, 2 not projectable, 3 ill-formed,
4 verification failure, 5 runtime error (a guard that is not boolean, a
state lookup outside the program, queued messages under the synchronous
network semantics, a step that is not enabled, or a term nested too deeply
for Python's recursion limit), 64 usage error (a bad
flag, a file that cannot be read or written, or a ``--state`` that is not
a JSON object mapping the program's process names to storable values).
"""

from __future__ import annotations

import argparse
import json
import sys

from .chor_async import well_formed
from .congruence import canonical
from .errors import ChorError, GuardNotBoolean, IllFormed, NonEmptyQueue, \
    NotEnabled, NotProjectable, ParseError, UnknownProcess
from .parse import parse_choreography, parse_network
from .project import epp_async, epp_sync, project_network
from .render import render_choreography, render_network, render_value
from .run import format_trace, make_scheduler, run_chor, run_network
from .sync import Configuration
from .terms import ERR, BoolV, IntV, pn
from .values import GlobalState
from .verify import THEOREMS, CorpusSpec, verify_corpus

EXIT_PARSE = 1
EXIT_NOT_PROJECTABLE = 2
EXIT_ILL_FORMED = 3
EXIT_VERIFY = 4
EXIT_RUNTIME = 5
EXIT_USAGE = 64

RUNTIME_ERRORS = (GuardNotBoolean, UnknownProcess, NonEmptyQueue, NotEnabled)


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
    names = sorted(pn(program))
    if spec is None:
        return GlobalState.uniform(names)
    try:
        cells = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--state is not valid JSON: {exc}") from None
    if not isinstance(cells, dict):
        raise UsageError("--state must be a JSON object of cell values")
    base = GlobalState.uniform(names)
    for name, raw in cells.items():
        if isinstance(raw, bool):
            value = BoolV(raw)
        elif isinstance(raw, int):
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
        options = sorted(steps, key=lambda s: (s[0].path, s[0].key()))
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
    failed = False
    lines = []
    for pid, report in reports:
        lines.append(f"{report.theorem} {pid}: {report.verdict} "
                     f"({report.states} states)")
        if report.verdict != "pass":
            failed = True
            for ce in report.counterexample:
                lines.append(f"  counterexample: {ce}")
    _output(args.report, "\n".join(lines))
    by_theorem = {}
    for _, report in reports:
        agg = by_theorem.setdefault(report.theorem, [0, 0, 0])
        idx = {"pass": 0, "fail": 1, "budget-exceeded": 2}[report.verdict]
        agg[idx] += 1
    for theorem, (ok, bad, budget) in sorted(by_theorem.items()):
        print(f"{theorem}: {ok} pass, {bad} fail, {budget} budget-exceeded")
    return EXIT_VERIFY if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chorkit",
        description="Choreographic programming toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def executor(name, what, func):
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
        p.set_defaults(func=func)
        return p

    p = sub.add_parser("check", help="parse and validate a choreography")
    p.add_argument("file")
    p.add_argument("--canonical", action="store_true",
                   help="print the receives-first canonical form")
    p.set_defaults(func=cmd_check)

    p = executor("run", "execute a choreography", cmd_run)
    p.add_argument("--state", help="JSON object of initial cell values")
    p.add_argument("--interactive", action="store_true",
                   help="choose each step by hand")

    p = sub.add_parser("project", help="compile to a process network")
    p.add_argument("file")
    p.add_argument("--mode", choices=("sync", "async"), default="sync")
    p.add_argument("--state", help="JSON object of initial cell values")
    p.add_argument("--out", help="write the network here instead of stdout")
    p.set_defaults(func=cmd_project)

    executor("simulate", "execute a process network", cmd_simulate)

    p = sub.add_parser("verify", help="check the metatheory on a corpus")
    p.add_argument("--theorem", default="all",
                   choices=("all",) + THEOREMS + ("wf",))
    p.add_argument("--corpus-seed", type=int, default=42)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--report", help="write the per-program report here")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
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
