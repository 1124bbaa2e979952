"""Command-line interface.

Exit codes: 0 success, 1 parse error, 2 not projectable, 3 ill-formed,
4 verification failure, 64 usage error (a bad flag, or a ``--state`` that
is not a JSON object mapping the program's process names to storable
values).
"""

from __future__ import annotations

import argparse
import json
import sys

from .chor_async import well_formed
from .congruence import canonical
from .errors import ChorError, IllFormed, NotProjectable, ParseError, \
    UnknownProcess
from .network import classify
from .parse import parse_choreography, parse_network
from .project import epp_async, epp_sync
from .render import render_choreography, render_network
from .run import (
    Trace,
    TraceStep,
    format_step_human,
    format_trace,
    make_scheduler,
    run_chor,
    run_network,
)
from .sync import Configuration, enabled_sync, terminated
from .chor_async import enabled_async
from .network import enabled_asp, enabled_sp, normalize_network
from .terms import ERR, BoolV, IntV, TagSupply, pn
from .values import GlobalState
from .verify import THEOREMS, CorpusSpec, verify_corpus

EXIT_PARSE = 1
EXIT_NOT_PROJECTABLE = 2
EXIT_ILL_FORMED = 3
EXIT_VERIFY = 4
EXIT_USAGE = 64


class UsageError(Exception):
    """A command-line input that parses as flags but cannot be used."""


def _load_choreography(path: str):
    with open(path) as fh:
        return parse_choreography(fh.read())


def _load_network(path: str):
    with open(path) as fh:
        return parse_network(fh.read())


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
    program = _load_choreography(args.file)
    ok, canon = well_formed(program)
    if not ok:
        print("ill-formed: a pending message outruns what its receiver "
              "is committed to take next", file=sys.stderr)
        return EXIT_ILL_FORMED
    try:
        epp_async(program, _initial_state(program, None))
    except NotProjectable as exc:
        print(f"not projectable: {exc}", file=sys.stderr)
        return EXIT_NOT_PROJECTABLE
    if args.canonical:
        print(render_choreography(canonical(canon)))
    else:
        print("ok")
    return 0


def _interactive(cfg, mode, max_steps, supply):
    steps = []
    for index in range(max_steps):
        options = enabled_sync(cfg) if mode == "sync" else enabled_async(cfg)
        if not options:
            outcome = "terminated" if terminated(cfg.chor) else "deadlocked"
            return Trace(tuple(steps), outcome)
        options.sort(key=lambda s: (s[0].path, s[0].key()))
        print(f"\nstate: {render_choreography(cfg.chor)}")
        for i, (label, _) in enumerate(options, 1):
            extra = "" if label.value is None else f" v={label.value!r}"
            print(f"  {i}. {label.rule} {','.join(label.subjects)}{extra}")
        raw = input(f"step [1-{len(options)}, q to quit]: ").strip()
        if raw.lower() in ("q", "quit", ""):
            return Trace(tuple(steps), "interrupted")
        try:
            choice = int(raw)
            label, cfg = options[choice - 1]
        except (ValueError, IndexError):
            print("invalid choice", file=sys.stderr)
            continue
        if label.rule == "ComS" and label.tag_id is None:
            label = label.with_tag(supply.fresh().id)
        steps.append(TraceStep(index, label, cfg))
        print(format_step_human(steps[-1]))
    return Trace(tuple(steps), "budget")


def cmd_run(args) -> int:
    program = _load_choreography(args.file)
    cfg = Configuration(program, _initial_state(program, args.state))
    supply = TagSupply.above(program)
    if args.interactive:
        trace = _interactive(cfg, args.mode, args.steps, supply)
    else:
        scheduler = make_scheduler(args.scheduler, args.seed)
        trace = run_chor(cfg, args.mode, scheduler, args.steps, supply)
        print(format_trace(trace, args.trace))
    if not args.interactive:
        return 0
    print(f"-- {trace.outcome}")
    return 0


def cmd_project(args) -> int:
    program = _load_choreography(args.file)
    sigma = _initial_state(program, args.state)
    try:
        if args.mode == "sync":
            net = epp_sync(program, sigma)
        else:
            net = epp_async(program, sigma)
    except NotProjectable as exc:
        print(f"not projectable: {exc}", file=sys.stderr)
        return EXIT_NOT_PROJECTABLE
    except IllFormed as exc:
        print(f"ill-formed: {exc}", file=sys.stderr)
        return EXIT_ILL_FORMED
    text = render_network(net)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_simulate(args) -> int:
    net = normalize_network(_load_network(args.file))
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
    summary = "\n".join(lines)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(summary + "\n")
    else:
        print(summary)
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

    p = sub.add_parser("check", help="parse and validate a choreography")
    p.add_argument("file")
    p.add_argument("--canonical", action="store_true",
                   help="print the receives-first canonical form")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("run", help="execute a choreography")
    p.add_argument("file")
    p.add_argument("--mode", choices=("sync", "async"), default="sync")
    p.add_argument("--scheduler", choices=("leftmost", "random"),
                   default="leftmost")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--trace", choices=("human", "records"), default="human")
    p.add_argument("--state", help="JSON object of initial cell values")
    p.add_argument("--interactive", action="store_true",
                   help="choose each step by hand")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("project", help="compile to a process network")
    p.add_argument("file")
    p.add_argument("--mode", choices=("sync", "async"), default="sync")
    p.add_argument("--state", help="JSON object of initial cell values")
    p.add_argument("--out", help="write the network here instead of stdout")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("simulate", help="execute a process network")
    p.add_argument("file")
    p.add_argument("--mode", choices=("sync", "async"), default="sync")
    p.add_argument("--scheduler", choices=("leftmost", "random"),
                   default="leftmost")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--trace", choices=("human", "records"), default="human")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check the metatheory on a corpus")
    p.add_argument("--theorem", default="all",
                   choices=("all",) + THEOREMS)
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
    except ChorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
