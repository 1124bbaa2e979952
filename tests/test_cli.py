"""Command-line interface: subcommands, exit codes, reproducible output."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import chorkit
from chorkit import cli, project, well_formed
from chorkit.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_ILL_FORMED,
    EXIT_NOT_PROJECTABLE,
    EXIT_PARSE,
    EXIT_RUNTIME,
    EXIT_USAGE,
    main,
)
from chorkit.verify import CorpusSpec, generate_corpus
from helpers import shallow


def one_line_error(capsys, prefix):
    captured = capsys.readouterr()
    err = captured.err.strip()
    return err.startswith(prefix) and "\n" not in err


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return _write


def test_parser_is_built_once_and_commands_are_looked_up_per_call(
        write, capsys, monkeypatch):
    # A wrapper set on a command after the parser exists still sees every
    # call, as the benchmark's tracer and these tests rely on.
    path = write("ok.mc", "p.1 -> q; 0")
    monkeypatch.setattr(cli, "_parser", None)
    built, seen = [], []
    build, check = cli.build_parser, cli.cmd_check
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    assert main(["check", path]) == 0
    monkeypatch.setattr(cli, "cmd_check",
                        lambda args: seen.append(args.file) or check(args))
    assert main(["check", path]) == main(["check", path]) == 0
    assert built == [1] and seen == [path, path]
    assert capsys.readouterr().out.split() == ["ok"] * 3


class TestCheck:
    def test_ok(self, write, capsys):
        path = write("ok.mc", "p.1 -> q; 0")
        assert main(["check", path]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_canonical_folds_runtime_pairs(self, write, capsys):
        path = write("rt.mc", "p.1 ~> [#0]; q <~ (p, #0); 0")
        assert main(["check", path, "--canonical"]) == 0
        assert capsys.readouterr().out.strip() == "p.1 -> q; 0"

    def test_parse_error(self, write, capsys):
        path = write("bad.mc", "p.1 ->")
        assert main(["check", path]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_ill_formed(self, write, capsys):
        # A queued message that would overtake an earlier communication on
        # its lane.
        path = write("ill.mc", "p.1 -> q; q <~ (p, 2); 0")
        assert main(["check", path]) == EXIT_ILL_FORMED

    def test_ill_formed_reads_as_in_async_projection(self, write, capsys):
        path = write("ill.mc", "p.1 -> q; q <~ (p, 2); 0")
        assert main(["check", path]) == EXIT_ILL_FORMED
        checked = capsys.readouterr().err
        assert main(["project", path, "--mode", "async"]) == EXIT_ILL_FORMED
        assert capsys.readouterr().err == checked
        assert checked.startswith("ill-formed: ") and checked.count("\n") == 1

    def test_not_projectable(self, write, capsys):
        path = write("np.mc",
                     "if p.true then { q.1 -> r; 0 } else { 0 }")
        assert main(["check", path]) == EXIT_NOT_PROJECTABLE

    @pytest.mark.parametrize("text", ["p.1 -> q; 0",
                                      "p.1 ~> [#0]; q <~ (p, #0); 0",
                                      "p.1 -> q; q <~ (p, 2); 0"])
    def test_well_formedness_is_decided_once(self, write, monkeypatch,
                                             text):
        calls = []

        def counted(c):
            calls.append(c)
            return well_formed(c)

        for module in (cli, project):
            monkeypatch.setattr(module, "well_formed", counted)
        main(["check", write("p.mc", text)])
        assert len(calls) == 1

    def test_long_chain(self, write, capsys):
        names = "pqrs"
        text = "".join(f"{names[i % 4]}.{i} -> {names[(i + 1) % 4]}; "
                       for i in range(1200)) + "0"
        assert main(["check", write("chain.mc", text)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_deep_equal_branches(self, write, capsys):
        # Projection compares the two branches' behaviours for q and r,
        # 400 actions each.
        body = "q.1 -> r; " * 400
        text = f"if p.true then {{ {body}0 }} else {{ {body}0 }}"
        assert main(["check", write("deep.mc", text)]) == 0
        assert capsys.readouterr().out.strip() == "ok"


class TestNesting:
    """Blocks nested more deeply than the parser could once read, through
    every command that reads a choreography, at the default recursion
    limit."""

    DEPTH = 400

    @pytest.mark.parametrize("argv, last", [
        (["check"], "ok"),
        (["project", "--mode", "sync"], "q[0]{ p?; 0 }"),
        (["project", "--mode", "async"], "q[0]{ p?; 0 }"),
        (["run", "--mode", "sync"], "-- terminated"),
        (["run", "--mode", "async"], "-- terminated"),
    ], ids=["check", "project-sync", "project-async", "run-sync",
            "run-async"])
    def test_nested_conditionals(self, write, capsys, argv, last):
        n = self.DEPTH
        path = write("nested.mc", "if p.true then { " * n + "p.1 -> q; 0" +
                     " } else { p.1 -> q; 0 }" * n)
        assert shallow(main, [argv[0], path, *argv[1:]]) == 0
        assert capsys.readouterr().out.strip().endswith(last)


class TestRun:
    def test_sync_run_output(self, write, capsys):
        path = write("run.mc", "p.1 -> q; 0")
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "#0 Com p,q v=1" in out
        assert out.strip().endswith("-- terminated")

    def test_record_trace_is_json(self, write, capsys):
        path = write("run.mc", "p.1 -> q; 0")
        assert main(["run", path, "--trace", "records"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert json.loads(first)["rule"] == "Com"

    def test_seeded_runs_are_byte_identical(self, write, capsys):
        path = write("run.mc", "p.1 -> q; r.2 -> s; p.3 -> r; 0")
        args = ["run", path, "--mode", "async", "--scheduler", "random",
                "--seed", "11"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_initial_state_flag(self, write, capsys):
        path = write("run.mc", "p.@ -> q; 0")
        assert main(["run", path, "--state", '{"p": 9}']) == 0
        assert "v=9" in capsys.readouterr().out

    def test_step_budget(self, write, capsys):
        path = write("loop.mc", "def X = { p.1 -> q; X } in X")
        assert main(["run", path, "--steps", "3"]) == 0
        assert capsys.readouterr().out.strip().endswith("-- budget")


    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_process_that_acts_only_at_the_end_of_a_long_chain(
            self, write, capsys, mode):
        # r and s first act after 2,000 communications between p and q, so
        # each step enumeration walks the whole chain.
        text = "p.1 -> q; q.2 -> p; " * 1000 + "r.3 -> s; 0"
        path = write("late.mc", text)
        assert main(["run", path, "--mode", mode, "--steps", "3"]) == 0
        assert capsys.readouterr().out.strip().endswith("-- budget")

    @pytest.mark.parametrize("steps", ["0", "1"])
    def test_stuck_program_at_any_budget(self, write, capsys, steps):
        path = write("stuck.mc", "q <~ (p, #0); 0")
        assert main(["run", path, "--steps", steps]) == 0
        assert capsys.readouterr().out == "-- deadlocked\n"


class TestInteractive:
    """``run --interactive`` reads each choice from standard input."""

    @pytest.fixture
    def answer(self, monkeypatch):
        def _answer(*replies):
            it = iter(replies)
            monkeypatch.setattr("builtins.input", lambda prompt="": next(it))
        return _answer

    def test_choices_run_to_termination(self, write, capsys, answer):
        path = write("i.mc", "p.1 -> q; q.2 -> r; 0")
        answer("1", "1")
        assert main(["run", path, "--interactive"]) == 0
        out = capsys.readouterr().out
        assert "  1. Com p,q v=1 :: q.2 -> r; 0\n" in out
        assert "#0 Com p,q v=1 :: q.2 -> r; 0" in out
        assert "#1 Com q,r v=2 :: 0" in out
        assert out.strip().endswith("-- terminated")

    def test_quit_interrupts(self, write, capsys, answer):
        path = write("i.mc", "p.1 -> q; q.2 -> r; 0")
        answer("q")
        assert main(["run", path, "--interactive"]) == 0
        out = capsys.readouterr().out
        assert "#0" not in out
        assert out.strip().endswith("-- interrupted")

    def test_bad_choice_asks_again_without_using_a_step(self, write, capsys,
                                                       answer):
        path = write("i.mc", "p.1 -> q; q.2 -> r; 0")
        answer("7", "x", "\u00b2", "1", "0", "1")
        assert main(["run", path, "--interactive", "--steps", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("invalid choice") == 4
        assert "#1 Com q,r v=2 :: 0" in captured.out
        assert captured.out.strip().endswith("-- terminated")


class TestProject:
    def test_sync_projection(self, write, capsys):
        path = write("p.mc", "p.1 -> q; 0")
        assert main(["project", path]) == 0
        assert capsys.readouterr().out.strip() == \
            "p[0]{ q!1; 0 } | q[0]{ p?; 0 }"

    def test_async_projection_seeds_queues(self, write, capsys):
        path = write("p.mc", "q <~ (p, 7); q.1 -> r; 0")
        assert main(["project", path, "--mode", "async"]) == 0
        assert "q[0]<(p, 7)>" in capsys.readouterr().out

    def test_output_file(self, write, tmp_path):
        path = write("p.mc", "p.1 -> q; 0")
        out = tmp_path / "net.sp"
        assert main(["project", path, "--out", str(out)]) == 0
        assert out.read_text().strip() == "p[0]{ q!1; 0 } | q[0]{ p?; 0 }"

    def test_not_projectable_exit_code(self, write):
        path = write("np.mc", "if p.true then { q.1 -> r; 0 } else { 0 }")
        assert main(["project", path]) == EXIT_NOT_PROJECTABLE

    def test_modes_project_the_collected_program(self, write, capsys):
        # The loop in the then-branch is never called, so q and r act
        # alike in both branches once it is collected.
        path = write("dead.mc", "if p.true then { def X = { q.1 -> r; X } "
                                "in 0 } else { 0 }")
        for mode in ("sync", "async"):
            assert main(["project", path, "--mode", mode]) == 0
            assert capsys.readouterr().out == \
                "p[0]{ if true then { 0 } else { 0 } }\n"

    def test_sync_projection_of_runtime_term_ill_formed(self, write):
        path = write("rt.mc", "q <~ (p, 7); 0")
        assert main(["project", path, "--mode", "sync"]) == EXIT_ILL_FORMED


def _matches(expected, actual):
    """Whether the lines ``actual`` match ``expected``, in which a line
    ``...`` stands for any number of lines."""
    if not expected:
        return not actual
    if expected[0] == "...":
        return any(_matches(expected[1:], actual[i:])
                   for i in range(len(actual) + 1))
    return bool(actual) and actual[0] == expected[0] and \
        _matches(expected[1:], actual[1:])


def test_readme_example(tmp_path, capsys, monkeypatch):
    """The example in README.md, each ``$ chorkit`` line run through
    :func:`main` and its output compared with the lines below it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Example:\n\n```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    commands = 0
    for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
        command, *expected = chunk.rstrip("\n").split("\n")
        words = shlex.split(command)
        if words[0] == "echo":
            assert words[2] == ">" and len(words) == 4, command
            Path(words[3]).write_text(words[1] + "\n")
            continue
        assert words[0] == "chorkit", command
        assert main(words[1:]) == 0, command
        actual = capsys.readouterr().out.splitlines()
        assert _matches(expected, actual), (command, actual)
        commands += 1
    assert commands == 2


class TestSimulate:
    def test_round_trip_with_project(self, write, tmp_path, capsys):
        src = write("p.mc", "p.1 -> q; q.2 -> r; 0")
        out = tmp_path / "net.sp"
        assert main(["project", src, "--out", str(out)]) == 0
        assert main(["simulate", str(out), "--mode", "async"]) == 0
        assert capsys.readouterr().out.strip().endswith("-- terminated")

    def test_deadlocked_network_reported(self, write, capsys):
        path = write("dead.sp", "p[0]{ q?; 0 } | q[0]{ p?; 0 }")
        assert main(["simulate", path, "--mode", "async"]) == 0
        assert capsys.readouterr().out.strip().endswith("-- deadlocked")


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["check", "--bogus"]) == EXIT_USAGE

    def test_python_dash_m_runs_the_command(self, write):
        # The package this test imports, run as ``python -m chorkit``.
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(
                   chorkit.__file__))}
        for text, code, out in (("p.1 -> q; 0", 0, "ok\n"),
                                ("p.1 ->", EXIT_PARSE, "")):
            done = subprocess.run(
                [sys.executable, "-m", "chorkit", "check",
                 write("m.mc", text)],
                capture_output=True, text=True, env=env, timeout=60)
            assert (done.returncode, done.stdout) == (code, out)

    def test_closed_output_is_no_traceback(self, write):
        # ``python -m chorkit run chain.mc | head -1``: the reader takes one
        # line of about 1.8 MB of trace and closes the pipe.
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(
                   chorkit.__file__))}
        path = write("chain.mc", "p.1 -> q; " * 600 + "0")
        with subprocess.Popen([sys.executable, "-m", "chorkit", "run", path],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline().startswith(b"#0 Com p,q v=1")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert b"Traceback" not in err and err == b""


class TestFilesAndRuntimeErrors:
    """Unusable files are usage errors and runtime errors have their own
    exit code, each with a one-line message, never a traceback."""

    @pytest.mark.parametrize("command", ["check", "run", "project",
                                         "simulate"])
    def test_missing_file(self, tmp_path, capsys, command):
        assert main([command, str(tmp_path / "missing")]) == EXIT_USAGE
        assert one_line_error(capsys, "usage error: cannot read")

    def test_directory_is_not_a_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == EXIT_USAGE
        assert one_line_error(capsys, "usage error: cannot read")

    def test_bytes_that_are_not_text_are_a_parse_error(self, tmp_path,
                                                      capsys):
        path = tmp_path / "bin.mc"
        path.write_bytes(b"p.1 -> q; \xff\xfe 0")
        assert main(["check", str(path)]) == EXIT_PARSE
        assert one_line_error(capsys, "parse error")

    @pytest.mark.parametrize("command", ["check", "run", "project"])
    @pytest.mark.parametrize("digits", ["9" * 23, "9" * 5000],
                             ids=["23-digits", "5000-digits"])
    def test_integer_outside_64_bits_is_a_parse_error(
            self, write, capsys, command, digits):
        path = write("big.mc", f"p.{digits} -> q; 0")
        assert main([command, path]) == EXIT_PARSE
        assert one_line_error(capsys, "parse error")

    def test_state_outside_64_bits_in_a_network_is_a_parse_error(
            self, write, capsys):
        path = write("big.sp", "p[" + "9" * 5000 + "]{ 0 }")
        assert main(["simulate", path]) == EXIT_PARSE
        assert one_line_error(capsys, "parse error")

    def test_unwritable_out(self, write, tmp_path, capsys):
        path = write("p.mc", "p.1 -> q; 0")
        out = str(tmp_path / "no-such-dir" / "net.sp")
        assert main(["project", path, "--out", out]) == EXIT_USAGE
        assert one_line_error(capsys, "usage error: cannot write")

    def test_unwritable_report(self, tmp_path, capsys):
        report = str(tmp_path / "no-such-dir" / "report.txt")
        assert main(["verify", "--theorem", "t1", "--depth", "1",
                     "--report", report]) == EXIT_USAGE
        assert one_line_error(capsys, "usage error: cannot write")

    def test_fresh_tag_past_64_bits_in_run(self, write, capsys):
        # Every tag up to 2^63-1 is taken, and no larger one parses.
        path = write("t.mc", "p.1 ~> [#9223372036854775807]; "
                     "q <~ (p, #9223372036854775807); p.2 -> q; 0")
        assert main(["run", path, "--mode", "async"]) == EXIT_RUNTIME
        assert one_line_error(capsys, "runtime error: no fresh tag above "
                              "#9223372036854775807")

    def test_non_boolean_guard_in_run(self, write, capsys):
        path = write("g.mc", "if p.1 then { 0 } else { 0 }")
        assert main(["run", path]) == EXIT_RUNTIME
        assert one_line_error(capsys, "runtime error: conditional guard")

    def test_non_boolean_guard_in_simulate(self, write, capsys):
        path = write("g.sp", "p[0]{ if 1 then { 0 } else { 0 } }")
        assert main(["simulate", path]) == EXIT_RUNTIME
        assert one_line_error(capsys, "runtime error: guard")

    def test_sync_simulation_of_queued_messages(self, write, capsys):
        path = write("q.sp", "p[0]<(q, 1)>{ q?; 0 } | q[0]{ 0 }")
        assert main(["simulate", path, "--mode", "sync"]) == EXIT_RUNTIME
        assert one_line_error(capsys, "runtime error:")

    @pytest.mark.parametrize("command, target",
                             [("run", "run_chor"), ("project", "epp_sync"),
                              ("simulate", "run_network")])
    def test_recursion_limit(self, write, capsys, monkeypatch, command,
                             target):
        def deep(*args):
            return deep(*args)

        monkeypatch.setattr(cli, target, deep)
        path = write("p.mc" if command != "simulate" else "p.sp",
                     "p.1 -> q; 0" if command != "simulate"
                     else "p[0]{ q!1; 0 } | q[0]{ p?; 0 }")
        assert main([command, path]) == EXIT_RUNTIME
        assert one_line_error(capsys, "runtime error: term nested too deeply")


class TestBudgets:
    """A negative step budget or depth is a usage error with a one-line
    message and no output; a budget of 0 is a run of no step."""

    FILES = {"run": ("p.mc", "p.1 -> q; 0"),
             "simulate": ("p.sp", "p[0]{ q!1; 0 } | q[0]{ p?; 0 }")}

    @pytest.mark.parametrize("argv, flag", [
        (["run", "p.mc", "--steps", "-3"], "--steps"),
        (["simulate", "p.sp", "--steps", "-3"], "--steps"),
        (["verify", "--depth", "-2"], "--depth")])
    def test_negative_budget_is_a_usage_error(self, write, capsys, argv,
                                              flag):
        if argv[0] in self.FILES:
            argv = [argv[0], write(*self.FILES[argv[0]]), *argv[2:]]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {flag} must not be negative\n"

    @pytest.mark.parametrize("command", ["run", "simulate"])
    def test_zero_steps(self, write, capsys, command):
        path = write(*self.FILES[command])
        assert main([command, path, "--steps", "0"]) == 0
        assert capsys.readouterr().out == "-- budget\n"


class TestVerify:
    def test_wf_alone(self, capsys):
        assert main(["verify", "--theorem", "wf", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "well-formedness-preservation prog000: pass" in out
        assert "epp-async-lockstep" not in out

    def test_t8_also_checks_well_formedness(self, capsys):
        assert main(["verify", "--theorem", "t8", "--depth", "1"]) == 0
        reports = [line.split(":")[0].split()
                   for line in capsys.readouterr().out.splitlines()
                   if " prog" in line]
        programs = len(generate_corpus(CorpusSpec()))
        assert reports == [
            [theorem, f"prog{i:03d}"] for i in range(programs)
            for theorem in ("epp-async-lockstep",
                            "well-formedness-preservation")]


class TestInitialState:
    """A ``--state`` that cannot be used is a usage error with a one-line
    message, never a traceback or the parse-error code."""

    BAD = ["{bad", "[1]", '{"p": 1.5}', '{"z": 1}', '{"p": null}',
           '{"p": "x\\ny"}', '{"p\\nq": 1}', '{"p": 9223372036854775808}',
           '{"p": -9223372036854775809}', '{"p": 1%s}' % ("0" * 30)]

    @pytest.mark.parametrize("command", ["run", "project"])
    @pytest.mark.parametrize("state", BAD)
    def test_bad_state_is_a_usage_error(self, write, capsys, command, state):
        path = write("s.mc", "p.@ -> q; 0")
        assert main([command, path, "--state", state]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("usage error: --state")
        assert "\n" not in err

    def test_more_digits_than_int_reads(self, write, capsys):
        path = write("s.mc", "p.@ -> q; 0")
        state = '{"p": %s}' % ("9" * 5000)
        assert main(["run", path, "--state", state]) == EXIT_USAGE
        assert one_line_error(capsys, "usage error: --state")

    @pytest.mark.parametrize("command", ["run", "project"])
    def test_good_state_still_accepted(self, write, capsys, command):
        path = write("s.mc", "p.@ -> q; 0")
        state = '{"p": 9, "q": true}'
        assert main([command, path, "--state", state]) == 0
        assert "9" in capsys.readouterr().out
