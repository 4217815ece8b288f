"""CLI contract: parsing, formats, exit codes, and every subcommand run."""

import argparse
import ast
import itertools
import json
from pathlib import Path

import pytest

from zqadd import progressions
from zqadd.chains import compute_mu
from zqadd.cli import (
    EXIT_BUDGET,
    EXIT_COUNTEREXAMPLE,
    EXIT_ERROR,
    EXIT_OK,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def command_paths(parser, prefix=()):
    """Every leaf subcommand of the parser, as a path like ("digital", "check")."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [prefix]
    return [path for a in subs for name, p in a.choices.items() for path in command_paths(p, (*prefix, name))]


def literal_runs():
    """The leading string arguments of each run(capsys, ...) call in this file."""
    tree = ast.parse(Path(__file__).read_text())
    return {
        tuple(a.value for a in itertools.takewhile(lambda a: isinstance(a, ast.Constant), node.args[1:]))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run"
    }


def test_every_subcommand_is_run_here():
    runs = literal_runs()
    missing = [path for path in command_paths(build_parser()) if not any(r[: len(path)] == path for r in runs)]
    assert missing == []


class TestXi:
    def test_example_value(self, capsys):
        code, out, _ = run(capsys, "xi", "--q", "7", "--set", "0,1,3", "--n", "2")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 5

    def test_set_literal_form(self, capsys):
        code, out, _ = run(capsys, "xi", "--set", "q=7;{0,1,3}", "--n", "2")
        assert code == EXIT_OK and json.loads(out)["value"] == 5

    def test_json_set_form(self, capsys):
        code, out, _ = run(
            capsys, "xi", "--set", '{"q": 7, "elements": [0, 1, 3]}', "--n", "2"
        )
        assert code == EXIT_OK and json.loads(out)["value"] == 5

    def test_budget_exit(self, capsys):
        code, out, _ = run(
            capsys,
            "xi", "--q", "20", "--set", ",".join(map(str, range(10))),
            "--n", "6", "--budget-nodes", "3",
        )
        assert code == EXIT_BUDGET
        assert json.loads(out)["exact"] is False


class TestErrors:
    def test_bare_list_without_q(self, capsys):
        code, _, err = run(capsys, "xi", "--set", "0,1,3", "--n", "2")
        assert code == EXIT_ERROR
        assert "--q" in err

    def test_malformed_literal(self, capsys):
        code, _, err = run(capsys, "xi", "--set", "q=;{1}", "--n", "1")
        assert code == EXIT_ERROR and "error" in err

    @pytest.mark.parametrize("form", ["q=7;{0,1}", '{"q": 7, "elements": [0, 1]}'])
    def test_q_must_match_the_set(self, capsys, form):
        code, out, err = run(capsys, "xi", "--q", "9", "--set", form, "--n", "2")
        assert code == EXIT_ERROR and out == "" and "--q 9" in err
        code, out, _ = run(capsys, "xi", "--q", "7", "--set", form, "--n", "2")
        assert code == EXIT_OK and json.loads(out)["q"] == 7

    @pytest.mark.parametrize("q", ["0", "-6"])
    def test_digital_enumerate_rejects_nonpositive_q(self, capsys, q):
        code, out, err = run(capsys, "digital", "enumerate", "--q", q, "--m", "3")
        assert code == EXIT_ERROR and out == "" and "error" in err

    def test_element_out_of_range(self, capsys):
        code, _, err = run(capsys, "alpha", "--q", "5", "--set", "0,9")
        assert code == EXIT_ERROR

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_ERROR

    def test_unknown_flag(self, capsys):
        # argparse would exit 2, which means "counterexample found"
        code, _, err = run(capsys, "xi", "--q", "5", "--set", "0,1", "--n", "2", "--bogus")
        assert code == EXIT_ERROR and "--bogus" in err

    def test_negative_budget(self, capsys):
        # a budget below 0 is an input error, not a spent budget (exit 3)
        code, out, err = run(capsys, "xi", "--q", "12", "--set", "0,1,5", "--n", "4", "--budget-nodes", "-1")
        assert code == EXIT_ERROR and out == "" and "budget" in err

    def test_stability_over_budget(self, capsys, monkeypatch):
        # a spent budget prints no report, only the reason
        monkeypatch.setattr(progressions, "STABILITY_BUDGET", 10)
        code, out, err = run(capsys, "stability", "--q", "20", "--set", "0,1,2,3,4,5")
        assert code == EXIT_BUDGET and out == "" and "budget exhausted" in err

    @pytest.mark.parametrize(
        "params, word",
        [(("--d2", "3", "--k", "-1"), "k_bound"), (("--d2", "0"), "d2"), (("--d2", "12"), "d2")],
    )
    def test_chains_rejects_negative_k_and_zero_d2(self, capsys, params, word):
        # an input error, not a counterexample (exit 2)
        code, out, err = run(capsys, "chains", "--q", "12", "--set", "0,1,2,5,7", "--d1", "1", *params)
        assert code == EXIT_ERROR and out == "" and word in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("mu", "--p", "7", "--budget-seconds", "1"),
            ("mu", "--p", "7", "--seed", "1"),
            ("construct", "--m", "3", "--q", "67"),
            ("alpha", "--q", "5", "--set", "0,1", "--workers", "2"),
            ("verify-all", "--budget-nodes", "10"),
            ("digital", "check", "--q", "8", "--set", "0,3", "--m", "2"),
            ("carries", "--q", "9", "--set", "0,1,2"),
            ("digital", "verify-extremal", "--m", "3"),
            ("digital", "verify-theorem1", "--q", "32"),
            ("digital", "verify-corollary", "--q", "16", "--m", "8"),
        ],
    )
    def test_removed_options(self, capsys, argv):
        assert run(capsys, *argv)[0] == EXIT_ERROR

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "xi", "--help")
        assert code == EXIT_OK and "--budget-nodes" in out


class TestFormats:
    def test_alpha_profile_csv(self, capsys):
        code, out, _ = run(
            capsys, "alpha", "--q", "10", "--set", "0,1,2,5,6", "--format", "csv"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,q,t"
        assert len(lines) == 10  # header + 9 differences

    def test_alpha_one_difference_csv(self, capsys):
        code, out, _ = run(
            capsys, "alpha", "--q", "10", "--set", "0,1,2,5,6", "--d1", "3", "--format", "csv"
        )
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["alpha,elements,q,t", '4,"[0, 1, 2, 5, 6]",10,3']

    def test_digital_enumerate_csv(self, capsys):
        code, out, _ = run(capsys, "digital", "enumerate", "--q", "4", "--m", "2", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "elements,m,q" and len(lines) == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ("mu", "--p", "11"),
            ("xi", "--q", "7", "--set", "0,1,3", "--n", "2"),
            ("construct", "--m", "3"),
            ("digital", "check", "--q", "8", "--set", "0,3"),
            ("verify", "mu", "--profile", "smoke"),
            ("verify-all", "--profile", "smoke"),
        ],
    )
    def test_csv_only_on_tabular_commands(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == EXIT_ERROR and out == "" and "invalid choice" in err

    def test_pretty(self, capsys):
        code, out, _ = run(
            capsys, "mu", "--p", "5", "--format", "pretty"
        )
        assert code == EXIT_OK and "mu: 4" in out


class TestSubcommands:
    def test_decomp(self, capsys):
        code, out, _ = run(capsys, "decomp", "--q", "12", "--set", "0,1,2,7,8", "--d1", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["alpha"] == 2 and data["progressions"] == [[0, 3], [7, 2]]

    def test_stability(self, capsys):
        code, out, _ = run(capsys, "stability", "--q", "20", "--set", "0,1,2,3,4,5")
        assert code == EXIT_OK and json.loads(out)["status"] == "stable"

    def test_uniqueness(self, capsys):
        elems = ",".join(map(str, list(range(5)) + [50, 51, 52]))
        code, out, _ = run(capsys, "uniqueness", "--q", "101", "--set", elems)
        assert code == EXIT_OK
        assert json.loads(out)["classification"] == "unique_pm_d"

    def test_digital_check(self, capsys):
        code, out, _ = run(capsys, "digital", "check", "--q", "8", "--set", "0,3")
        assert code == EXIT_OK and json.loads(out)["digital"] is True

    def test_digital_enumerate(self, capsys):
        code, out, _ = run(capsys, "digital", "enumerate", "--q", "4", "--m", "2")
        assert code == EXIT_OK and len(out.strip().splitlines()) == 4

    def test_carries(self, capsys):
        code, out, _ = run(capsys, "digital", "carries", "--q", "9", "--set", "0,1,2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["distinct_carries"] == [0, 1] and data["nonzero_pair_count"] == 3

    def test_carries_non_digital(self, capsys):
        code, _, err = run(capsys, "digital", "carries", "--q", "8", "--set", "0,2")
        assert code == EXIT_ERROR and "digital" in err

    def test_construct(self, capsys):
        code, out, _ = run(capsys, "construct", "--m", "3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["size"] == 36 and data["prime"] == 67
        assert data["chain_conditions_hold"] is True

    def test_mu(self, capsys):
        code, out, _ = run(capsys, "mu", "--p", "7")
        assert code == EXIT_OK and json.loads(out)["mu"] == 4

    def test_mu_counts_witnesses_containing_zero(self, capsys):
        code, out, _ = run(capsys, "mu", "--p", "13")
        data = json.loads(out)
        assert code == EXIT_OK
        assert (data["mu"], data["witness_count"], data["strategy"]) == (7, 28, "bounded")

    def test_mu_reports_search_effort_on_stderr(self, capsys):
        # one JSON line on stderr; the record on stdout carries no timing
        code, out, err = run(capsys, "mu", "--p", "13")
        (line,) = err.splitlines()
        effort = json.loads(line)
        assert code == EXIT_OK and sorted(effort) == ["mu", "nodes", "p", "seconds"]
        assert (effort["p"], effort["mu"], effort["nodes"]) == (13, 7, compute_mu(13).nodes)
        assert effort["seconds"] >= 0 and not {"nodes", "seconds"} & set(json.loads(out))

    def test_chains_counterexample_exit(self, capsys):
        # an interval has no valid chain family for these differences
        code, out, _ = run(
            capsys, "chains", "--q", "12", "--set", "0,1,2,3,4,5", "--d1", "1", "--d2", "5"
        )
        assert code == EXIT_COUNTEREXAMPLE
        assert json.loads(out)["violations"]

    @pytest.mark.parametrize("d1", ["-1", "12"])
    def test_chains_rejects_a_bad_difference(self, capsys, d1):
        # d1 must be a divisor of q in (0, q); bad input is not a counterexample
        code, out, err = run(
            capsys, "chains", "--q", "12", "--set", "0,1,2,3,5,6,7,9", "--d1", d1, "--d2", "5"
        )
        assert code == EXIT_ERROR and out == "" and "d1" in err


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "mu", "--profile", "smoke", "--seed", "42"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["passed"] is True
        assert [s["suite"] for s in report["suites"]] == ["mu"]

    def test_pretty_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "construction", "--profile", "smoke", "--format", "pretty"
        )
        assert code == EXIT_OK and "construction: pass" in out

    def test_repeated_suite_runs_once(self, capsys):
        code, out, _ = run(capsys, "verify", "construction", "construction", "--profile", "smoke")
        assert code == EXIT_OK
        assert [s["suite"] for s in json.loads(out)["suites"]] == ["construction"]

    def test_verify_all(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--profile", "smoke", "--format", "pretty")
        assert code == EXIT_OK and out.splitlines()[-1] == "overall: pass"
