"""End-to-end CLI runs, formats, exit codes, determinism."""

import functools
import json
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest

from countgen import cfg, cli, describe, dfa, nfa, pda, pseudobool, traces
from countgen.cli import dispatch
from countgen.describe import SampleReport


AB_STAR = """
states 2
alphabet a b
start 0
finals 0
trans 0 a 1
trans 0 b 2
trans 1 a 2
trans 1 b 0
trans 2 a 2
trans 2 b 2
"""
# state 2 is a sink; fix the table: 3 states
AB_STAR = AB_STAR.replace("states 2", "states 3")

CATALAN = """
var S
term a
start S
S -> S S
S -> a
"""

TWO_ROUTE_NFA = """
states 2
alphabet a
start 0
finals 1
ambiguity 2
trans 0 a 1
trans 0 a 1
"""

# (a|b)*, as a DFA and as an NFA
SIGMA_DFA = """
states 1
alphabet a b
start 0
finals 0
trans 0 a 0
trans 0 b 0
"""
SIGMA_NFA = SIGMA_DFA + "ambiguity 1\n"

# a*, as a DFA and as an NFA
ASTAR_DFA = "states 1\nalphabet a\nstart 0\nfinals 0\ntrans 0 a 0\n"
ASTAR_NFA = ASTAR_DFA + "ambiguity 1\n"

# b(a|b)*, unambiguous
B_THEN_ANY_NFA = """
states 2
alphabet a b
start 0
finals 1
ambiguity 1
trans 0 b 1
trans 1 a 1
trans 1 b 1
"""

# a*: both start states are final, so the empty word has two accepting
# paths and every other member one
EPS_NFA = """
states 2
alphabet a
start 0 1
finals 0 1
ambiguity 2
trans 0 a 0
"""

ANBN_PDA = """
state load drain pusha popb
input a b
stack Z X
init Z
final drain
consume load a Z pusha
consume load a X pusha
push pusha Z X load
push pusha X X load
consume load b X popb
consume drain b X popb
pop popb X drain
"""

TRACE_FILE = """
states 2
alphabet a b
start 0
finals 1
trans 0 a 1
trans 0 b 1
trans 1 a 1
trans 1 b 1
indep a b
"""

# an even number of a's over abc, with a and b independent
EVEN_A_TRACE = """
states 2
alphabet a b c
start 0
finals 0
trans 0 a 1
trans 0 b 0
trans 0 c 0
trans 1 a 0
trans 1 b 1
trans 1 c 1
indep a b
"""

DYCK_PDA = """
state run run@a run@b
input a b
stack Z X
init Z
final run
consume run a Z run@a
consume run a X run@a
push run@a Z X run
push run@a X X run
consume run b X run@b
pop run@b X run
"""

ONES3 = "3\n1 1 1\n1 1 1\n1 1 1\n"
ONES9 = "9\n" + "1 1 1 1 1 1 1 1 1\n" * 9
CNF2 = "3 2\n1 2 3\n-1 2 -3\n"
K3 = "3 3\n1 2\n2 3\n1 3\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("ab.dfa", AB_STAR),
        ("catalan.cfg", CATALAN),
        ("two.nfa", TWO_ROUTE_NFA),
        ("b_then_any.nfa", B_THEN_ANY_NFA),
        ("sigma.dfa", SIGMA_DFA),
        ("sigma.nfa", SIGMA_NFA),
        ("astar.dfa", ASTAR_DFA),
        ("astar.nfa", ASTAR_NFA),
        ("eps.nfa", EPS_NFA),
        ("anbn.pda", ANBN_PDA),
        ("trace.dfa", TRACE_FILE),
        ("ones3.mat", ONES3),
        ("ones9.mat", ONES9),
        ("two.cnf", CNF2),
        ("k3.graph", K3),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run_cli(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_cfg_count(self, files, capsys):
        code, out, _ = run_cli(["cfg", "count", "-g", files["catalan.cfg"], "-n", "4"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "5"

    def test_dfa_sample_deterministic_singleton(self, files, capsys):
        code, out, _ = run_cli(
            ["dfa", "sample", "-a", files["ab.dfa"], "-n", "2", "--seed", "7"], capsys
        )
        assert code == 0
        assert out.startswith("ab")

    def test_pb_perm_fraction(self, files, capsys):
        code, out, _ = run_cli(
            ["pb", "perm", "-m", files["ones3.mat"], "--method", "fraction"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "6"

    def test_dfa_rank_unrank(self, files, capsys):
        code, out, _ = run_cli(["dfa", "rank", "-a", files["ab.dfa"], "-w", "abab"], capsys)
        assert code == 0
        rank = int(out.split()[0])
        code, out, _ = run_cli(["dfa", "unrank", "-a", files["ab.dfa"], "-k", str(rank)], capsys)
        assert code == 0
        assert out.splitlines()[0] == "abab"

    @pytest.mark.parametrize("family", ["dfa", "nfa"])
    def test_both_families_rank_length_first(self, files, capsys, family):
        spec = files[f"sigma.{family}"]
        assert run_cli([family, "rank", "-a", spec, "-w", "ab", "--oracle"], capsys) == (
            0, "5\noracle ok\n", "")
        assert run_cli([family, "unrank", "-a", spec, "-k", "5", "--oracle"], capsys) == (
            0, "ab\noracle ok\n", "")

    @pytest.mark.parametrize("family", ["dfa", "nfa"])
    def test_unrank_past_the_longest_slice_is_refused(self, files, capsys, family):
        spec = files[f"astar.{family}"]
        assert run_cli([family, "unrank", "-a", spec, "-k", "1000000000"], capsys) == (
            1, "", "error: SizeGuard: rank 1000000000 not reached by length 4096\n")

    def test_nfa_count(self, files, capsys):
        code, out, _ = run_cli(["nfa", "count", "-a", files["two.nfa"], "-n", "1"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "1"

    def test_pda_grammar_and_sample(self, files, capsys):
        code, out, _ = run_cli(["pda", "grammar", "-m", files["anbn.pda"], "-n", "2"], capsys)
        assert code == 0
        assert "start" in out
        code, out, _ = run_cli(
            [
                "pda", "sample", "-m", files["anbn.pda"], "-n", "4",
                "--ambiguity", "1", "--seed", "3",
            ],
            capsys,
        )
        assert code in (0, 2)
        if code == 0:
            assert out.split()[0] == "aabb"

    def test_trace_count(self, files, capsys):
        code, out, _ = run_cli(
            ["trace", "count", "-a", files["trace.dfa"], "-w", "ab"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "2"

    def test_pb_derand_cnf(self, files, capsys):
        code, out, _ = run_cli(["pb", "derand", "--cnf", files["two.cnf"]], capsys)
        assert code == 0
        assert len(out.splitlines()[0]) == 3

    def test_pb_derand_graph_with_local(self, files, capsys):
        code, out, _ = run_cli(
            ["pb", "derand", "--graph", files["k3.graph"], "--local-radius", "1"],
            capsys,
        )
        assert code == 0

    def test_cfg_tree_sampling(self, files, capsys):
        code, out, _ = run_cli(
            ["cfg", "sample", "-g", files["catalan.cfg"], "-n", "3", "--tree", "--seed", "1"],
            capsys,
        )
        assert code in (0, 2)
        if code == 0:
            assert out.startswith("(S")

    def test_cfg_word_sampling(self, files, capsys):
        code, out, _ = run_cli(
            [
                "cfg", "sample", "-g", files["catalan.cfg"], "-n", "3",
                "--ambiguity", "2", "--seed", "5",
            ],
            capsys,
        )
        assert code in (0, 2)
        if code == 0:
            assert out.split()[0] == "aaa"


class TestOracles:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dfa", "count", "-a", "{ab.dfa}", "-n", "4", "--oracle"],
            ["dfa", "rank", "-a", "{ab.dfa}", "-w", "ab", "--oracle"],
            ["dfa", "unrank", "-a", "{ab.dfa}", "-k", "3", "--oracle"],
            ["nfa", "count", "-a", "{two.nfa}", "-n", "1", "--oracle"],
            ["nfa", "rank", "-a", "{two.nfa}", "-w", "a", "--oracle"],
            ["cfg", "count", "-g", "{catalan.cfg}", "-n", "5", "--oracle"],
            ["trace", "count", "-a", "{trace.dfa}", "-w", "ab", "--oracle"],
            ["pb", "perm", "-m", "{ones3.mat}", "--method", "coefficient", "--oracle"],
            ["pb", "derand", "--cnf", "{two.cnf}", "--oracle"],
        ],
    )
    def test_oracle_flag(self, files, capsys, argv):
        argv = [files[t[1:-1]] if t.startswith("{") else t for t in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert "oracle ok" in out

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--cnf", "2 5\n-1\n-2\n2 1 2\n1 2\n-2 -2 1\n"),
            ("--graph", "2 1\n1 1\n"),
            ("--cnf", "2 0\n"),
            ("--graph", "2 0\n"),
        ],
        ids=["repeated-literal", "self-loop", "no-clauses", "no-edges"],
    )
    def test_derand_objective_builders(self, tmp_path, capsys, flag, text):
        spec = tmp_path / "objective"
        spec.write_text(text)
        code, out, err = run_cli(["pb", "derand", flag, str(spec), "--oracle"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "oracle ok"

    def test_non_multilinear_circuit_exits_one(self, tmp_path, capsys):
        # x1 * (1 - 4 x2 + 4 x2^2)
        spec = tmp_path / "square.circ"
        spec.write_text(
            "0 in 1\n1 in 2\n2 const 1\n3 const -1\n4 mul 3 1\n5 add 2 4 4 4 4\n"
            "6 mul 1 1\n7 add 5 6 6 6 6\n8 mul 0 7\nout 8\n"
        )
        assert run_cli(["pb", "derand", "--circuit", str(spec), "--oracle"], capsys) == (
            1, "", "error: objective is not multilinear: a product repeats x2\n"
        )


    def test_dead_squarings_are_not_evaluated(self, tmp_path, capsys):
        # x1 squared 20 times, then added to x2, with output x2
        spec = tmp_path / "dead.circ"
        squarings = "".join(f"{i} mul {i - 1} {i - 1}\n" for i in range(1, 21))
        spec.write_text(f"0 in 1\n{squarings}21 in 2\n22 add 20 21\nout 21\n")
        assert run_cli(["pb", "derand", "--circuit", str(spec)], capsys) == (0, "01\n", "")


class TestFormatsAndErrors:
    def test_json_lines(self, files, capsys):
        code, out, _ = run_cli(
            [
                "cfg", "count", "-g", files["catalan.cfg"], "-n", "4",
                "--format", "json-lines",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["value"] == "5"
        assert set(record) == {"value", "trials", "bits", "seed"}

    def test_repeat_emits_lines_with_distinct_seeds(self, files, capsys):
        code, out, _ = run_cli(
            [
                "dfa", "sample", "-a", files["ab.dfa"], "-n", "4",
                "--repeat", "3", "--format", "json-lines",
            ],
            capsys,
        )
        assert code in (0, 2)
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3
        assert len({r["seed"] for r in records}) == 3

    def test_bad_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.dfa"
        bad.write_text("nonsense\n")
        code, _, err = run_cli(["dfa", "count", "-a", str(bad), "-n", "2"], capsys)
        assert code == 1
        assert err

    def test_unknown_flag_exits_one(self, files, capsys):
        code = dispatch(["dfa", "count", "-a", files["ab.dfa"], "--nope"])
        capsys.readouterr()
        assert code == 1

    def test_fail_exit_code_two(self, tmp_path, capsys):
        # empty-slice style failure is a validation error (exit 1); force a
        # genuine sampling FAIL by giving the sampler one trial on a thin slice
        grammar = tmp_path / "g.cfg"
        grammar.write_text(CATALAN)
        seen = set()
        for seed in range(200):
            code = dispatch(
                [
                    "cfg", "sample", "-g", str(grammar), "-n", "5",
                    "--ambiguity", "14", "--trials", "1", "--seed", str(seed),
                ]
            )
            out = capsys.readouterr().out
            seen.add(code)
            if code == 2:
                assert "FAIL (⊥)" in out
        assert 2 in seen


class TestRangeValidation:
    @pytest.mark.parametrize("k", ["0", "-5"])
    def test_nfa_unrank_rank_below_one(self, files, capsys, k):
        code, out, err = run_cli(["nfa", "unrank", "-a", files["b_then_any.nfa"], "-k", k], capsys)
        assert code == 1
        assert out == ""
        assert "RankOutOfRange" in err

    def test_nfa_unrank_members_then_above_census(self, files, capsys):
        words = []
        for k in range(1, 8):
            argv = ["nfa", "unrank", "-a", files["b_then_any.nfa"], "-k", str(k)]
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            words.append(out.splitlines()[0])
        assert words == ["b", "ba", "bb", "baa", "bab", "bba", "bbb"]
        # two.nfa accepts only "a"
        assert run_cli(["nfa", "unrank", "-a", files["two.nfa"], "-k", "2"], capsys) == (
            1, "", "error: RankOutOfRange: language has only 1 members\n"
        )

    @pytest.mark.parametrize("op", ["count", "sample"])
    def test_nfa_negative_length(self, files, capsys, op):
        # eps.nfa accepts the empty word: a length-0 answer would print 1
        code, out, err = run_cli(["nfa", op, "-a", files["eps.nfa"], "-n", "-2"], capsys)
        assert code == 1
        assert out == ""
        assert "length must be nonnegative" in err

    @pytest.mark.parametrize("delta", ["0", "2", "1", "-1/2"])
    def test_dfa_sample_delta_outside_unit_interval(self, files, delta):
        argv = [
            sys.executable, "-m", "countgen.cli",
            "dfa", "sample", "-a", files["ab.dfa"], "-n", "2", f"--delta={delta}",
        ]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "family, text, old, new",
        [
            ("dfa", AB_STAR, "trans 1 b 0", "trans -1 b 0"),
            ("dfa", AB_STAR, "start 0", "start 3"),
            ("nfa", B_THEN_ANY_NFA, "trans 0 b 1", "trans -1 b 1"),
            ("nfa", B_THEN_ANY_NFA, "start 0", "start 0 7"),
        ],
        ids=["dfa-negative-source", "dfa-start", "nfa-negative-source", "nfa-extra-start"],
    )
    def test_state_out_of_range_exits_one(self, tmp_path, capsys, family, text, old, new):
        spec = tmp_path / f"bad.{family}"
        spec.write_text(text.replace(old, new))
        code, out, err = run_cli([family, "count", "-a", str(spec), "-n", "2"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: state ")

    @pytest.mark.parametrize(
        "argv, text",
        [
            (
                ["nfa", "count", "-n", "1", "-a"],
                "states 1\nalphabet ab c\nstart 0\nfinals 0\nambiguity 1\n"
                "trans 0 ab 0\ntrans 0 c 0\n",
            ),
            (["dfa", "count", "-n", "2", "-a"], AB_STAR.replace("start 0", "start 0 1")),
            (["pb", "derand", "--graph"], "2 1\n0 1\n"),
        ],
        ids=["nfa-multichar-symbol", "dfa-two-starts", "graph-vertex-zero"],
    )
    def test_malformed_spec_exits_one(self, tmp_path, capsys, argv, text):
        spec = tmp_path / "bad.spec"
        spec.write_text(text)
        code, out, err = run_cli(argv + [str(spec)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["pb", "perm", "-m"], "2\n1 1\n1 1\n0 0\n", "expected 2 rows of 2 entries"),
            (["pb", "perm", "-m"], "2 9\n1 1\n1 1\n", "first line '2 9' must be 'n'"),
            (["pb", "perm", "-m"], "2\n1 1\n1\n", "line 3: expected 2 entries, found 1"),
            (["pb", "derand", "--graph"], "3 1\n1 2 3\n", "line 2: edge '1 2 3' must be 'u v'"),
            (["pb", "derand", "--graph"], "3 1 7\n1 2\n", "first line '3 1 7' must be 'n m'"),
        ],
        ids=["matrix-extra-row", "matrix-size-line", "matrix-short-row", "graph-edge-line",
             "graph-header"],
    )
    def test_trailing_input_refused(self, tmp_path, capsys, argv, text, message):
        spec = tmp_path / "bad.spec"
        spec.write_text(text)
        assert run_cli(argv + [str(spec)], capsys) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "family, text, n, count",
        [("dfa", AB_STAR, "4", "1"), ("nfa", TWO_ROUTE_NFA, "1", "1")],
        ids=["dfa", "nfa"],
    )
    def test_commented_automaton(self, tmp_path, capsys, family, text, n, count):
        spec = tmp_path / f"commented.{family}"
        spec.write_text("".join(f"{line} # note\n" for line in text.splitlines()))
        argv = [family, "count", "-a", str(spec), "-n", n, "--oracle"]
        assert run_cli(argv, capsys) == (0, f"{count}\noracle ok\n", "")

    @pytest.mark.parametrize("flag", ["--trials", "--repeat"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_counts_below_one_exit_one(self, files, capsys, flag, value):
        argv = ["cfg", "sample", "-g", files["catalan.cfg"], "-n", "3", flag, value]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert f"argument {flag}: {value} is below 1" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_ceiling_below_one_exits_one(self, files, capsys, value):
        argv = ["cfg", "exact", "-g", files["catalan.cfg"], "-n", "3", "--ceiling", value]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.endswith(f"error: argument --ceiling: {value} is below 1\n")

    @pytest.mark.parametrize("op", ["count", "sample", "estimate", "exact"])
    def test_cfg_length_zero_is_refused(self, files, capsys, op):
        # the described ops named an empty carrier slice instead
        argv = ["cfg", op, "-g", files["catalan.cfg"], "-n", "0"]
        assert run_cli(argv, capsys) == (1, "", "error: yield length must be >= 1\n")


class TestDeterminism:
    def test_byte_identical_runs(self, files):
        argv = [
            sys.executable, "-m", "countgen.cli",
            "cfg", "sample", "-g", files["catalan.cfg"], "-n", "5",
            "--ambiguity", "14", "--seed", "42", "--format", "json-lines",
        ]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode

    # the value and the bit count of an estimate are pinned: a faster trial
    # must draw the same bits (the same lines are checked in CI)
    @pytest.mark.parametrize(
        "family, name, text, argv, line",
        [
            ("trace", "even.trace", EVEN_A_TRACE,
             "-n 5 --ambiguity 10 --epsilon 1/2 --seed 5",
             '{"value": "292312/3777", "trials": 1, "bits": 32283, "seed": 5}'),
            ("pda", "dyck.pda", DYCK_PDA,
             "-n 8 --ambiguity 1,1,1 --epsilon 1/2 --seed 5",
             '{"value": "14/1", "trials": 1, "bits": 16321, "seed": 5}'),
        ],
        ids=["trace", "pda"],
    )
    def test_pinned_estimate_lines(self, tmp_path, capsys, family, name, text, argv, line):
        spec = tmp_path / name
        spec.write_text(text)
        flag = "-a" if family == "trace" else "-m"
        argv = [family, "estimate", flag, str(spec), *argv.split(), "--format", "json-lines"]
        assert run_cli(argv, capsys) == (0, line + "\n", "")

    # the tree sampler's tape is pinned too: a faster sampler must draw the
    # same bits (the same line is checked in CI)
    def test_pinned_tree_line(self, files, capsys):
        argv = ["cfg", "sample", "-g", files["catalan.cfg"], "-n", "12", "--tree",
                "--seed", "3", "--format", "json-lines"]
        tree = ("(S (S (S (S (S (S (S a) (S (S a) (S a))) (S (S a) (S a))) (S a)) (S a))"
                " (S a)) (S (S a) (S (S a) (S (S a) (S a)))))")
        line = f'{{"value": "{tree}", "trials": 1, "bits": 59, "seed": 3}}'
        assert run_cli(argv, capsys) == (0, line + "\n", "")


# ---------------------------------------------------------------------------
# The CLI's family table: every (family, op) entry below is taken from it,
# so a new op fails these tests until it has a command, and a wrong-answer
# patch when it has an oracle.

ENTRIES = [(family, key) for family, row in cli._FAMILIES.items() for key in row.ops]
WITH_ORACLE = [e for e in ENTRIES if cli._FAMILIES[e[0]].ops[e[1]].oracle is not None]

# one small command per entry, after "<family> <op>"
ENTRY_ARGS = {
    ("dfa", "count"): "-a {ab.dfa} -n 4",
    ("dfa", "sample"): "-a {ab.dfa} -n 4 --seed 7",
    ("dfa", "rank"): "-a {ab.dfa} -w abab",
    ("dfa", "unrank"): "-a {ab.dfa} -k 3",
    ("nfa", "count"): "-a {b_then_any.nfa} -n 3",
    ("nfa", "sample"): "-a {b_then_any.nfa} -n 3 --seed 3",
    ("nfa", "rank"): "-a {b_then_any.nfa} -w bab",
    ("nfa", "unrank"): "-a {b_then_any.nfa} -k 5",
    ("cfg", "count"): "-g {catalan.cfg} -n 4",
    ("cfg", "sample"): "-g {catalan.cfg} -n 3 --ambiguity 2 --seed 5",
    ("cfg", "sample --tree"): "-g {catalan.cfg} -n 3 --seed 1",
    ("cfg", "estimate"): "-g {catalan.cfg} -n 3 --ambiguity 2 --epsilon 1/2 --seed 2",
    ("cfg", "exact"): "-g {catalan.cfg} -n 3 --ambiguity 2 --seed 2",
    ("pda", "grammar"): "-m {anbn.pda} -n 2",
    ("pda", "sample"): "-m {anbn.pda} -n 4",
    ("pda", "estimate"): "-m {anbn.pda} -n 4",
    ("pda", "exact"): "-m {anbn.pda} -n 4",
    ("trace", "count"): "-a {trace.dfa} -w ab",
    ("trace", "sample"): "-a {trace.dfa} -n 3 --ambiguity 0,0,6 --seed 4",
    ("trace", "estimate"): "-a {trace.dfa} -n 2 --ambiguity 2 --epsilon 1/2 --seed 4",
    ("pb", "derand"): "--cnf {two.cnf}",
    ("pb", "search"): "--graph {k3.graph} --seed 8",
    ("pb", "perm"): "-m {ones3.mat} --method fraction",
}


def entry_argv(files, family, key):
    tail = [files[t[1:-1]] if t.startswith("{") else t for t in ENTRY_ARGS[family, key].split()]
    return [family, *key.split(), *tail]


def _returns(value):
    return lambda *args, **kwargs: value


_permanent = pseudobool.permanent

# (module, attribute, replacement): the entry's library call gives a wrong answer
WRONG = {
    ("dfa", "count"): (dfa, "dfa_census", _returns(SimpleNamespace(count=_returns(99)))),
    ("dfa", "sample"): (dfa, "dfa_sample", _returns("baab")),
    ("dfa", "rank"): (dfa, "dfa_rank", _returns(99)),
    ("dfa", "unrank"): (dfa, "dfa_unrank", _returns("ba")),
    ("nfa", "count"): (nfa, "nfa_slice_census", _returns(99)),
    ("nfa", "sample"): (nfa, "nfa_sample_slice", _returns("abb")),
    ("nfa", "rank"): (nfa, "nfa_rank", _returns(99)),
    ("nfa", "unrank"): (nfa, "nfa_unrank", _returns("bbb")),
    ("cfg", "count"): (cfg, "tree_census", _returns(99)),
    ("cfg", "sample"): (describe, "sample_report", _returns(SampleReport("aa", 1, 0))),
    ("cfg", "sample --tree"): (cfg, "random_tree", _returns(("S", "a"))),
    ("cfg", "estimate"): (describe, "estimate_census", _returns(Fraction(99))),
    ("cfg", "exact"): (describe, "exact_count", _returns(99)),
    ("pda", "sample"): (describe, "sample_report", _returns(SampleReport("abab", 1, 0))),
    ("pda", "estimate"): (describe, "estimate_census", _returns(Fraction(99))),
    ("pda", "exact"): (describe, "exact_count", _returns(99)),
    ("trace", "count"): (traces, "count_representatives", _returns(99)),
    # "bab" is not the least word of its class {abb, bab, bba}
    ("trace", "sample"): (describe, "sample_report", _returns(SampleReport("bab", 1, 0))),
    ("trace", "estimate"): (describe, "estimate_census", _returns(Fraction(99))),
    ("pb", "derand"): (pseudobool, "derandomize", _returns((0, 0, 0))),
    ("pb", "perm"): (
        pseudobool,
        "permanent",
        lambda a, method="bruteforce": _permanent(a, method) + (method != "bruteforce"),
    ),
}


class TestFamilyTable:
    def test_every_entry_has_a_command(self):
        assert set(ENTRY_ARGS) == set(ENTRIES)

    def test_only_grammar_and_search_lack_an_oracle(self):
        assert set(ENTRIES) - set(WITH_ORACLE) == {("pda", "grammar"), ("pb", "search")}

    @pytest.mark.parametrize("family, key", ENTRIES)
    def test_oracle_checks_or_refuses(self, files, capsys, family, key):
        code, out, err = run_cli(entry_argv(files, family, key) + ["--oracle"], capsys)
        if (family, key) in WITH_ORACLE:
            assert code == 0, err
            assert out.splitlines()[1] == "oracle ok"
        else:
            assert code == 1
            assert out == ""
            assert err == f"error: no oracle for {family} {key}\n"

    @pytest.mark.parametrize("family, key", WITH_ORACLE)
    def test_wrong_answer_is_caught(self, files, capsys, monkeypatch, family, key):
        module, name, wrong = WRONG[family, key]
        monkeypatch.setattr(module, name, wrong)
        code, out, err = run_cli(entry_argv(files, family, key) + ["--oracle"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("oracle mismatch: ")

    @pytest.mark.parametrize("family", cli._FAMILIES)
    def test_flags_the_family_does_not_read_are_refused(self, files, capsys, family):
        row = cli._FAMILIES[family]
        base = entry_argv(files, family, next(iter(row.ops)))
        refused = [d for d in cli._FLAGS if d not in cli._family_flags(row)]
        assert refused
        for dest in refused:
            flag = cli._FLAGS[dest][0].split()[-1]
            value = [] if cli._FLAGS[dest][1].get("action") == "store_true" else ["1"]
            code, out, err = run_cli(base + [flag] + value, capsys)
            assert code == 1, flag
            assert "unrecognized arguments" in err

    @pytest.mark.parametrize("family, key", ENTRIES)
    def test_flags_the_op_does_not_read_are_refused(self, files, capsys, family, key):
        row = cli._FAMILIES[family]
        read = set(row.spec) | set(row.ops[key].flags) | set(cli._OUTPUT_FLAGS)
        if f"{key} --tree" in row.ops:
            read.add("tree")  # selects that op instead
        for dest in sorted(cli._family_flags(row) - read):
            names, options = cli._FLAGS[dest]
            flag = names.split()[-1]
            value = [] if options.get("action") == "store_true" else [
                "fraction" if dest == "method" else "1"]
            code, out, err = run_cli(entry_argv(files, family, key) + [flag] + value, capsys)
            assert code == 1, flag
            assert out == ""
            assert err == f"error: {family} {key} does not read {flag}\n"

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (["cfg", "count", "-g", "{catalan.cfg}", "-n", "4", "--tree"], "cfg count does not read --tree"),
            (["dfa", "count", "-a", "{ab.dfa}", "-n", "4", "--seed", "9"], "dfa count does not read --seed"),
            (["dfa", "count", "-a", "{ab.dfa}", "-n", "4", "--seed", "0"], "dfa count does not read --seed"),
            (["cfg", "sample", "-g", "{catalan.cfg}", "-n", "3", "--tree", "--ambiguity", "2", "--trials", "3"],
             "cfg sample --tree does not read --ambiguity, --trials"),
            (["trace", "count", "-a", "{trace.dfa}", "-w", "ab", "-n", "2"], "trace count does not read -n"),
            (["pb", "perm", "-m", "{ones3.mat}", "--cnf", "{two.cnf}"], "pb perm does not read --cnf"),
            (["nfa", "unrank", "-a", "{b_then_any.nfa}", "-n", "2", "-k", "2"], "nfa unrank does not read -n"),
        ],
    )
    def test_unread_flag_is_named(self, files, capsys, argv, refused):
        argv = [files[t[1:-1]] if t.startswith("{") else t for t in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {refused}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["dfa", "count", "-a", "{ab.dfa}", "-n", "2", "--epsilon", "1/2"],
            ["trace", "sample", "-a", "{trace.dfa}", "-n", "2", "--ceiling", "3"],
            ["pb", "derand", "--cnf", "{two.cnf}", "--trials", "2"],
        ],
    )
    def test_unread_flag_exits_one(self, files, capsys, argv):
        argv = [files[t[1:-1]] if t.startswith("{") else t for t in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    def test_perm_keeps_the_library_guard(self, files, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(["pb", "perm", "-m", files["ones9.mat"]], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert "SizeGuard" in err


class TestLongIntegers:
    """Integers past Python's integer-to-string digit limit print exactly."""

    def test_dfa_count_past_the_digit_limit(self, files, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        argv = ["dfa", "count", "-a", files["sigma.dfa"], "-n", "14300"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert len(out) == 4306 and int(Decimal(out)) == 2**14300
        code, out, err = run_cli(argv + ["--format", "json-lines"], capsys)
        assert (code, err) == (0, "")
        assert int(Decimal(json.loads(out)["value"])) == 2**14300
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_nfa_count_json_lines(self, files, capsys):
        argv = ["nfa", "count", "-a", files["sigma.nfa"], "-n", "14300", "--format", "json-lines"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert int(Decimal(json.loads(out)["value"])) == 2**14300

    def test_render_is_exact(self):
        shown = cli._render(Fraction(2**14300, 3))
        numerator, denominator = shown.split("/")
        assert (int(Decimal(numerator)), denominator) == (2**14300, "3")
        # values under the limit print as str does
        assert [cli._render(v) for v in (0, -7, 12345, Fraction(-3, 4), Fraction(5))] == [
            "0", "-7", "12345", "-3/4", "5/1"
        ]


class TestOneDescriptionPerRun:
    def test_repeat_builds_one_slice_grammar(self, tmp_path, capsys, monkeypatch):
        machine = tmp_path / "dyck.pda"
        machine.write_text(DYCK_PDA)
        head = ["pda", "sample", "-m", str(machine), "-n", "8", "--ambiguity", "1,1,1",
                "--format", "json-lines"]
        built = []
        original = pda.build_slice_grammar
        monkeypatch.setattr(
            pda, "build_slice_grammar", lambda *args: built.append(args) or original(*args)
        )
        code, out, err = run_cli(head + ["--seed", "4", "--repeat", "3"], capsys)
        assert (code, err) == (0, "")
        assert len(built) == 1
        records = out.splitlines()
        assert len(records) == 3
        for line in records:
            seed = json.loads(line)["seed"]
            code, single, _ = run_cli(head + ["--seed", str(seed)], capsys)
            assert code == 0
            assert single.splitlines() == [line]
        assert len(built) == 4  # one more per run, none shared across runs


class TestOneParserPerProcess:
    """The parser is built at the first dispatch and reused; no call sees
    another's flags."""

    def sequence(self, files):
        ab, catalan = files["ab.dfa"], files["catalan.cfg"]
        return [
            ["dfa", "sample", "-a", ab, "-n", "4", "--seed", "5"],
            ["dfa", "sample", "-a", ab, "-n", "4"],
            ["cfg", "sample", "-g", catalan, "-n", "3", "--tree", "--seed", "1"],
            ["cfg", "sample", "-g", catalan, "-n", "3", "--ambiguity", "2", "--seed", "1"],
            ["dfa", "count", "-a", ab, "-n", "4", "--seed", "9"],
            ["dfa", "count", "-a", ab, "-n", "4"],
            ["cfg", "count", "-g", catalan, "-n", "4", "--format", "json-lines"],
            ["cfg", "count", "-g", catalan, "-n", "4"],
        ]

    def test_reused_parser_matches_a_fresh_one(self, files, capsys, monkeypatch):
        calls = self.sequence(files)
        fresh = []
        for argv in calls:
            monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
            fresh.append(run_cli(argv, capsys))
        builds = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda accepted: builds.append(1) or build(accepted))
        monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
        assert [run_cli(argv, capsys) for argv in calls] == fresh
        assert len(builds) == 1
        seeded, unseeded, tree, word, refused, valid, lines, text = fresh
        assert seeded[1].endswith("seed=5]\n") and unseeded[1].endswith("seed=0]\n")
        assert tree[1].startswith("(S") and word[1].startswith("aaa ")
        assert refused == (1, "", "error: dfa count does not read --seed\n")
        assert valid == (0, "1\n", "")
        assert json.loads(lines[1]) == {"value": "5", "trials": 0, "bits": 0, "seed": 0}
        assert text == (0, "5\n", "")


class TestLocalRadiusGuard:
    def test_radius_past_the_ceiling_exits_at_once(self, tmp_path, capsys):
        formula = tmp_path / "wide.cnf"
        formula.write_text("24 1\n1 2 3\n")
        start = time.perf_counter()
        code, out, err = run_cli(
            ["pb", "derand", "--cnf", str(formula), "--local-radius", "24"], capsys
        )
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (1, "")
        assert err == (
            "error: SizeGuard: radius 24 on 24 variables scans 16777215 flip sets a sweep, "
            "above 65536\n"
        )

    def test_radius_one_is_unchanged(self, tmp_path, capsys):
        formula = tmp_path / "wide.cnf"
        formula.write_text("24 1\n1 2 3\n")
        code, out, err = run_cli(
            ["pb", "derand", "--cnf", str(formula), "--local-radius", "1"], capsys
        )
        assert (code, out, err) == (0, "1" + "0" * 23 + "\n", "")


class TestRandomSearchGuard:
    def test_draws_past_the_ceiling_exit_at_once(self, files, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["pb", "search", "--cnf", files["two.cnf"], "--epsilon", "1/100000"], capsys
        )
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (1, "")
        assert err == (
            "error: SizeGuard: epsilon 1/100000 and delta 1/4 take 6931471806 "
            "random-search draws, above 65536\n"
        )


class TestExactBudgetGuard:
    def test_draws_past_the_ceiling_exit_at_once(self, files, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["cfg", "exact", "-g", files["catalan.cfg"], "-n", "5", "--ambiguity", "14"], capsys
        )
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (1, "")
        assert err == (
            "error: CeilingExceeded: estimate at epsilon 1/42 and bound 14 plans 1091224 "
            "carrier draws, above 1048576\n"
        )


class TestBoundAndBudgetRefusals:
    """A multiplicity bound past 2**13, and an epsilon whose budget rounds
    a float to 1, exit 1 at once: run under a 5 s timeout."""

    @pytest.mark.parametrize("tail, message", [
        (["sample", "-n", "3", "--ambiguity", "200000"],
         "multiplicity bound 200000 at size 3 above 8192"),
        (["sample", "-n", "3", "--ambiguity", "1,100000,1"],
         "multiplicity bound 1*n**100000+1 at size 3 above 8192"),
        (["estimate", "-n", "3", "--epsilon", "1/10000000000"],
         "estimate at epsilon 1/10000000000 and bound 1 plans 315616481884215597613 "
         "carrier draws, above 1048576"),
    ])
    def test_refused_within_five_seconds(self, files, tail, message):
        argv = [sys.executable, "-m", "countgen.cli", "cfg", tail[0], "-g", files["catalan.cfg"]]
        done = subprocess.run(argv + tail[1:], capture_output=True, text=True, timeout=5)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: CeilingExceeded: {message}\n"


# four parallel a-edges declared ambiguity 2: "a" has 4 paths, q(4) = -2
FOUR_PATHS_NFA = "states 2\nalphabet a\nstart 0\nfinals 1\nambiguity 2\n" + "trans 0 a 1\n" * 4


class TestNegativeNfaCount:
    @pytest.mark.parametrize("op", [["count", "-n", "1"], ["sample", "-n", "1"], ["unrank", "-k", "1"]])
    def test_negative_count_is_refused(self, tmp_path, capsys, op):
        automaton = tmp_path / "four.nfa"
        automaton.write_text(FOUR_PATHS_NFA)
        code, out, err = run_cli(["nfa", op[0], "-a", str(automaton)] + op[1:], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: AmbiguityExceeded: negative word count -2: "
            "a word has more than 2 accepting paths\n"
        )

    def test_rank_is_refused(self, tmp_path, capsys):
        automaton = tmp_path / "four.nfa"
        automaton.write_text(FOUR_PATHS_NFA)
        code, out, err = run_cli(["nfa", "rank", "-a", str(automaton), "-w", "a"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: AmbiguityExceeded: 'a' has 4 accepting paths > 2\n"


# four parallel a-edges and one edge on each of b, c and d, declared
# ambiguity 2: the cone of "a" counts -2 and the length-1 census -2 + 3 = 1
HIDDEN_NEGATIVE_NFA = (
    "states 2\nalphabet a b c d\nstart 0\nfinals 1\nambiguity 2\n"
    + "trans 0 a 1\n" * 4 + "trans 0 b 1\ntrans 0 c 1\ntrans 0 d 1\n"
)


class TestNegativeCone:
    """The walk counts every cone it reads in words, so the cone of "a"
    is refused even where the census that holds it is positive."""

    @pytest.mark.parametrize(
        "op", [["unrank", "-k", "1"], ["rank", "-w", "d"], ["sample", "-n", "1", "--seed", "0"]]
    )
    def test_walk_refuses_the_negative_cone(self, tmp_path, capsys, op):
        automaton = tmp_path / "hidden.nfa"
        automaton.write_text(HIDDEN_NEGATIVE_NFA)
        code, out, err = run_cli(["nfa", op[0], "-a", str(automaton)] + op[1:], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: AmbiguityExceeded: negative word count -2: "
            "a word has more than 2 accepting paths\n"
        )

    def test_census_alone_does_not_see_it(self, tmp_path, capsys):
        # counting reads no cone, so the -2 stays hidden in the sum; checking
        # the declared ambiguity exactly is an open ROADMAP item
        automaton = tmp_path / "hidden.nfa"
        automaton.write_text(HIDDEN_NEGATIVE_NFA)
        assert run_cli(["nfa", "count", "-a", str(automaton), "-n", "1"], capsys) == (0, "1\n", "")
