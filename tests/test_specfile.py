"""The shared spec-file reader and the loaders that read through it."""

import pathlib

import pytest

from countgen.cfg import load_grammar
from countgen.cli import dispatch
from countgen.dfa import load_dfa
from countgen.exceptions import FormatError
from countgen.nfa import load_nfa
from countgen.pda import Pda, load_pda
from countgen.pseudobool import load_circuit, load_clauses, load_graph, load_matrix
from countgen.specfile import integer_lines, read_directives, spec_lines
from countgen.traces import load_trace
from test_describe import load_dnf

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "countgen"

DFA = (
    "states 2\nalphabet a b\nstart 0\nfinals 0\n"
    "trans 0 a 1\ntrans 0 b 1\ntrans 1 a 0\ntrans 1 b 1\n"
)
NFA = "states 2\nalphabet a\nstart 0\nfinals 1\nambiguity 1\ntrans 0 a 1\n"
PDA = (
    "state run run@a run@b\ninput a b\nstack Z X\ninit Z\nfinal run\n"
    "consume run a Z run@a\nconsume run a X run@a\npush run@a Z X run\n"
    "push run@a X X run\nconsume run b X run@b\npop run@b X run\n"
)
GRAMMAR = "var S\nterm a\nstart S\nS -> S S\nS -> a\n"
CIRCUIT = "0 in 1\n1 const 1\n2 add 0 1\nout 2\n"


def edit(text, number, line):
    """``text`` with its line ``number`` (1-based) replaced, or inserted at the end."""
    lines = text.splitlines()
    lines[number - 1 : number] = [line]
    return "\n".join(lines) + "\n"


def indep(text):
    """Load ``text`` followed by a DFA over ab as a trace file."""
    return load_trace(text + DFA)


# (loader, text, the line the error must name)
MALFORMED = {
    # unknown directive
    "dfa-unknown": (load_dfa, edit(DFA, 3, "begin 0"), 3),
    "nfa-unknown": (load_nfa, edit(NFA, 5, "bound 1"), 5),
    "pda-unknown": (load_pda, edit(PDA, 6, "read run a Z run@a"), 6),
    "grammar-unknown": (load_grammar, edit(GRAMMAR, 4, "S S S"), 4),
    "circuit-unknown": (load_circuit, edit(CIRCUIT, 3, "2 sub 0 1"), 3),
    # wrong argument count
    "dfa-trans-short": (load_dfa, edit(DFA, 5, "trans 0 a"), 5),
    "dfa-states-empty": (load_dfa, edit(DFA, 1, "states"), 1),
    "nfa-ambiguity-empty": (load_nfa, edit(NFA, 5, "ambiguity"), 5),
    "pda-consume-short": (load_pda, edit(PDA, 6, "consume run a Z"), 6),
    "pda-push-long": (load_pda, edit(PDA, 8, "push run@a Z X run run"), 8),
    "pda-pop-short": (load_pda, edit(PDA, 11, "pop run@b X"), 11),
    "pda-init-empty": (load_pda, edit(PDA, 4, "init"), 4),
    "grammar-start-empty": (load_grammar, edit(GRAMMAR, 3, "start"), 3),
    "circuit-out-empty": (load_circuit, edit(CIRCUIT, 4, "out"), 4),
    "circuit-in-empty": (load_circuit, edit(CIRCUIT, 1, "0 in"), 1),
    "indep-short": (indep, "# pairs\nindep a b\nindep a\n", 3),
    # non-integer token
    "dfa-states": (load_dfa, edit(DFA, 1, "states two"), 1),
    "dfa-start": (load_dfa, edit(DFA, 3, "start q0"), 3),
    "dfa-trans": (load_dfa, edit(DFA, 6, "trans 0 b one"), 6),
    "nfa-ambiguity": (load_nfa, edit(NFA, 5, "ambiguity 1.5"), 5),
    "circuit-id": (load_circuit, edit(CIRCUIT, 2, "one const 1"), 2),
    "circuit-arg": (load_circuit, edit(CIRCUIT, 3, "2 add 0 x"), 3),
    "circuit-out": (load_circuit, edit(CIRCUIT, 4, "out top"), 4),
    "matrix-entry": (load_matrix, "2\n1 x\n1 1\n", 2),
    "matrix-header": (load_matrix, "# size\nn\n1\n", 2),
    "clause-literal": (load_clauses, "3 2\n1 2 3\n# next\n-1 x\n", 4),
    "graph-vertex": (load_graph, "3 1\n1 b\n", 2),
    "dnf-literal": (load_dnf, "2 1\n1 two\n", 2),
    # a directive that takes one line, repeated
    "dfa-states-twice": (load_dfa, DFA + "states 2\n", 9),
    "dfa-alphabet-twice": (load_dfa, edit(DFA, 2, "alphabet a b\nalphabet a b"), 3),
    "nfa-ambiguity-twice": (load_nfa, NFA + "# again\nambiguity 1\n", 8),
    "pda-state-twice": (load_pda, PDA + "state run\n", 12),
    "pda-input-twice": (load_pda, PDA + "input a b\n", 12),
    "pda-stack-twice": (load_pda, PDA + "stack Z X\n", 12),
    "pda-init-twice": (load_pda, PDA + "init Z\n", 12),
    "grammar-var-twice": (load_grammar, GRAMMAR + "var S\n", 6),
    "grammar-term-twice": (load_grammar, GRAMMAR + "term a\n", 6),
    "grammar-start-twice": (load_grammar, GRAMMAR + "start S\n", 6),
    "circuit-out-twice": (load_circuit, CIRCUIT + "out 1\n", 5),
    # a trailing token on a one-argument node
    "circuit-in-trailing": (load_circuit, edit(CIRCUIT, 1, "0 in 1 2"), 1),
    "circuit-const-trailing": (load_circuit, edit(CIRCUIT, 2, "1 const 1 1"), 2),
    # a line break other than a newline separates tokens and ends no line
    "dfa-form-feed": (load_dfa, DFA.replace("\n", "\x0c", 1), 1),
    "dfa-after-form-feed": (load_dfa, edit(DFA, 5, "trans 0 a").replace("b\n", "b\x0c\n", 1), 5),
    "circuit-after-line-separator": (load_circuit, "0 in 1 # x\u2028\n1 add 0 z\nout 1\n", 2),
    # a name that no declaration line gives
    "grammar-unknown-variable": (load_grammar, GRAMMAR + "# T\nT -> a\n", 7),
    "grammar-unknown-symbol": (load_grammar, edit(GRAMMAR, 5, "S -> a b"), 5),
    "pda-final-unknown": (load_pda, edit(PDA, 5, "final run\nfinal r # none"), 6),
    "pda-init-unknown": (load_pda, edit(PDA, 4, "init Q"), 4),
    "pda-move-state": (load_pda, edit(PDA, 11, "pop run@b X nowhere"), 11),
    "pda-move-input": (load_pda, edit(PDA, 6, "consume run c Z run@a"), 6),
    "pda-move-stack": (load_pda, edit(PDA, 8, "push run@a Z Y run"), 8),
    "grammar-start-unknown": (load_grammar, edit(GRAMMAR, 3, "start T"), 3),
    "grammar-var-repeated": (load_grammar, edit(GRAMMAR, 1, "var S S"), 1),
    "grammar-term-long": (load_grammar, edit(GRAMMAR, 2, "term ab"), 2),
    # a value the circuit refuses
    "circuit-in-zero": (load_circuit, edit(CIRCUIT, 1, "0 in 0"), 1),
    "circuit-const-two": (load_circuit, edit(CIRCUIT, 2, "1 const 2"), 2),
    "circuit-add-empty": (load_circuit, edit(CIRCUIT, 3, "2 add"), 3),
    "circuit-add-forward": (load_circuit, edit(CIRCUIT, 3, "2 add 0 2"), 3),
    "circuit-mul-negative": (load_circuit, edit(CIRCUIT, 3, "2 mul 0 -1"), 3),
    "circuit-out-range": (load_circuit, edit(CIRCUIT, 4, "out 3"), 4),
}


@pytest.mark.parametrize("loader, text, line", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_line_is_named(loader, text, line):
    with pytest.raises(FormatError, match=rf"^line {line}: "):
        loader(text)


@pytest.mark.parametrize(
    "loader, text",
    [(load_dfa, DFA), (load_nfa, NFA), (load_pda, PDA), (load_grammar, GRAMMAR),
     (load_circuit, CIRCUIT)],
    ids=["dfa", "nfa", "pda", "grammar", "circuit"],
)
def test_valid_files_still_load(loader, text):
    loader(text)


class TestReader:
    def test_spec_lines_skip_comments_and_blanks(self):
        text = "# head\n\nstates 1  # one\n   \nalphabet a\n"
        assert list(spec_lines(text)) == [(3, ["states", "1"]), (5, ["alphabet", "a"])]

    def test_directives_keep_line_numbers(self):
        lines = read_directives("a 1\n# c\nb x y z\na 2\n", {"a": 1, "b": None})
        assert lines == {"a": [(1, ["1"]), (4, ["2"])], "b": [(3, ["x", "y", "z"])]}

    def test_other_lines_go_to_the_hook(self):
        seen = []
        lines = read_directives("a 1\nS -> a\n", {"a": 1}, lambda n, t: seen.append((n, t)))
        assert lines == {"a": [(1, ["1"])]} and seen == [(2, ["S", "->", "a"])]

    def test_argument_count_message(self):
        with pytest.raises(FormatError, match="^line 2: a takes 1 argument, not 2$"):
            read_directives("a 1\na 1 2\n", {"a": 1})
        with pytest.raises(FormatError, match="^line 1: b takes 3 arguments, not 0$"):
            read_directives("b\n", {"b": 3})

    def test_crlf_lines_load(self):
        assert load_dfa(DFA.replace("\n", "\r\n")) == load_dfa(DFA)
        assert list(spec_lines("a 1\r\n\r\nb\r\n")) == [(1, ["a", "1"]), (3, ["b"])]

    def test_integer_lines(self):
        assert integer_lines("# n\n2\n1 0 # row\n0 1\n", "matrix") == [
            (2, [2]), (3, [1, 0]), (4, [0, 1])
        ]
        with pytest.raises(FormatError, match="^empty matrix file$"):
            integer_lines("# nothing\n\n", "matrix")

    def test_one_library_file_strips_comments(self):
        holders = [p.name for p in SRC.glob("*.py") if 'split("#"' in p.read_text()]
        assert holders == ["specfile.py"]


class TestSymbolNames:
    def test_variable_that_is_also_a_terminal_refused(self):
        with pytest.raises(FormatError, match="^line 2: 'a' is both a variable and a terminal$"):
            load_grammar("var S a\nterm a\nstart S\nS -> a\n")

    def test_dash_input_symbol_refused(self):
        with pytest.raises(FormatError, match="^line 2: input symbols .*'-' is silent$"):
            load_pda(edit(PDA, 2, "input - a b"))


class TestPdaLines:
    def test_final_lines_add_up(self):
        m = load_pda(edit(PDA, 5, "final run\nfinal run@a # more"))
        assert m.finals == frozenset({"run", "run@a"})

    def test_moves_keep_file_order_across_kinds(self):
        m = load_pda(PDA)
        assert [move[0] for move in m.moves] == [
            "consume", "consume", "push", "push", "consume", "pop"
        ]
        assert m == Pda(
            ("run", "run@a", "run@b"), ("a", "b"), ("Z", "X"), "Z", frozenset({"run"}),
            (
                ("consume", "run", "a", "Z", "run@a"),
                ("consume", "run", "a", "X", "run@a"),
                ("push", "run@a", "Z", "X", "run"),
                ("push", "run@a", "X", "X", "run"),
                ("consume", "run", "b", "X", "run@b"),
                ("pop", "run@b", "X", "run"),
            ),
        )

    def test_silent_move_reads_none(self):
        m = load_pda(edit(PDA, 6, "consume run - Z run"))
        assert m.moves[0] == ("consume", "run", None, "Z", "run")


@pytest.mark.parametrize(
    "argv, name, text, message",
    [
        (["pda", "grammar", "-n", "1", "-m"], "bad.pda", edit(PDA, 6, "consume run a Z"),
         "line 6: consume takes 4 arguments, not 3"),
        (["pda", "grammar", "-n", "1", "-m"], "bad.pda", edit(PDA, 4, "init"),
         "line 4: init takes 1 argument, not 0"),
        (["pda", "grammar", "-n", "1", "-m"], "dash.pda", edit(PDA, 2, "input - a"),
         "line 2: input symbols are single characters; '-' is silent"),
        (["cfg", "count", "-n", "1", "-g"], "overlap.cfg", "var S a\nterm a\nstart S\nS -> a\n",
         "line 2: 'a' is both a variable and a terminal"),
        (["pb", "perm", "-m"], "x.mat", "2\n1 x\n1 1\n", "line 2: 'x' is not an integer"),
        (["pb", "derand", "--circuit"], "const.circ", "0 const 1 1\nout 0\n",
         "line 1: const takes 1 argument, not 2"),
        (["dfa", "count", "-n", "2", "-a"], "page.dfa", "states 1\x0calphabet a\nstart 0\n"
         "finals 0\ntrans 0 a 0\n", "line 1: states takes 1 argument, not 3"),
        (["cfg", "count", "-n", "1", "-g"], "lhs.cfg", GRAMMAR + "T -> a\n",
         "line 6: unknown variable 'T'"),
        (["cfg", "count", "-n", "1", "-g"], "rhs.cfg", edit(GRAMMAR, 4, "S -> S b"),
         "line 4: unknown symbol 'b'"),
        (["pda", "grammar", "-n", "2", "-m"], "final.pda", edit(PDA, 5, "final r"),
         "line 5: final state 'r' is not a state"),
        (["pb", "derand", "--circuit"], "zero.circ", "0 in 0\nout 0\n",
         "line 1: variables are numbered from 1, not 0"),
        (["pb", "derand", "--circuit"], "two.circ", "0 const 2\nout 0\n",
         "line 1: constants must be -1, 0 or 1"),
        (["pb", "derand", "--circuit"], "ahead.circ", "0 in 1\n1 add 0 1\nout 1\n",
         "line 2: add takes one or more earlier node ids"),
        (["pb", "derand", "--circuit"], "out.circ", "0 in 1\nout 1\n",
         "line 2: output node 1 is not a node"),
        (["pb", "derand", "--cnf"], "five.cnf", "2 1\n1 5\n", "line 2: literal 5 out of range"),
        (["pb", "derand", "--cnf"], "zero.cnf", "2 1\n0 1\n", "line 2: literal 0 out of range"),
        (["pb", "derand", "--graph"], "far.graph", "2 2\n1 2\n# far\n2 3\n",
         "line 4: edge endpoints must lie in 1..2"),
        (["pb", "perm", "-m"], "two.mat", "2\n1 2\n1 1\n", "line 2: entries must be 0 or 1"),
        (["cfg", "count", "-n", "1", "-g"], "start.cfg", edit(GRAMMAR, 3, "start T"),
         "line 3: start symbol 'T' is not a variable"),
        (["cfg", "count", "-n", "1", "-g"], "twice.cfg", edit(GRAMMAR, 1, "var S S"),
         "line 1: variables must be distinct"),
        (["pda", "grammar", "-n", "2", "-m"], "init.pda", edit(PDA, 4, "init Q"),
         "line 4: initial symbol 'Q' is not a stack symbol"),
        (["pda", "grammar", "-n", "2", "-m"], "state.pda", edit(PDA, 11, "pop run@b X nowhere"),
         "line 11: pop names unknown 'nowhere'"),
        (["pda", "grammar", "-n", "2", "-m"], "input.pda", edit(PDA, 6, "consume run c Z run@a"),
         "line 6: consume names unknown 'c'"),
        (["pda", "grammar", "-n", "2", "-m"], "stack.pda", edit(PDA, 8, "push run@a Z Y run"),
         "line 8: push names unknown 'Y'"),
    ],
    ids=["pda-short-move", "pda-empty-init", "pda-dash-input", "cfg-overlap", "matrix-x",
         "circuit-const", "dfa-form-feed", "cfg-unknown-variable", "cfg-unknown-symbol",
         "pda-unknown-final", "circuit-in-zero", "circuit-const-two", "circuit-add-ahead",
         "circuit-out-range", "cnf-literal-range", "cnf-literal-zero", "graph-vertex-range",
         "matrix-entry-two", "cfg-unknown-start", "cfg-repeated-variable", "pda-unknown-init",
         "pda-unknown-state", "pda-unknown-input", "pda-unknown-stack"],
)
def test_cli_names_the_line(tmp_path, capsys, argv, name, text, message):
    spec = tmp_path / name
    spec.write_text(text)
    code = dispatch(argv + [str(spec)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")
