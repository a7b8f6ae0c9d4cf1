"""Records agree with the frozen dataclasses they stand in for, and
importing the package compiles no code."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import countgen
from countgen import cfg, cli, describe, dfa, nfa, pda, pseudobool, traces
from countgen.exceptions import FrozenInstanceError

SOURCES = sorted(Path(countgen.__file__).parent.glob("*.py"))


def f(*args):
    return args


def g(*args):
    return len(args)


AB = dfa.Dfa(("a", "b"), ((1, 0), (1, 0)), 0, frozenset({1}))
AB_NFA = nfa.Nfa(("a",), (((0, 1), (0, 0)),), (1, 0), (0, 1), 1)
CIRCUIT = pseudobool.Circuit(2, (("in", 0), ("in", 1), ("mul", (0, 1))), 2)
ALPH = traces.IndepAlphabet(("a", "b"), frozenset({frozenset({"a", "b"})}))
CATALAN = cfg.CnfGrammar(("S",), ("a",), "S", {"S": [("S", "S")]}, {"S": ["a"]})
DYCK = pda.Pda(("q",), ("a", "b"), ("Z", "X"), "Z", frozenset({"q"}),
               (("consume", "q", "a", "Z", "q"), ("push", "q", "Z", "X", "q")))

# per record class: argument sets, each (args, kwargs), and arguments
# its __post_init__ refuses
CASES = {
    cfg.Grammar: ([((("S",), ("a",), "S", (("S", ("a",)),)), {}),
                   ((), dict(variables=("S", "T"), terminals=("a",), start="S", productions=()))], []),
    cli.Op: ([((f, None, ("n",)), {}), ((f,), dict(oracle=g, flags=("n",), prepare=g)),
              ((f, None, ("n",), cli.Op.prepare), {})], []),
    cli.Family: ([((("n",), f, {}), {}), ((("n",), f, {"count": 1}), dict(member=g))], []),
    cli._TraceSpec: ([((AB, ALPH), {}), ((), dict(automaton=AB, alph=ALPH))], []),
    describe.Bound: ([((), {}), ((1, 2, 3), {}), ((), dict(coeff=1, power=2, const=3))],
                     [((), dict(coeff=-1)), ((0, -1), {})]),
    describe.Description: ([((f, f, g, describe.Bound(), g), {}), ((f, g, g, describe.Bound(1), g), {})], []),
    describe.SampleReport: ([(("ab", 1, 2), {}), (("ab",), dict(trials=1, bits=3)),
                             ((countgen.FAIL, 4, 0), {})], []),
    describe.WordLanguage: ([((f, f, g, g), {}), ((f, g, g, g), {})], []),
    describe.DnfFormula: ([((3, ((1, -2),)), {}), ((3, ((1, -2), (3,))), {})],
                          [((2, ((3,),)), {}), ((2, ((),)), {}), ((2, ((1, -1),)), {})]),
    dfa.Dfa: ([((AB.alphabet, AB.trans, AB.start, AB.finals), {}),
               ((("a",), ((0,),), 0, frozenset()), {})],
              [((("a",), ((0,),), 1, frozenset()), {}), ((("a", "a"), ((0, 0),), 0, frozenset()), {}),
               ((("a",), ((1,),), 0, frozenset()), {})]),
    nfa.Nfa: ([((AB_NFA.alphabet, AB_NFA.matrices, AB_NFA.start, AB_NFA.accept, 1), {}),
               ((AB_NFA.alphabet, AB_NFA.matrices, AB_NFA.start, AB_NFA.accept, 2), {})],
              [((("a",), (((1,),),), (1, 0), (0, 1), 1), {}), ((("a",), (((1,),),), (1,), (1,), 0), {}),
               ((("a",), (((-1,),),), (1,), (1,), 1), {})]),
    nfa.QPoly: ([(((1,),), {}), ((), dict(coefficients=(2, -1)))], []),
    pda.Pda: ([((DYCK.states, DYCK.input_alphabet, DYCK.stack_alphabet, "Z", DYCK.finals, DYCK.moves), {}),
               ((DYCK.states, DYCK.input_alphabet, DYCK.stack_alphabet, "X", DYCK.finals, ()), {})],
              [((("q",), ("a",), ("Z",), "Y", frozenset(), ()), {}),
               ((("q",), ("a",), ("Z",), "Z", frozenset({"r"}), ()), {}),
               ((("q",), ("a",), ("Z",), "Z", frozenset(), (("consume", "q", "c", "Z", "q"),)), {})]),
    pda.SliceGrammar: ([((CATALAN, 3, 4, 5, 1, 2), {}), ((CATALAN, 3, 4, 5, 1, 3), {})], []),
    pseudobool._Plan: ([(((("in", 0),), (), 1, 0), {}), (((("in", 0),), ((0, 1),), 1, 1), {})], []),
    pseudobool.Circuit: ([((2, CIRCUIT.nodes, 2), {}), ((2, CIRCUIT.nodes, 1), {})],
                         [((1, (("in", 1),), 0), {}), ((1, (("const", 2),), 0), {}),
                          ((1, (("add", ()),), 0), {}), ((1, (("in", 0), ("mul", (0, 1))), 1), {}),
                          ((1, (("pow", 0),), 0), {}), ((1, (("in", 0),), 1), {})]),
    pseudobool.PbProblem: ([((2, CIRCUIT), {}), ((), dict(n=2, objective=pseudobool.Circuit(2, (("in", 0),), 0)))],
                           [((3, CIRCUIT), {}),
                            ((1, pseudobool.Circuit(1, (("in", 0), ("mul", (0, 0))), 1)), {})]),
    traces.IndepAlphabet: ([((("a", "b"), frozenset({frozenset({"a", "b"})})), {}),
                            ((("a", "b", "c"), frozenset()), {})],
                           [((("a", "a"), frozenset()), {}), ((("a",), frozenset({frozenset({"a"})})), {}),
                            ((("a", "b"), frozenset({frozenset({"a", "c"})})), {})]),
}


def library_records():
    modules = [cfg, cli, describe, dfa, nfa, pda, pseudobool, traces]
    return {cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__ and "_record_defaults" in vars(cls)}


def twin(cls):
    """A frozen dataclass with ``cls``'s fields, defaults and methods."""
    names = cls.__match_args__
    defaults = cls._record_defaults
    fields = [(name, object, dataclasses.field(default=defaults[name])) if name in defaults else (name, object)
              for name in names]
    namespace = {name: value for name, value in vars(cls).items()
                 if name not in names and not name.startswith("_record")
                 and (not name.startswith("__") or name in ("__post_init__", "__call__"))}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)


def outcome(thunk):
    """What ``thunk()`` returns, or the type and message of what it raises."""
    try:
        return ("value", thunk())
    except Exception as error:
        return ("raised", type(error), str(error))


def built(cls, args, kwargs):
    return cls(*args, **kwargs)


@pytest.fixture(params=sorted(CASES, key=lambda cls: f"{cls.__module__}.{cls.__name__}"),
                ids=lambda cls: f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}")
def pair(request):
    return request.param, twin(request.param)


def test_every_library_record_has_cases():
    assert library_records() == set(CASES)


class TestAgreesWithDataclass:
    def test_fields_and_defaults(self, pair):
        cls, dc = pair
        assert cls.__match_args__ == dc.__match_args__ == tuple(cls.__annotations__)
        for name in cls._record_defaults:
            assert getattr(cls, name) is getattr(dc, name)

    def test_repr(self, pair):
        cls, dc = pair
        for args, kwargs in CASES[cls][0]:
            assert repr(built(cls, args, kwargs)) == repr(built(dc, args, kwargs))

    def test_equality(self, pair):
        cls, dc = pair
        cases = CASES[cls][0]
        records = [built(cls, *case) for case in cases]
        twins = [built(dc, *case) for case in cases]
        again = [built(cls, *case) for case in cases]
        for i, (r, t) in enumerate(zip(records, twins)):
            assert (r == again[i]) is (t == built(dc, *cases[i])) is True
            for j in range(len(cases)):
                assert (r == records[j]) is (t == twins[j])
                assert (r != records[j]) is (t != twins[j])
            values = tuple(getattr(r, name) for name in cls.__match_args__)
            for other in (values, list(values), None, object()):
                assert (r == other) is (t == other) is False
                assert (r != other) is (t != other) is True
            assert (r == t) is (t == r) is False

    def test_hash(self, pair):
        cls, dc = pair
        for args, kwargs in CASES[cls][0]:
            assert outcome(lambda: hash(built(cls, args, kwargs))) == outcome(lambda: hash(built(dc, args, kwargs)))

    def test_assignment_and_deletion_refused(self, pair):
        cls, dc = pair
        args, kwargs = CASES[cls][0][0]
        r, t = built(cls, args, kwargs), built(dc, args, kwargs)
        for name in (*cls.__match_args__, "other"):
            for obj in (r, t):
                with pytest.raises(AttributeError) as raised:
                    setattr(obj, name, 1)
                assert str(raised.value) == f"cannot assign to field {name!r}"
                with pytest.raises(AttributeError) as raised:
                    delattr(obj, name)
                assert str(raised.value) == f"cannot delete field {name!r}"
        assert r == built(cls, args, kwargs)
        with pytest.raises(FrozenInstanceError):
            r.other = 1

    def test_bad_arguments_raise_type_error(self, pair):
        cls, dc = pair
        r = built(cls, *CASES[cls][0][0])
        names = cls.__match_args__
        full = {name: getattr(r, name) for name in names}
        required = [name for name in names if name not in cls._record_defaults]
        calls = [
            ((*full.values(), 1), {}),  # one positional too many
            ((), dict(full, nonesuch=1)),  # an unknown keyword
            ((full[names[0]],), full),  # the first field twice
        ]
        if required:
            calls.append(((), {name: full[name] for name in required[1:]}))  # the first required one missing
        for call_args, call_kwargs in calls:
            for c in (cls, dc):
                with pytest.raises(TypeError):
                    c(*call_args, **call_kwargs)

    def test_post_init_refusals(self, pair):
        cls, dc = pair
        for args, kwargs in CASES[cls][1]:
            refused = outcome(lambda: built(cls, args, kwargs))
            assert refused[0] == "raised" and refused[1] is not TypeError
            assert refused == outcome(lambda: built(dc, args, kwargs))

    def test_match(self, pair):
        cls, _ = pair
        args, kwargs = CASES[cls][0][-1]
        r = built(cls, args, kwargs)
        match r:
            case cls(first):
                assert first is getattr(r, cls.__match_args__[0])
            case _:
                pytest.fail(f"{r!r} does not match its own class pattern")


def test_the_report_is_frozen():
    report = describe.SampleReport("ab", 1, 2)
    with pytest.raises(FrozenInstanceError):
        report.bits = 3
    assert hash(report) == hash(("ab", 1, 2))


CODEGEN_MODULES = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")


def test_cli_import_loads_no_code_generation():
    src = Path(countgen.__file__).resolve().parent.parent
    probe = f"import sys; import countgen.cli; print(' '.join(m for m in {CODEGEN_MODULES!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_sources_generate_no_code(path):
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[0])
    assert not names & {"dataclass", "dataclasses", "NamedTuple", "typing", "exec", "eval"}
