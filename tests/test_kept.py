"""``kept``: computed once, stored under its own name, invisible to the
record and dataclass methods, and the only way the library keeps a
worked-out value."""

import ast
import dataclasses
from pathlib import Path

import pytest

import countgen
from countgen import cfg, pseudobool
from countgen import dfa as dfa_module
from countgen._kept import kept
from countgen.cfg import CnfGrammar
from countgen.dfa import CensusTable, dfa_from_regex
from countgen.nfa import nfa_from_dfa
from countgen.pseudobool import Circuit

SOURCES = sorted(Path(countgen.__file__).parent.glob("*.py"))


def ab_star():
    return dfa_from_regex("(ab)*")


def catalan():
    return CnfGrammar(("S",), ("a",), "S", {"S": [("S", "S")]}, {"S": ["a"]})


def square():
    return Circuit(2, (("in", 0), ("in", 1), ("mul", (0, 1))), 2)


SITES = {
    "Dfa.state_classes": (ab_star, "state_classes"),
    "CensusTable.moves": (lambda: CensusTable(ab_star()), "moves"),
    "CnfGrammar.earley_tables": (catalan, "earley_tables"),
    "CnfGrammar.tree_table": (catalan, "tree_table"),
    "Circuit.plan": (square, "plan"),
    "Nfa.letter_rows": (lambda: nfa_from_dfa(ab_star()), "letter_rows"),
}


@dataclasses.dataclass(frozen=True)
class Counted:
    x: int
    calls: list = dataclasses.field(default_factory=list, compare=False, repr=False)

    @kept
    def double(self):
        self.calls.append(self.x)
        return 2 * self.x


class TestKept:
    def test_computed_once_over_many_reads(self):
        c = Counted(4)
        assert [c.double for _ in range(100)] == [8] * 100
        assert c.calls == [4]

    def test_class_read_gives_the_descriptor(self):
        assert isinstance(Counted.double, kept)

    @pytest.mark.parametrize("site", SITES)
    def test_stored_under_the_public_name(self, site):
        make, name = SITES[site]
        obj = make()
        assert name not in vars(obj)
        value = getattr(obj, name)
        assert vars(obj)[name] is value
        assert getattr(obj, name) is value
        assert "_" + name not in vars(obj)

    @pytest.mark.parametrize("patched, make, name", [
        ((dfa_module, "_state_classes"), ab_star, "state_classes"),
        ((cfg, "tree_census_table"), catalan, "tree_table"),
        ((pseudobool, "_plan"), square, "plan"),
    ])
    def test_sites_compute_once(self, monkeypatch, patched, make, name):
        module, function = patched
        original = getattr(module, function)
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, function, counted)
        obj = make()
        for _ in range(10):
            getattr(obj, name)
        assert len(calls) == 1

    @pytest.mark.parametrize("make", [ab_star, SITES["Nfa.letter_rows"][0], square, lambda: Counted(3)],
                             ids=["Dfa", "Nfa", "Circuit", "Counted"])
    def test_dataclass_methods_unchanged(self, make):
        read, fresh = make(), make()
        before = (repr(read), hash(read))
        names = {name for name, attr in vars(type(read)).items() if isinstance(attr, kept)}
        for name in names:
            getattr(read, name)
        assert names and names <= vars(read).keys() and not names & vars(fresh).keys()
        assert read == fresh and (repr(read), hash(read)) == before == (repr(fresh), hash(fresh))
        assert not names & set(type(read).__match_args__)


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _caught(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            yield from (ast.unparse(kind) for kind in kinds)


class TestNoHandKeptValues:
    def test_sources_found(self):
        assert {"_kept.py", "dfa.py", "cfg.py"} <= {path.name for path in SOURCES}

    @pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
    def test_no_cached_property_and_no_attribute_error_caught(self, path):
        tree = ast.parse(path.read_text())
        assert "cached_property" not in set(_names(tree))
        assert "AttributeError" not in set(_caught(tree))
