"""Randomized cross-validation against independent oracles (seeded)."""

import random
from itertools import product as iproduct

from countgen.cfg import CnfGrammar, Grammar, earley_count, to_cnf, tree_census
from countgen.traces import indep_alphabet, normal_form, swap_closure
from test_traces import class_size


def words_of(alphabet, n):
    return ("".join(t) for t in iproduct(alphabet, repeat=n))


def cyk_tree_count(g: CnfGrammar, word: str) -> int:
    """Independent oracle: span-table counting in the CYK style."""
    n = len(word)
    table = [[dict() for _ in range(n + 1)] for _ in range(n + 1)]
    for i in range(n):
        for a in g.variables:
            hits = sum(1 for t in g.unary[a] if t == word[i])
            if hits:
                table[i][i + 1][a] = hits
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span
            cell = table[i][j]
            for a in g.variables:
                total = 0
                for b, c in g.binary[a]:
                    for k in range(i + 1, j):
                        total += table[i][k].get(b, 0) * table[k][j].get(c, 0)
                if total:
                    cell[a] = total
    return table[0][n].get(g.start, 0)


def random_cnf(rng: random.Random) -> CnfGrammar:
    n_vars = rng.randint(1, 4)
    variables = tuple(f"V{i}" for i in range(n_vars))
    terminals = ("a", "b")
    binary = {v: set() for v in variables}
    unary = {v: set() for v in variables}
    for _ in range(rng.randint(1, 6)):
        binary[rng.choice(variables)].add(
            (rng.choice(variables), rng.choice(variables))
        )
    for _ in range(rng.randint(1, 4)):
        unary[rng.choice(variables)].add(rng.choice(terminals))
    return CnfGrammar(variables, terminals, variables[0], binary, unary)


def random_general(rng: random.Random) -> Grammar:
    n_vars = rng.randint(1, 3)
    variables = tuple(f"V{i}" for i in range(n_vars))
    terminals = ("a", "b")
    symbols = variables + terminals
    productions = []
    for _ in range(rng.randint(2, 7)):
        lhs = rng.choice(variables)
        rhs = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
        productions.append((lhs, rhs))
    return Grammar(variables, terminals, variables[0], tuple(productions))


def derivable_words(g: Grammar, max_len: int, node_cap: int = 60_000):
    """Leftmost expansion with length-floor pruning; None when capped."""
    big = 10**9
    minlen = {v: big for v in g.variables}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            total = 0
            for s in rhs:
                total += 1 if s in g.terminals else minlen[s]
                if total >= big:
                    total = big
                    break
            if total < minlen[lhs]:
                minlen[lhs] = total
                changed = True

    def floor_of(form):
        return sum(1 if s in g.terminals else minlen[s] for s in form)

    var_set = set(g.variables)
    words = set()
    seen = {(g.start,)}
    frontier = [(g.start,)]
    visited = 0
    while frontier:
        visited += 1
        if visited > node_cap:
            return None
        form = frontier.pop()
        idx = next((i for i, s in enumerate(form) if s in var_set), None)
        if idx is None:
            if len(form) <= max_len:
                words.add("".join(form))
            continue
        for lhs, rhs in g.productions:
            if lhs != form[idx]:
                continue
            grown = form[:idx] + rhs + form[idx + 1 :]
            if floor_of(grown) > max_len or len(grown) > 3 * max_len + 6:
                continue
            if grown not in seen:
                seen.add(grown)
                frontier.append(grown)
    return words


class TestEarleyAgainstCyk:
    def test_random_cnf_grammars(self):
        rng = random.Random(202)
        checked = 0
        for _ in range(60):
            g = random_cnf(rng)
            for n in range(1, 6):
                for w in words_of("ab", n):
                    assert earley_count(g, w) == cyk_tree_count(g, w)
                census = sum(
                    cyk_tree_count(g, w) for w in words_of("ab", n)
                )
                assert census == tree_census(g, g.start, n)
            checked += 1
        assert checked == 60


class TestConversionAgainstExpansion:
    def test_random_general_grammars(self):
        rng = random.Random(77)
        exercised = 0
        for _ in range(80):
            g = random_general(rng)
            expected = derivable_words(g, 6)
            if expected is None:
                continue
            cnf = to_cnf(g, drop_epsilon=True)
            got = set()
            for n in range(1, 7):
                got |= {w for w in words_of("ab", n) if earley_count(cnf, w) > 0}
            assert got == {w for w in expected if w}, g.productions
            exercised += 1
        assert exercised >= 50


class TestTracesRandomRelations:
    def test_random_independence(self):
        rng = random.Random(5)
        letters = "abc"
        all_pairs = [("a", "b"), ("a", "c"), ("b", "c")]
        for _ in range(12):
            pairs = [p for p in all_pairs if rng.random() < 0.5]
            alph = indep_alphabet(letters, pairs)
            for n in range(1, 6):
                for _ in range(6):
                    w = "".join(rng.choice(letters) for _ in range(n))
                    cls = swap_closure(w, alph)
                    assert class_size(w, alph) == len(cls)
                    nf = normal_form(w, alph)
                    assert nf == min(cls)
