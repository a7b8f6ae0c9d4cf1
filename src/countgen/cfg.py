"""Context-free machinery: CNF grammars, tree census, tree sampling,
multiplicity Earley parsing, and the word sampler built from them.

Derivation trees of a fixed yield length are counted exactly by the
binary-production convolution; the same (growable) table drives a uniform tree
sampler.  The table keeps, per variable, each binary production beside
the rows of its two children, so the sampler sums a split point's weight
straight from those rows, and it finds the split by a two-ended
(boustrophedonic) prefix-sum scan: split points are taken alternately
from both ends, so split k of a length-l node costs min(k, l - k) bucket
sums.  The weighted Earley chart counts the derivation trees
of a given word, which is the multiplicity needed to flatten trees into
uniformly random words.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .coins import FAIL, bit_size, draw_uniform
from .describe import Bound, Description
from .exceptions import (
    AmbiguityExceeded,
    EmptySlice,
    EpsilonInLanguage,
    FormatError,
    SizeGuard,
)
from .specfile import read_directives, single

# Most derivation trees the enumeration oracles list.
_TREE_GUARD = 200_000

# Derivation trees are nested tuples: (A, terminal) at the leaves and
# (A, left, right) inside.


@dataclass(frozen=True)
class Grammar:
    """General context-free grammar; productions map A -> tuples of symbols."""

    variables: tuple
    terminals: tuple
    start: object
    productions: tuple  # pairs (A, rhs-tuple), in declaration order


class CnfGrammar:
    """Chomsky-normal-form grammar with fixed production order per variable.

    Binary productions of each variable are ordered by the variable order
    of their right-hand sides, unary productions by the terminal order;
    samples are reproducible because this order is part of the grammar.
    """

    def __init__(self, variables, terminals, start, binary, unary):
        self.variables = tuple(variables)
        self.terminals = tuple(terminals)
        self.start = start
        var_index = {v: i for i, v in enumerate(self.variables)}
        term_index = {t: i for i, t in enumerate(self.terminals)}
        if start not in var_index:
            raise ValueError("start symbol must be a variable")
        if len(var_index) != len(self.variables):
            raise ValueError("variables must be distinct")
        self.var_index = var_index
        self.binary = {}
        self.unary = {}
        for a in self.variables:
            pairs = list(binary.get(a, ()))
            letters = list(unary.get(a, ()))
            for b, c in pairs:
                if b not in var_index or c not in var_index:
                    raise ValueError(f"production {a!r} -> {b!r} {c!r} uses unknown variables")
            for t in letters:
                if t not in term_index:
                    raise ValueError(f"production {a!r} -> {t!r} uses an unknown terminal")
            if len(set(pairs)) != len(pairs) or len(set(letters)) != len(letters):
                raise ValueError(f"duplicate productions for {a!r}")
            pairs.sort(key=lambda bc: (var_index[bc[0]], var_index[bc[1]]))
            letters.sort(key=lambda t: term_index[t])
            self.binary[a] = tuple(pairs)
            self.unary[a] = tuple(letters)

    @cached_property
    def earley_tables(self) -> tuple:
        """Prediction tables of the Earley chart, built on first use.

        Four dicts keyed by variable A: ``corner``, the variables reached
        from A through leftmost children (A included); ``binary``, for
        each production A -> B C its predicted state, B, the state with
        the dot after B, C, and the completed state; ``unary``, the
        predicted state A -> .t of each letter t; ``scanned``, letter t ->
        the state A -> t. it scans into.
        """
        corner = {}
        for a in self.variables:
            reach = {a}
            frontier = [a]
            while frontier:
                for b, _ in self.binary[frontier.pop()]:
                    if b not in reach:
                        reach.add(b)
                        frontier.append(b)
            corner[a] = frozenset(reach)
        binary = {
            a: tuple(((a, bc, 0), bc[0], (a, bc, 1), bc[1], (a, bc, 2)) for bc in self.binary[a])
            for a in self.variables
        }
        unary = {a: tuple((a, (t,), 0) for t in self.unary[a]) for a in self.variables}
        scanned = {a: {t: (a, (t,), 1) for t in self.unary[a]} for a in self.variables}
        return corner, binary, unary, scanned

    @cached_property
    def tree_table(self) -> TreeTable:
        """The grammar's one tree-census table, built empty on first use;
        each reader grows it to the yield length it reads."""
        return tree_census_table(self, 0)

    def productive_variables(self):
        productive = {a for a in self.variables if self.unary[a]}
        changed = True
        while changed:
            changed = False
            for a in self.variables:
                if a in productive:
                    continue
                if any(
                    b in productive and c in productive for b, c in self.binary[a]
                ):
                    productive.add(a)
                    changed = True
        return productive

    def reachable_variables(self):
        reachable = {self.start}
        frontier = [self.start]
        while frontier:
            a = frontier.pop()
            for b, c in self.binary[a]:
                for v in (b, c):
                    if v not in reachable:
                        reachable.add(v)
                        frontier.append(v)
        return reachable

    def check_no_useless(self):
        live = self.productive_variables() & self.reachable_variables()
        dead = [a for a in self.variables if a not in live]
        if dead:
            raise ValueError(f"useless variables: {dead!r}")


class TreeTable(dict):
    """table[a][l] = number of derivation trees from a with yield length l.

    ``splits[a]`` holds ``(table[b], table[c], b, c)`` for each production
    a -> b c, in the grammar's order.  The rows are the table's own lists,
    which grow in place, so the tuples are built once per table.
    """

    def __init__(self, g: CnfGrammar):
        super().__init__((a, [0]) for a in g.variables)
        self.grammar = g
        self.splits = {
            a: tuple((self[b], self[c], b, c) for b, c in g.binary[a]) for a in g.variables
        }

    def grow(self, n: int) -> "TreeTable":
        """Append yield lengths until every row covers 0..n."""
        if n < 0:
            raise ValueError("yield length must be nonnegative")
        g = self.grammar
        for length in range(len(self[g.start]), n + 1):
            for a in g.variables:
                total = len(g.unary[a]) if length == 1 else 0
                for row_b, row_c, _, _ in self.splits[a]:
                    total += sum(
                        row_b[i] * row_c[length - i] for i in range(1, length)
                    )
                self[a].append(total)
        return self


def tree_census_table(g: CnfGrammar, n: int) -> TreeTable:
    """A fresh table whose rows cover yield lengths 0..n."""
    return TreeTable(g).grow(n)


def tree_census(g: CnfGrammar, a, n: int) -> int:
    """Number of derivation trees rooted at ``a`` with yield length n."""
    if n < 1:
        raise ValueError("yield length must be >= 1")
    return g.tree_table.grow(n)[a][n]


def random_tree(g: CnfGrammar, n: int, src):
    """Uniform derivation tree with yield length n, or FAIL.

    The per-node rejection uses kappa = 3 + ceil(log n) attempts (kappa
    is global, not per recursion level); the failure probability is at
    most (2n - 1) / 2**kappa, below 1/4.  The grammar's ``tree_table`` is
    grown to n in place.
    """
    if n < 1:
        raise ValueError("yield length must be >= 1")
    table = g.tree_table.grow(n)
    if table[g.start][n] == 0:
        raise EmptySlice(f"no derivation trees of yield length {n}")
    splits = table.splits
    kappa = 3 + bit_size(n)

    def generate(a, length):
        total = table[a][length]
        r = draw_uniform(src, total, kappa)
        if r is FAIL:
            return FAIL
        if length == 1:
            return (a, g.unary[a][r - 1])
        # The split k holding r is the first whose prefix sum of bucket
        # weights reaches r.  Buckets are taken alternately from k = 1 and
        # from k = length - 1: ``low`` is the weight left of ``lo`` and
        # ``high`` the total minus the weight right of ``hi``.
        pairs = splits[a]
        lo, hi = 1, length - 1
        low, high = 0, total
        while True:
            weight = 0
            for row_b, row_c, _, _ in pairs:
                weight += row_b[lo] * row_c[length - lo]
            if r <= low + weight:
                k, acc = lo, low
                break
            low += weight
            lo += 1
            weight = 0
            for row_b, row_c, _, _ in pairs:
                weight += row_b[hi] * row_c[length - hi]
            high -= weight
            if r > high:
                k, acc = hi, high
                break
            hi -= 1
        for row_b, row_c, b, c in pairs:
            acc += row_b[k] * row_c[length - k]
            if acc >= r:
                break
        else:
            raise AssertionError("rank exceeded bucket weight")
        left = generate(b, k)
        if left is FAIL:
            return FAIL
        right = generate(c, length - k)
        if right is FAIL:
            return FAIL
        return (a, left, right)

    return generate(g.start, n)


def tree_yield(tree) -> str:
    """Left-to-right concatenation of the leaf letters."""
    if len(tree) == 2:
        return tree[1]
    return tree_yield(tree[1]) + tree_yield(tree[2])


def format_tree(tree) -> str:
    """Parenthesized form like (S (A a) (B b))."""
    if len(tree) == 2:
        return f"({tree[0]} {tree[1]})"
    return f"({tree[0]} {format_tree(tree[1])} {format_tree(tree[2])})"


def enumerate_trees(g: CnfGrammar, a, n: int):
    """All derivation trees from ``a`` with yield length n (oracle use)."""
    if n < 1:
        raise ValueError("yield length must be >= 1")
    table = g.tree_table.grow(n)
    if table[a][n] > _TREE_GUARD:
        raise SizeGuard("too many trees to enumerate")

    def build(sym, length):
        if length == 1:
            for t in g.unary[sym]:
                yield (sym, t)
            return
        for b, c in g.binary[sym]:
            for k in range(1, length):
                if table[b][k] == 0 or table[c][length - k] == 0:
                    continue
                for left in build(b, k):
                    for right in build(c, length - k):
                        yield (sym, left, right)

    return list(build(a, n))


# ---------------------------------------------------------------------------
# Weighted Earley chart: counting derivation trees of one word.


def earley_chart(g: CnfGrammar, word: str) -> dict:
    """Weighted Earley chart of ``word``: {(i, j): {(A, rhs, dot): weight}}.

    Each non-empty cell keeps at most one weighted state per dotted
    production; a state's weight is the number of leftmost derivations of
    the span it consumed.  States whose dot sits before a variable B are
    indexed by (B, start of the dot), so a completed B reads only the
    states waiting for it.  In CNF a completed state in (i, j) completes
    states only in cells (k, j) with k < i, so one pass over each column
    with descending i reads every completed weight after its last update.
    """
    n = len(word)
    if n < 1:
        raise ValueError("word must be non-empty")
    corner, binary, unary, scanned = g.earley_tables
    cells = {}
    # (B, i) -> [(k, cell, key, advanced, then)] for states at (k, i) with
    # the dot before B; ``then`` is (C, key advanced twice) while the
    # advanced state still waits for C, else None
    waiting = defaultdict(list)

    def predict(j, needed):
        closure = set().union(*(corner[b] for b in needed))
        cell = cells[j, j] = {}
        for a in closure:
            for key in unary[a]:
                cell[key] = 1
            for key, b, advanced, c, done in binary[a]:
                cell[key] = 1
                waiting[b, j].append((j, cell, key, advanced, (c, done)))
        return closure

    closure = predict(0, (g.start,))
    for j in range(1, n + 1):
        column = {}  # i -> cell (i, j)
        complete = defaultdict(lambda: defaultdict(int))  # i -> {A: weight of A over (i, j)}
        # scanner: unscanned letter states live only in cell (j - 1, j - 1)
        letter = word[j - 1]
        for a in closure:
            key = scanned[a].get(letter)
            if key is not None:
                column.setdefault(j - 1, {})[key] = 1
                complete[j - 1][a] += 1
        # completer: descending start index so weights are final when read
        needed = set()
        for i in range(j - 1, -1, -1):
            for b, weight in complete.pop(i, {}).items():
                for k, pcell, pkey, advanced, then in waiting.get((b, i), ()):
                    cell = column.get(k)
                    if cell is None:
                        cell = column[k] = {}
                    product = weight * pcell[pkey]
                    if advanced in cell:
                        cell[advanced] += product
                    else:
                        cell[advanced] = product
                        if then is not None:
                            c, done = then
                            waiting[c, j].append((k, cell, advanced, done, None))
                            needed.add(c)
                    if then is None:
                        complete[k][advanced[0]] += product
        for i, cell in column.items():
            cells[i, j] = cell
        if not needed:
            break
        # predictor
        closure = predict(j, needed)
    return cells


def earley_count(g: CnfGrammar, word: str) -> int:
    """Number of derivation trees of ``word`` (0 for non-members).

    Sums the weights of the completed start-variable states spanning the
    whole word in the weighted chart.
    """
    cells = earley_chart(g, word)
    return sum(
        weight
        for (a, rhs, dot), weight in cells.get((0, len(word)), {}).items()
        if a == g.start and dot == len(rhs)
    )


# ---------------------------------------------------------------------------
# Conversion to Chomsky normal form.


def _fresh_terminal_wrapper(term):
    return ("@lift", term)


def to_cnf(g: Grammar, drop_epsilon: bool = False) -> CnfGrammar:
    """Chomsky normal form with the same language.

    Eliminates empty and unit productions, lifts terminals out of long
    right-hand sides, binarizes, and prunes useless variables.  If the
    grammar derives the empty word this raises unless ``drop_epsilon``,
    in which case the empty word alone is dropped.
    """
    variables = set(g.variables)
    # nullable closure
    nullable = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            if lhs not in nullable and all(s in nullable for s in rhs):
                nullable.add(lhs)
                changed = True
    if g.start in nullable and not drop_epsilon:
        raise EpsilonInLanguage("the grammar derives the empty word")
    # remove empty productions by expanding nullable occurrences
    expanded = set()
    for lhs, rhs in g.productions:
        options = []
        for sym in rhs:
            if sym in nullable:
                options.append((sym, None))
            else:
                options.append((sym,))
        stack = [()]
        for opts in options:
            stack = [prefix + (o,) for prefix in stack for o in opts]
        for version in stack:
            cleaned = tuple(s for s in version if s is not None)
            if cleaned:
                expanded.add((lhs, cleaned))
    # unit closure by reachability in the variable-to-variable graph
    unit_edges = defaultdict(set)
    for lhs, rhs in expanded:
        if len(rhs) == 1 and rhs[0] in variables:
            unit_edges[lhs].add(rhs[0])
    unit_reach = {}
    for a in variables:
        seen = {a}
        frontier = [a]
        while frontier:
            v = frontier.pop()
            for w in unit_edges.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        unit_reach[a] = seen
    base = defaultdict(set)
    for lhs, rhs in expanded:
        if len(rhs) == 1 and rhs[0] in variables:
            continue
        base[lhs].add(rhs)
    closed = defaultdict(set)
    for a in variables:
        for b in unit_reach[a]:
            closed[a] |= base[b]
    # lift terminals inside long productions, then binarize
    binary = defaultdict(set)
    unary = defaultdict(set)
    order = list(g.variables)
    fresh_seen = set()

    def note_fresh(v):
        if v not in fresh_seen:
            fresh_seen.add(v)
            order.append(v)

    chain_count = 0
    for a in dict.fromkeys(g.variables):
        # only right-hand sides that mint fresh variables need an order:
        # it fixes the numbering of @lift/@chain and their place in order
        minting = []
        for rhs in closed[a]:
            if len(rhs) == 1:
                unary[a].add(rhs[0])
            elif len(rhs) == 2 and rhs[0] in variables and rhs[1] in variables:
                binary[a].add(rhs)
            else:
                minting.append(rhs)
        for rhs in sorted(minting, key=lambda r: tuple(map(str, r))):
            symbols = []
            for sym in rhs:
                if sym in variables:
                    symbols.append(sym)
                else:
                    wrapper = _fresh_terminal_wrapper(sym)
                    note_fresh(wrapper)
                    unary[wrapper].add(sym)
                    symbols.append(wrapper)
            while len(symbols) > 2:
                chain_count += 1
                tail = ("@chain", chain_count)
                note_fresh(tail)
                binary[tail].add((symbols[-2], symbols[-1]))
                symbols = symbols[:-2] + [tail]
            binary[a].add((symbols[0], symbols[1]))
    candidate = CnfGrammar(order, g.terminals, g.start, binary, unary)
    # prune useless variables, keeping the start symbol: reachability runs
    # over the productions left once unproductive variables are dropped
    productive = _restrict(candidate, candidate.productive_variables() | {g.start})
    return _restrict(productive, productive.reachable_variables())


def _restrict(g: CnfGrammar, keep) -> CnfGrammar:
    """``g`` on the variables in ``keep``, with the productions among them."""
    kept = [v for v in g.variables if v in keep]
    binary = {a: [bc for bc in g.binary[a] if bc[0] in keep and bc[1] in keep] for a in kept}
    unary = {a: g.unary[a] for a in kept}
    return CnfGrammar(kept, g.terminals, g.start, binary, unary)


def cfl_description(g: CnfGrammar, bound: Bound) -> Description:
    """Description of the language's slices by its derivation trees.

    The carrier sampler draws uniform trees, the projection is the yield,
    and the multiplicity of a word is its number of derivation trees,
    counted by the weighted Earley chart.
    """
    return Description(
        sampler=lambda n, src: random_tree(g, n, src),
        project=tree_yield,
        ambiguity=lambda word: earley_count(g, word),
        bound=bound,
        census=lambda n: g.tree_table.grow(n)[g.start][n],
    )


def validate_cfl_bound(g: CnfGrammar, bound: Bound, up_to: int) -> None:
    """Check the tree-count bound on every derivable word of length <= up_to."""
    for n in range(1, up_to + 1):
        for w in dict.fromkeys(map(tree_yield, enumerate_trees(g, g.start, n))):
            count = earley_count(g, w)
            if count > bound(n):
                raise AmbiguityExceeded(
                    f"{w!r} has {count} trees, bound {bound(n)}"
                )


# ---------------------------------------------------------------------------
# Text format.


def load_grammar(text: str) -> Grammar:
    """Parse: ``var`` / ``term`` / ``start`` lines, then ``A -> X Y`` rules.

    An empty right-hand side denotes the empty word.
    """
    productions = []

    def rule(number, tokens):
        if len(tokens) < 2 or tokens[1] != "->":
            raise FormatError(f"line {number}: cannot parse {' '.join(tokens)!r}")
        productions.append((number, tokens[0], tuple(tokens[2:])))

    lines = read_directives(text, {"var": None, "term": None, "start": 1}, rule)
    var_line, variables = single(lines, "var")
    start_line, (start,) = single(lines, "start")
    number, terminals = single(lines, "term")
    if len(set(variables)) != len(variables):
        raise FormatError(f"line {var_line}: variables must be distinct")
    if start not in variables:
        raise FormatError(f"line {start_line}: start symbol {start!r} is not a variable")
    if any(len(t) != 1 for t in terminals):
        raise FormatError(f"line {number}: terminals must be single characters")
    for t in terminals:
        if t in variables:
            raise FormatError(f"line {number}: {t!r} is both a variable and a terminal")
    known = set(variables) | set(terminals)
    for number, lhs, rhs in productions:
        if lhs not in set(variables):
            raise FormatError(f"line {number}: unknown variable {lhs!r}")
        for sym in rhs:
            if sym not in known:
                raise FormatError(f"line {number}: unknown symbol {sym!r}")
    return Grammar(
        tuple(variables), tuple(terminals), start, tuple((lhs, rhs) for _, lhs, rhs in productions)
    )


def dump_grammar(g: CnfGrammar) -> str:
    """Render a CNF grammar in the text format, naming tuple variables."""
    names = {}
    for i, v in enumerate(g.variables):
        names[v] = v if isinstance(v, str) else f"N{i}"
    lines = [
        "var " + " ".join(names[v] for v in g.variables),
        "term " + " ".join(g.terminals),
        "start " + names[g.start],
    ]
    for a in g.variables:
        for b, c in g.binary[a]:
            lines.append(f"{names[a]} -> {names[b]} {names[c]}")
        for t in g.unary[a]:
            lines.append(f"{names[a]} -> {t}")
    return "\n".join(lines) + "\n"
