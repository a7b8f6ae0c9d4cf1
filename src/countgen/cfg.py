"""Context-free machinery: CNF grammars, tree census, tree sampling,
Earley tree counting, and the word sampler built from them.

A CNF grammar numbers its variables by their position in the variable
order, and the hot paths name variables by that index: ``to_cnf`` and PDA
slice grammars mint tuple variables, which a dict would hash again at
every use.  Derivation trees of a fixed yield length are counted exactly
by the binary-production convolution; the same (growable) table drives a
uniform tree sampler.  The table keeps, per variable, each binary
production beside the rows of its two children, and builds, at the first
draw at a (variable, length) pair, a split plan: the running sums of the
nonzero split weights.  A node's draw unrolls ``draw_uniform``'s
rejection, with the same bits, and finds its split with one bisection; a
child with exactly one tree at its length is that tree, kept whole (a
forced tree, whose draw reads no bits).  The table keeps one prepared
draw per yield length, so a repeated draw repeats no set-up.  A weighted
Earley recognizer counts the derivation trees of a given word, which is
the multiplicity needed to flatten trees into uniformly random words: it
keeps, per span, only the completed variables and the productions
waiting for their second child, and looks each column's prediction up in
a per-grammar memo.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict

from ._kept import kept
from ._record import record
from .coins import FAIL, bit_size
from .describe import Bound, Description
from .exceptions import (
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


@record
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
    ``var_index`` maps each variable to its index in ``variables``, and
    ``pairs[i]`` holds the binary productions of variable i as index
    pairs, in the order of ``binary``.
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
        self.pairs = []
        for a in self.variables:
            pairs = tuple(binary.get(a, ()))
            letters = tuple(unary.get(a, ()))
            try:
                keyed = sorted([((var_index[b], var_index[c]), (b, c)) for b, c in pairs])
            except KeyError:
                b, c = next(bc for bc in pairs if not set(bc) <= var_index.keys())
                raise ValueError(f"production {a!r} -> {b!r} {c!r} uses unknown variables") from None
            for t in letters:
                if t not in term_index:
                    raise ValueError(f"production {a!r} -> {t!r} uses an unknown terminal")
            index_pairs = tuple([bc for bc, _ in keyed])
            if len(set(index_pairs)) != len(index_pairs) or len(set(letters)) != len(letters):
                raise ValueError(f"duplicate productions for {a!r}")
            self.binary[a] = tuple([bc for _, bc in keyed])
            self.pairs.append(index_pairs)
            self.unary[a] = tuple(sorted(letters, key=term_index.__getitem__))

    @kept
    def earley_tables(self) -> tuple:
        """Earley prediction for this grammar, by variable index.

        ``corner[i]`` holds the indices of the variables reached from
        variable i through leftmost children (i included).  ``plans`` is a
        memo that grows on use, from the frozen set of variable indices a
        column predicts to that column's plan: letter t -> the predicted
        variables A with A -> t, and variable B -> the pairs (A, C) of the
        predicted productions A -> B C.
        """
        corner = []
        for i in range(len(self.variables)):
            reach = {i}
            frontier = [i]
            while frontier:
                for b, _ in self.pairs[frontier.pop()]:
                    if b not in reach:
                        reach.add(b)
                        frontier.append(b)
            corner.append(frozenset(reach))
        return tuple(corner), {}

    @kept
    def tree_table(self) -> TreeTable:
        """The grammar's one tree-census table, built empty; each reader
        grows it to the yield length it reads."""
        return tree_census_table(self, 0)

class TreeTable(dict):
    """table[a][l] = number of derivation trees from a with yield length l.

    Besides the rows by name, the table keeps lists indexed by variable
    index i, the position of a in ``grammar.variables``:

    - ``rows[i]`` is the row ``table[a]`` itself;
    - ``splits[i]`` holds ``(rows[b], rows[c], b, c)`` for each production
      a -> b c, in the grammar's order, with b and c variable indices;
    - ``letters[i]`` is ``grammar.unary[a]``;
    - ``support[i]`` lists, in ascending order, the yield lengths l >= 1
      at which ``rows[i][l]`` is nonzero, so ``grow`` multiplies only
      the nonzero entries of a left child's row;
    - ``plans[i]`` maps a yield length l to the split plan of a at l
      (``split_plan``), built at the first draw there.

    ``forced_trees`` maps ``(i, l)`` to the one tree of a at yield length
    l where a has exactly one (``forced``), built when a split plan or a
    prepared draw first holds it.

    ``samplers`` maps a yield length n to the prepared draw of a tree
    from the start variable at n, which ``sampler`` builds at the first
    draw there and returns from then on.

    The rows grow in place, so all but the plans, the forced trees and the
    prepared draws are built once per table, and none of those, which read
    only rows up to their length, ever goes stale.
    """

    def __init__(self, g: CnfGrammar):
        rows = [[0] for _ in g.variables]
        super().__init__(zip(g.variables, rows))
        self.grammar = g
        self.rows = rows
        self.splits = [tuple((rows[b], rows[c], b, c) for b, c in pairs) for pairs in g.pairs]
        self.letters = [g.unary[a] for a in g.variables]
        self.support = [[] for _ in rows]
        self.plans = [{} for _ in rows]
        self.forced_trees = {}
        self.samplers = {}

    def grow(self, n: int) -> "TreeTable":
        """Append yield lengths until every row covers 0..n."""
        if n < 0:
            raise ValueError("yield length must be nonnegative")
        support = self.support
        for length in range(len(self.rows[0]), n + 1):
            # support lists reach length - 1 here: split k runs over the
            # nonzero lengths of the left child, all below length
            for row, pairs, letters in zip(self.rows, self.splits, self.letters):
                total = len(letters) if length == 1 else 0
                for row_b, row_c, b, _ in pairs:
                    nonzero = support[b]
                    if nonzero:
                        total += sum([row_b[k] * row_c[length - k] for k in nonzero])
                row.append(total)
            for row, nonzero in zip(self.rows, support):
                if row[length]:
                    nonzero.append(length)
        return self

    def split_plan(self, i: int, length: int) -> tuple:
        """Build, keep and return the split plan of variable i at yield
        length ``length``: ``(weights, picks)``.

        The buckets are the productions a -> b c at each split k, in (k,
        production) order, weighing row_b[k] * row_c[length - k]; only the
        nonzero ones are kept.  ``weights`` holds their running sums, so a
        0-based rank r falls in the bucket at ``bisect_right(weights, r)``,
        and ``picks`` holds that bucket's ``(k, b, c, left, right)``, where
        ``left`` is b's forced tree at k when row_b[k] is 1, and ``right``
        is c's forced tree at length - k when row_c[length - k] is 1 (each
        None otherwise).
        """
        forced = self.forced
        weights, picks = [], []
        acc = 0
        for k in range(1, length):
            for row_b, row_c, b, c in self.splits[i]:
                weight = row_b[k] * row_c[length - k]
                if weight:
                    acc += weight
                    weights.append(acc)
                    picks.append((
                        k, b, c,
                        forced(b, k) if row_b[k] == 1 else None,
                        forced(c, length - k) if row_c[length - k] == 1 else None,
                    ))
        plan = self.plans[i][length] = weights, picks
        return plan

    def forced(self, i: int, length: int) -> tuple:
        """The one derivation tree of variable i at yield length ``length``,
        where its count is 1, built from the rows and kept in
        ``forced_trees``.  Its draw reads no bits: every node of it has
        count 1, a forced choice, and takes the one nonzero split.
        """
        tree = self.forced_trees.get((i, length))
        if tree is None:
            name = self.grammar.variables[i]
            if length == 1:
                tree = (name, self.letters[i][0])
            else:
                k, b, c = next(
                    (k, b, c)
                    for k in range(1, length)
                    for row_b, row_c, b, c in self.splits[i]
                    if row_b[k] and row_c[length - k]
                )
                tree = (name, self.forced(b, k), self.forced(c, length - k))
            self.forced_trees[i, length] = tree
        return tree

    def sampler(self, n: int):
        """The draw of a uniform tree from the start variable at yield
        length n >= 1, built at the first call for n and kept: ``draw(src)``
        returns the tree or FAIL.  Building grows the table to n; EmptySlice,
        keeping nothing, when the start variable has no tree there.

        A node draws a 0-based rank r below its tree count, within kappa =
        3 + bit_size(n) attempts, and takes the split holding r from its
        split plan with one bisection.  This is ``draw_uniform`` unrolled,
        with the same bits.  A child whose count is 1 is the forced tree
        the plan holds, and a start variable with one tree at n is its
        forced tree: their draws would be forced choices, which read no
        bits.
        """
        draw = self.samplers.get(n)
        if draw is not None:
            return draw
        rows = self.grow(n).rows
        g = self.grammar
        start = g.var_index[g.start]
        if rows[start][n] == 0:
            raise EmptySlice(f"no derivation trees of yield length {n}")
        if rows[start][n] == 1:
            tree = self.forced(start, n)

            def draw(src):
                return tree

            self.samplers[n] = draw
            return draw
        names, letters, plans = g.variables, self.letters, self.plans
        split_plan = self.split_plan
        attempts = range(3 + bit_size(n))

        def draw(src):
            # Each draw leaves its closure to the cycle collector, since
            # generate refers to itself.  Removing that cycle is left until
            # the benchmark collects after each set-up (ROADMAP item 1):
            # without it, no collection runs in the cfl workload's timed
            # phase, and its peak RSS then grows with the requests served.
            def generate(i, length):
                # called only where the count is above 1
                total = rows[i][length]
                width = (total - 1).bit_length()
                for _ in attempts:
                    r = src.draw(width)
                    if r < total:
                        break
                else:
                    return FAIL
                if length == 1:
                    return (names[i], letters[i][r])
                plan = plans[i].get(length)
                if plan is None:
                    plan = split_plan(i, length)
                weights, picks = plan
                k, b, c, left, right = picks[bisect_right(weights, r)]
                if left is None:
                    left = generate(b, k)
                    if left is FAIL:
                        return FAIL
                if right is None:
                    right = generate(c, length - k)
                    if right is FAIL:
                        return FAIL
                return (names[i], left, right)

            return generate(start, n)

        self.samplers[n] = draw
        return draw


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
    most (2n - 1) / 2**kappa, below 1/4.  The draw is the one the
    grammar's ``tree_table`` keeps for yield length n
    (``TreeTable.sampler``); an empty slice raises EmptySlice on every
    call, since no draw is kept for it.
    """
    if n < 1:
        raise ValueError("yield length must be >= 1")
    return g.tree_table.sampler(n)(src)


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
# Earley counting: derivation trees of one word.


def _earley_plan(g: CnfGrammar, predicted: frozenset) -> tuple:
    """The plan of a column that predicts ``predicted``, from the memo."""
    corner, plans = g.earley_tables
    plan = plans.get(predicted)
    if plan is None:
        scans, waits = {}, {}
        for a in frozenset().union(*(corner[b] for b in predicted)):
            for t in g.unary[g.variables[a]]:
                scans.setdefault(t, []).append(a)
            for b, c in g.pairs[a]:
                waits.setdefault(b, []).append((a, c))
        plan = plans[predicted] = (scans, waits)
    return plan


def earley_count(g: CnfGrammar, word: str) -> int:
    """Number of derivation trees of ``word`` (0 for non-members).

    Earley's recognizer with weights that keeps no dotted states, and
    names every variable by its index in ``g.variables``.  A completed B
    over (i, j) with w trees multiplies into every entry (k, A, pw) filed
    under (B, i), adding pw * w trees to A over (k, j), and, for each
    production A -> B C predicted at i, files (i, A, w) under (C, j).  In
    CNF a completion over (i, j) only adds to starts k < i, so a pass
    over column j with descending i reads each weight after its last
    update.  Column j predicts the left-corner closure of the variables
    filed under it, and its plan comes from the grammar's memo
    (``CnfGrammar.earley_tables``).
    """
    n = len(word)
    if n < 1:
        raise ValueError("word must be non-empty")
    start = g.var_index[g.start]
    plans = [_earley_plan(g, frozenset((start,)))]
    filed = [{}]  # filed[i][C]: the entries (k, A, w) filed under (C, i)
    for j in range(1, n + 1):
        complete = [None] * j  # complete[i]: {B: trees of B over (i, j)}
        complete[j - 1] = dict.fromkeys(plans[j - 1][0].get(word[j - 1], ()), 1)
        column = {}  # C -> the entries filed under (C, j)
        for i in range(j - 1, -1, -1):
            done = complete[i]
            if not done:
                continue
            waiting = filed[i]
            # nothing reads the entries of the last column
            predicted = plans[i][1] if j < n else {}
            for b, w in done.items():
                for k, a, pw in waiting.get(b, ()):
                    cell = complete[k]
                    if cell is None:
                        complete[k] = {a: pw * w}
                    else:
                        cell[a] = cell.get(a, 0) + pw * w
                for a, c in predicted.get(b, ()):
                    entries = column.get(c)
                    if entries is None:
                        column[c] = [(i, a, w)]
                    else:
                        entries.append((i, a, w))
        if not column:
            return complete[0].get(start, 0) if j == n and complete[0] else 0
        plans.append(_earley_plan(g, frozenset(column)))
        filed.append(column)


# ---------------------------------------------------------------------------
# Conversion to Chomsky normal form.


def _fresh_terminal_wrapper(term):
    return ("@lift", term)


def to_cnf(g: Grammar, drop_epsilon: bool = False) -> CnfGrammar:
    """Chomsky normal form with the same language.

    Eliminates empty and unit productions, lifts terminals out of long
    right-hand sides, binarizes, and prunes useless variables.  If the
    grammar derives the empty word this raises unless ``drop_epsilon``,
    in which case the empty word alone is dropped.  Productive, then
    reachable, variables are found on the converted productions, so the
    one ``CnfGrammar`` built is the pruned one.  It keeps the declared
    variables first, then the minted ``@lift``/``@chain`` ones in the order
    they were made.  Repeated variables, or a production whose left side
    is no variable or whose right side names a symbol that is neither a
    variable nor a terminal, raise ValueError.
    """
    variables = set(g.variables)
    known = variables.union(g.terminals)
    if len(variables) < len(g.variables) or not all(
            lhs in variables and known.issuperset(rhs) for lhs, rhs in g.productions):
        raise ValueError("variables must be distinct, and productions must rewrite a variable "
                         "to variables and terminals")
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
        versions = [()]
        for sym in rhs:
            versions = [v + (sym,) for v in versions] + (versions if sym in nullable else [])
        expanded.update((lhs, v) for v in versions if v)
    unit_edges = defaultdict(set)  # the variable-to-variable graph of unit productions
    base = defaultdict(set)  # the other productions
    for lhs, rhs in expanded:
        if len(rhs) == 1 and rhs[0] in variables:
            unit_edges[lhs].add(rhs[0])
        else:
            base[lhs].add(rhs)
    # close each variable under unit productions, lift terminals inside
    # long productions, then binarize
    binary = defaultdict(set)
    unary = defaultdict(set)
    order = list(g.variables)
    fresh_seen = set()

    def note_fresh(v):
        if v not in fresh_seen:
            fresh_seen.add(v)
            order.append(v)

    chain_count = 0
    for a in g.variables:
        reach, frontier = {a}, [a]  # the variables a reaches through unit productions
        while frontier:
            new = unit_edges[frontier.pop()] - reach
            reach |= new
            frontier.extend(new)
        # only right-hand sides that mint fresh variables need an order:
        # it fixes the numbering of @lift/@chain and their place in order
        minting = set()
        for rhs in (rhs for v in reach for rhs in base[v]):
            if len(rhs) == 1:
                unary[a].add(rhs[0])
            elif len(rhs) == 2 and rhs[0] in variables and rhs[1] in variables:
                binary[a].add(rhs)
            else:
                minting.add(rhs)
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
    # prune useless variables, keeping the start symbol: reachability runs
    # over the productions left once unproductive variables are dropped
    productive = set()
    grew = True
    while grew:
        grew = False
        for a in order:
            if a not in productive and (unary[a] or any(
                    b in productive and c in productive for b, c in binary[a])):
                productive.add(a)
                grew = True
    productive.add(g.start)
    live = {}  # reachable variable -> its productions among productive variables
    frontier = [g.start]
    while frontier:
        a = frontier.pop()
        if a not in live:
            live[a] = [bc for bc in binary[a] if bc[0] in productive and bc[1] in productive]
            frontier.extend(v for bc in live[a] for v in bc)
    return CnfGrammar([v for v in order if v in live], g.terminals, g.start, live, unary)


def cfl_description(g: CnfGrammar, bound: Bound) -> Description:
    """Description of the language's slices by its derivation trees.

    The carrier sampler draws uniform trees, the projection is the yield,
    and the multiplicity of a word is its number of derivation trees,
    counted by ``earley_count``.
    """
    return Description(
        sampler=lambda n, src: random_tree(g, n, src),
        project=tree_yield,
        ambiguity=lambda word: earley_count(g, word),
        bound=bound,
        census=lambda n: tree_census(g, g.start, n),
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
