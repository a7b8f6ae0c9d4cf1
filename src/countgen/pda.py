"""Plain one-way pushdown automata and their per-length slice grammars.

For a fixed input length n, the machine's behaviour between two surface
configurations (state, stack top, input position) at equal stack height
is context-free: single moves, splits at a height return, and matched
push/pop brackets generate exactly the accepted words of length n.  The
resulting grammar feeds the context-free sampling and counting pipeline.

Acceptance is by final state with the stack holding only the initial
symbol; the first listed state is the start state.  A move either
consumes input (stack untouched) or pushes/pops one symbol (no input).
"""

from __future__ import annotations

from collections import defaultdict

from ._record import record
from .cfg import CnfGrammar, Grammar, cfl_description, to_cnf
from .describe import Bound, Description
from .exceptions import FormatError, SizeGuard
from .specfile import read_directives, single

# Node and depth budget of the computation search.
_SEARCH_NODES = 200_000
_SEARCH_DEPTH = 300


@record
class Pda:
    states: tuple
    input_alphabet: tuple
    stack_alphabet: tuple
    init_stack: str
    finals: frozenset
    moves: tuple
    # moves are tagged tuples:
    #   ("consume", q, symbol_or_None, top, q2)   reads symbol (None = silent)
    #   ("push", q, top, pushed, q2)
    #   ("pop", q, top, q2)                       pops the current top

    def __post_init__(self):
        states = set(self.states)
        stack = set(self.stack_alphabet)
        inputs = set(self.input_alphabet)
        if self.init_stack not in stack:
            raise ValueError("initial stack symbol not in stack alphabet")
        if not self.finals <= states:
            raise ValueError("final states must be states")
        for move in self.moves:
            kind = move[0]
            if kind == "consume":
                _, q, sym, top, q2 = move
                if sym is not None and sym not in inputs:
                    raise ValueError(f"unknown input symbol {sym!r}")
            elif kind == "push":
                _, q, top, pushed, q2 = move
                if pushed not in stack:
                    raise ValueError(f"unknown stack symbol {pushed!r}")
            elif kind == "pop":
                _, q, top, q2 = move
            else:
                raise ValueError(f"unknown move kind {kind!r}")
            if q not in states or q2 not in states or top not in stack:
                raise ValueError(f"move {move!r} references unknown names")

    @property
    def start_state(self):
        return self.states[0]


@record
class SliceGrammar:
    """CNF grammar for one input length, with construction statistics.

    ``raw_variables`` and ``raw_productions`` count the grammar the builder
    emitted before ``to_cnf``: the start symbol and the live configuration
    pairs, and their productions.  ``pruned_*`` are those counts minus the
    CNF grammar's.
    """

    grammar: CnfGrammar
    n: int
    raw_variables: int
    raw_productions: int
    pruned_variables: int
    pruned_productions: int


def _single_moves(m: Pda):
    consume = []
    push = []
    pop = []
    for move in m.moves:
        if move[0] == "consume":
            consume.append(move[1:])
        elif move[0] == "push":
            push.append(move[1:])
        else:
            pop.append(move[1:])
    return consume, push, pop


def build_slice_grammar(m: Pda, n: int) -> SliceGrammar:
    """Grammar whose length-n words are exactly those the PDA accepts.

    Nonterminals are pairs of surface configurations sharing a stack top,
    flagged by whether the run in between revisits the endpoint height.
    Productions: single consuming moves, splits at a height return, and
    matching push/pop pairs around an inner run.  Only live pairs are
    built: the variables deriving some word (possibly empty) are saturated
    bottom-up by span, then productions are emitted top-down from the
    start symbol, keeping those whose variables all derive a word.
    ``raw_*`` count that emitted grammar; ``to_cnf`` then drops the
    variables that derive only the empty word.
    """
    # The CNF grammar equals the one converted from every plausible pair
    # (all states, tops and positions j1 <= j2; the reference in the
    # tests): same variables in the same order, same productions.
    # - A dropped variable derives no word, so it is neither nullable nor
    #   productive there, and to_cnf prunes every production naming it.
    # - A CNF production between productive variables comes from a raw
    #   derivation through variables that derive words, so CNF
    #   reachability stays inside the variables reached here.
    # - Right-hand sides have length at most 2 and never put a terminal
    #   beside a variable, so to_cnf mints no @lift or @chain variable, and
    #   sorting a subset of the variables keeps their relative order.
    if n < 1:
        raise ValueError("slice length must be >= 1")
    consume, push, pop = _single_moves(m)
    steps = defaultdict(list)  # (q1, top) -> (symbol or None, q2)
    for q, sym, top, q2 in consume:
        steps[q, top].append((sym, q2))
    brackets = defaultdict(list)  # (q1, top) -> (pushed, qp, qq, q2)
    wrapping = defaultdict(list)  # (qp, pushed, qq) -> (q1, top, q2)
    for q, top, pushed, qp in push:
        for qq, ptop, q2 in pop:
            if ptop == pushed:
                brackets[q, top].append((pushed, qp, qq, q2))
                wrapping[qp, pushed, qq].append((q, top, q2))

    # Bottom-up, span by span.  A flag-1 pair derives through a consume
    # move or a bracket around a same-span pair (or an empty one); a
    # flag-0 pair through a flag-1 pair followed by any pair, so span-0
    # pieces feed splits of the same span and each span runs to a fixpoint.
    derivable = set()
    agenda = [[] for _ in range(n + 1)]  # by span j2 - j1

    def derive(c1, c2, flag):
        if (c1, c2, flag) not in derivable:
            derivable.add((c1, c2, flag))
            agenda[c2[2] - c1[2]].append((c1, c2, flag))

    for q, sym, top, q2 in consume:
        for j in range(1, n + 2 if sym is None else n + 1):
            derive((q, top, j), (q2, top, j + (sym is not None)), 1)
    for (qp, _, qq), outer in wrapping.items():
        if qp == qq:  # push immediately undone
            for q, top, q2 in outer:
                for j in range(1, n + 2):
                    derive((q, top, j), (q2, top, j), 1)
    heads = defaultdict(list)  # c1 -> each d with (c1, d, 1) derivable
    tails = defaultdict(list)  # d -> each c1 with (c1, d, 1) derivable
    ends = defaultdict(list)  # c1 -> each c2 with (c1, c2, 0 or 1) derivable
    pairs = set()
    for bucket in agenda:
        while bucket:
            c1, c2, flag = bucket.pop()
            if flag:
                heads[c1].append(c2)
                tails[c2].append(c1)
                for c3 in ends[c2]:
                    derive(c1, c3, 0)
            if (c1, c2) in pairs:  # its other flag already combined
                continue
            pairs.add((c1, c2))
            ends[c1].append(c2)
            for c0 in tails[c1]:
                derive(c0, c2, 0)
            for q, top, q2 in wrapping.get((c1[0], c1[1], c2[0]), ()):
                derive((q, top, c1[2]), (q2, top, c2[2]), 1)

    # Top-down from the start symbol: the productions of each reached
    # variable whose variables are all derivable.
    start = "@start"
    productions = []
    reached = set()
    frontier = []

    def emit(lhs, *rhs):
        productions.append((lhs, rhs))
        for v in rhs:
            if v not in reached:
                reached.add(v)
                frontier.append(v)

    c_in = (m.start_state, m.init_stack, 1)
    for qf in m.finals:
        for flag in (0, 1):
            v = (c_in, (qf, m.init_stack, n + 1), flag)
            if v in derivable:
                emit(start, v)
    while frontier:
        v = frontier.pop()
        c1, c2, flag = v
        (q1, top, j1), (q2, _, j2) = c1, c2
        if not flag:
            # split at the first interior return to the endpoint height
            for d in heads[c1]:
                if d[2] <= j2:
                    for f in (0, 1):
                        if (d, c2, f) in derivable:
                            emit(v, (c1, d, 1), (d, c2, f))
            continue
        # single moves: no interior, so they carry flag 1 (a flag-0 single
        # move would make runs that open with a consuming move underivable)
        for sym, qm in steps.get((q1, top), ()):
            if qm == q2 and j2 == j1 + (sym is not None):
                productions.append((v, () if sym is None else (sym,)))
        # bracket: push from c1, matched pop into c2; an empty interior
        # (push immediately undone) consumes nothing
        for pushed, qp, qq, qr in brackets.get((q1, top), ()):
            if qr != q2:
                continue
            d1 = (qp, pushed, j1)
            d2 = (qq, pushed, j2)
            for f in (0, 1):
                if (d1, d2, f) in derivable:
                    emit(v, (d1, d2, f))
            if d1 == d2:
                productions.append((v, ()))
    variables = [start] + sorted(reached, key=str)
    raw = Grammar(
        tuple(variables), m.input_alphabet, start, tuple(productions)
    )
    raw_vars = len(variables)
    raw_prods = len(productions)
    cnf = to_cnf(raw, drop_epsilon=True)
    return SliceGrammar(
        grammar=cnf,
        n=n,
        raw_variables=raw_vars,
        raw_productions=raw_prods,
        pruned_variables=raw_vars - len(cnf.variables),
        pruned_productions=raw_prods
        - sum(len(cnf.binary[a]) + len(cnf.unary[a]) for a in cnf.variables),
    )


def pda_slice_description(m: Pda, n: int, bound: Bound) -> Description:
    """Description of the PDA's length-n slice through its slice grammar."""
    sliced = build_slice_grammar(m, n)
    return cfl_description(sliced.grammar, bound)


# ---------------------------------------------------------------------------
# Bounded computation search: the enumeration oracle for small machines.


def count_accepting(m: Pda, word: str) -> int:
    """Number of accepting computations on ``word`` by exhaustive search.

    Raises SizeGuard on cycles of non-consuming moves (which make the
    count infinite) and when the search outgrows its node or depth budget.
    """
    consume, push, pop = _single_moves(m)
    budget = [_SEARCH_NODES]

    def explore(q, pos, stack, depth, quiet_seen):
        budget[0] -= 1
        if budget[0] < 0:
            raise SizeGuard("computation search exceeded its node budget")
        if depth > _SEARCH_DEPTH:
            raise SizeGuard("computation search exceeded its depth budget")
        key = (q, stack)
        if key in quiet_seen:
            raise SizeGuard("cycle of non-consuming moves: count is infinite")
        quiet_seen = quiet_seen | {key}
        total = 0
        if pos == len(word) and q in m.finals and stack == (m.init_stack,):
            total += 1
        top = stack[-1]
        for mq, sym, mtop, q2 in consume:
            if mq != q or mtop != top:
                continue
            if sym is None:
                total += explore(q2, pos, stack, depth + 1, quiet_seen)
            elif pos < len(word) and word[pos] == sym:
                total += explore(q2, pos + 1, stack, depth + 1, frozenset())
        for mq, mtop, pushed, q2 in push:
            if mq == q and mtop == top:
                total += explore(q2, pos, stack + (pushed,), depth + 1, quiet_seen)
        if len(stack) > 1:
            for mq, mtop, q2 in pop:
                if mq == q and mtop == top:
                    total += explore(q2, pos, stack[:-1], depth + 1, quiet_seen)
        return total

    return explore(m.start_state, 0, (m.init_stack,), 0, frozenset())


def pda_accepts(m: Pda, word: str) -> bool:
    return count_accepting(m, word) > 0


def load_pda(text: str) -> Pda:
    """Parse: state / input / stack / init / final lines, then move lines.

    The first state listed is the start state, ``-`` stands for a silent
    consume move, and the states of repeated ``final`` lines add up.
    """
    lines = read_directives(text, {"state": None, "input": None, "stack": None, "init": 1,
                                   "final": None, "consume": 4, "push": 4, "pop": 3})
    states, stack = (tuple(single(lines, key)[1]) for key in ("state", "stack"))
    number, inputs = single(lines, "input")
    if any(len(sym) != 1 or sym == "-" for sym in inputs):
        raise FormatError(f"line {number}: input symbols are single characters; '-' is silent")
    number, (init,) = single(lines, "init")
    if init not in stack:
        raise FormatError(f"line {number}: initial symbol {init!r} is not a stack symbol")
    for number, args in lines["final"]:
        for q in args:
            if q not in states:
                raise FormatError(f"line {number}: final state {q!r} is not a state")
    finals = frozenset(q for _, args in lines["final"] for q in args)
    # what each argument of a move line must name
    known = {"consume": (states, (*inputs, "-"), stack, states),
             "push": (states, stack, stack, states), "pop": (states, stack, states)}
    moves = []
    for number, kind, args in sorted(
        (number, kind, args) for kind in ("consume", "push", "pop") for number, args in lines[kind]
    ):
        for name, names in zip(args, known[kind]):
            if name not in names:
                raise FormatError(f"line {number}: {kind} names unknown {name!r}")
        if kind == "consume" and args[1] == "-":
            args = [args[0], None, *args[2:]]
        moves.append((kind, *args))
    return Pda(states, tuple(inputs), stack, init, finals, tuple(moves))
