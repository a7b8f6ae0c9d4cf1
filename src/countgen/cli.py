"""Command-line frontend: count, sample, rank, unrank, estimate, derandomize.

Every command loads a line-format specification file, runs one library
operation with a seeded coin source, and prints the result together with
the trials and bits consumed.  Identical seeds and inputs give
byte-identical output.  Exit codes: 0 on success, 1 on parse or
validation errors, 2 when a randomized routine returns the failure
outcome.

The table ``_FAMILIES`` drives parser and dispatch: each op names its
library call, the oracle ``--oracle`` runs, and the flags it reads; a
family accepts only the flags its ops read, and an op refuses any flag
given on the command line that it does not read.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from collections.abc import Callable
from decimal import Decimal
from fractions import Fraction
from itertools import product as iproduct

from . import cfg, describe, dfa, nfa, pda, pseudobool, traces
from ._record import record
from .coins import FAIL, CoinSource, retries_for
from .describe import Bound, SampleReport
from .exceptions import FormatError
from .pseudobool import PbProblem


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"error: {message}\n")


class OracleMismatch(Exception):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def _bound_arg(text: str) -> Bound:
    """Parse 'K' as a constant bound or 'c,p,k' as c*n**p + k."""
    parts = text.split(",")
    if len(parts) == 1:
        return Bound(const=int(parts[0]))
    if len(parts) == 3:
        return Bound(coeff=int(parts[0]), power=int(parts[1]), const=int(parts[2]))
    raise argparse.ArgumentTypeError("ambiguity must be 'K' or 'c,p,k'")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _derive_seed(seed: int, index: int) -> int:
    if index == 0:
        return seed
    digest = hashlib.blake2b(
        index.to_bytes(8, "little"),
        key=(seed & (2**64 - 1)).to_bytes(8, "little"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "little")


def _digits(n: int) -> str:
    # exact at any size: str(int) refuses more than sys.get_int_max_str_digits()
    return str(Decimal(n))


def _render(value) -> str:
    if value is FAIL:
        return "FAIL (⊥)"
    if isinstance(value, Fraction):
        return f"{_digits(value.numerator)}/{_digits(value.denominator)}"
    if isinstance(value, tuple):
        return "".join(str(v) for v in value)
    if type(value) is int:
        return _digits(value)
    return str(value)


def _words(alphabet, n):
    return ("".join(t) for t in iproduct(alphabet, repeat=n))


# ---------------------------------------------------------------------------
# Oracles.  Each is called as oracle(family, spec, args, value) on a value
# that is not FAIL and raises OracleMismatch.  The brute-force ones walk
# every word of a slice, so they are meant for small inputs.


def _slice_census(fam, spec, args) -> int:
    return sum(fam.member(spec, w) for w in _words(fam.alphabet(spec), args.n))


def _equal(brute):
    """Oracle: the value equals ``brute(family, spec, args)``."""

    def check(fam, spec, args, value):
        expected = brute(fam, spec, args)
        if value != expected:
            raise OracleMismatch(f"{args.op} {value} != brute {expected}")

    return check


def _brute_rank(fam, spec, args) -> int:
    """Members up to ``args.word`` in length-first alphabet order."""
    total = 0
    for length in range(len(args.word) + 1):
        for w in _words(fam.alphabet(spec), length):
            total += fam.member(spec, w)
            if w == args.word:
                break
    return total


def _sampled(fam, spec, args, value):
    if len(value) != args.n or not fam.member(spec, value):
        raise OracleMismatch(f"sampled {value!r} is not a member of length {args.n}")


def _sampled_tree(fam, g, args, value):
    if value not in map(cfg.format_tree, cfg.enumerate_trees(g, g.start, args.n)):
        raise OracleMismatch(f"sampled {value} is not a tree of yield length {args.n}")


def _round_trip(rank):
    """Oracle: the unranked word is a member and ``rank(spec, args, word)`` is k."""

    def check(fam, spec, args, value):
        if not fam.member(spec, value) or rank(spec, args, value) != args.k:
            raise OracleMismatch(f"unranked {value!r} does not rank back to {args.k}")

    return check


def _band(fam, spec, args, value):
    brute = _slice_census(fam, spec, args)
    if not (1 - args.epsilon) * brute <= value <= (1 + args.epsilon) * brute:
        raise OracleMismatch(f"estimate {_render(value)} outside brute {brute} ± {args.epsilon}")


def _above_expectation(fam, problem, args, value):
    if problem.value(value) < pseudobool.cond_expectation(problem, []):
        raise OracleMismatch("derandomized value below the expectation")


# ---------------------------------------------------------------------------
# The family table.  Calls look library functions up through their modules
# when they run, so patched module attributes are seen.


@record
class Op:
    """One op: ``call(subject, args, src)``, its oracle (None: ``--oracle``
    is refused) and the flags it reads.  ``prepare(spec, args)`` makes the
    subject once per run, before the ``--repeat`` loop.  An op that reads
    ``seed`` reports one trial unless it returns a SampleReport, which
    carries its own count."""

    call: Callable
    oracle: Callable | None
    flags: tuple
    prepare: Callable = lambda spec, args: spec


@record
class Family:
    spec: tuple  # spec-file flags every op reads; pb ops name theirs in Op.flags
    load: Callable  # args -> spec
    ops: dict  # "sample --tree" is what cfg sample runs under --tree
    member: Callable | None = None  # (spec, word) -> bool, for brute oracles
    alphabet: Callable | None = None  # spec -> letters of the brute slices


def _described(desc, ops=("sample", "estimate", "exact")) -> dict:
    """Ops served through the Description ``desc(spec, args)``, built once
    per run."""
    flags = ("n", "ambiguity", "seed")
    made = {
        "sample": Op(lambda d, args, src: describe.sample_report(
                         d, args.n, src, trials=args.trials),
                     _sampled, flags + ("trials",), desc),
        "estimate": Op(lambda d, args, src: describe.estimate_census(
                           d, args.n, args.epsilon, src),
                       _band, flags + ("epsilon",), desc),
        "exact": Op(lambda d, args, src: describe.exact_count(
                        d, args.n, src, ceiling=args.ceiling),
                    _equal(_slice_census), flags + ("ceiling",), desc),
    }
    return {op: made[op] for op in ops}


def _sample_tree(g, args, src):
    tree = cfg.random_tree(g, args.n, src)
    return tree if tree is FAIL else cfg.format_tree(tree)


@record
class _TraceSpec:
    automaton: dfa.Dfa
    alph: traces.IndepAlphabet


def _load_trace(args) -> _TraceSpec:
    return _TraceSpec(*traces.load_trace(_read(args.automaton)))


def _trace_member(s: _TraceSpec, word: str) -> bool:
    # a trace is named by its least representative and needs one in the language
    closure = traces.swap_closure(word, s.alph)
    return word == min(closure) and any(s.automaton.accepts(v) for v in closure)


def _load_pb(args):
    if args.op == "perm":
        if args.matrix is None:
            raise FormatError("perm needs -m/--matrix")
        return pseudobool.load_matrix(_read(args.matrix))
    if args.circuit:
        circuit = pseudobool.load_circuit(_read(args.circuit))
        return PbProblem(circuit.n_vars, circuit)
    if args.cnf:
        n, clauses = pseudobool.load_clauses(_read(args.cnf))
        return PbProblem(n, pseudobool.max_sat_circuit(n, clauses))
    if args.graph:
        n, edges = pseudobool.load_graph(_read(args.graph))
        return PbProblem(n, pseudobool.max_cut_circuit(n, edges))
    raise FormatError("one of --circuit/--cnf/--graph is required")


def _derand(problem, args, src):
    out = pseudobool.derandomize(problem)
    if args.local_radius:
        out = pseudobool.local_search(problem, args.local_radius, out)
    return out


_PB_SPEC = ("circuit", "cnf", "graph")  # derand and search; perm reads -m

_FAMILIES = {
    "dfa": Family(
        spec=("automaton",),
        load=lambda args: dfa.load_dfa(_read(args.automaton)),
        member=lambda a, w: a.accepts(w),
        alphabet=lambda a: a.alphabet,
        ops={
            "count": Op(lambda a, args, src: dfa.dfa_census(a, args.n).count(a.start, args.n),
                        _equal(_slice_census), ("n",)),
            # confidence: attempts that push a per-call failure of 1/2 under delta
            "sample": Op(lambda a, args, src: dfa.dfa_sample(
                             a, args.n, src, confidence=retries_for(args.delta) + 1),
                         _sampled, ("n", "seed", "delta")),
            "rank": Op(lambda a, args, src: dfa.dfa_rank(a, args.word),
                       _equal(_brute_rank), ("word",)),
            "unrank": Op(lambda a, args, src: dfa.dfa_unrank(a, args.k),
                         _round_trip(lambda a, args, w: dfa.dfa_rank(a, w)), ("k",)),
        },
    ),
    "nfa": Family(
        spec=("automaton",),
        load=lambda args: nfa.load_nfa(_read(args.automaton)),
        member=lambda a, w: nfa.path_count(a, w) >= 1,
        alphabet=lambda a: a.alphabet,
        ops={
            "count": Op(lambda a, args, src: nfa.nfa_slice_census(a, args.n),
                        _equal(_slice_census), ("n",)),
            "sample": Op(lambda a, args, src: nfa.nfa_sample_slice(a, args.n, src, args.delta),
                         _sampled, ("n", "seed", "delta")),
            "rank": Op(lambda a, args, src: nfa.nfa_rank(a, args.word),
                       _equal(_brute_rank), ("word",)),
            "unrank": Op(lambda a, args, src: nfa.nfa_unrank(a, args.k),
                         _round_trip(lambda a, args, w: nfa.nfa_rank(a, w)), ("k",)),
        },
    ),
    "cfg": Family(
        spec=("grammar",),
        load=lambda args: cfg.to_cnf(cfg.load_grammar(_read(args.grammar))),
        member=lambda g, w: cfg.earley_count(g, w) > 0,
        alphabet=lambda g: g.terminals,
        ops={
            "count": Op(lambda g, args, src: cfg.tree_census(g, g.start, args.n),
                        _equal(lambda fam, g, args: len(cfg.enumerate_trees(g, g.start, args.n))),
                        ("n",)),
            **_described(lambda g, args: cfg.cfl_description(g, args.ambiguity)),
            "sample --tree": Op(_sample_tree, _sampled_tree, ("n", "tree", "seed")),
        },
    ),
    "pda": Family(
        spec=("machine",),
        load=lambda args: pda.load_pda(_read(args.machine)),
        member=lambda m, w: pda.pda_accepts(m, w),
        alphabet=lambda m: m.input_alphabet,
        ops={
            "grammar": Op(lambda m, args, src: cfg.dump_grammar(
                              pda.build_slice_grammar(m, args.n).grammar).rstrip("\n"),
                          None, ("n",)),
            **_described(lambda m, args: pda.pda_slice_description(m, args.n, args.ambiguity)),
        },
    ),
    "trace": Family(
        spec=("automaton",),
        load=_load_trace,
        member=_trace_member,
        alphabet=lambda s: s.automaton.alphabet,
        ops={
            "count": Op(lambda s, args, src: traces.count_representatives(
                            s.automaton, args.word, s.alph),
                        _equal(lambda fam, s, args: sum(
                            map(s.automaton.accepts, traces.swap_closure(args.word, s.alph)))),
                        ("word",)),
            **_described(
                lambda s, args: traces.trace_description(s.automaton, s.alph, args.ambiguity),
                ("sample", "estimate")),
        },
    ),
    "pb": Family(
        spec=(),
        load=_load_pb,
        ops={
            "derand": Op(_derand, _above_expectation, _PB_SPEC + ("local_radius",)),
            "search": Op(lambda p, args, src: pseudobool.random_search(
                             p, args.epsilon, args.delta, src),
                         None, _PB_SPEC + ("seed", "epsilon", "delta")),
            "perm": Op(lambda a, args, src: pseudobool.permanent(a, args.method),
                       _equal(lambda fam, a, args: pseudobool.permanent(a, "bruteforce")),
                       ("matrix", "method")),
        },
    ),
}

# dest -> (flag names, argparse options), in the order the parser adds them
_FLAGS = {
    "automaton": ("-a --automaton", dict(required=True)),
    "grammar": ("-g --grammar", dict(required=True)),
    "machine": ("-m --machine", dict(required=True)),
    "circuit": ("--circuit", {}),
    "cnf": ("--cnf", {}),
    "graph": ("--graph", {}),
    "matrix": ("-m --matrix", {}),
    "n": ("-n", dict(type=int, default=1)),
    "word": ("-w --word", dict(default="")),
    "k": ("-k", dict(type=int, default=1)),
    "ambiguity": ("--ambiguity", dict(type=_bound_arg, default=Bound(const=1))),
    "tree": ("--tree", dict(action="store_true", default=False, help="sample a derivation tree")),
    "method": ("--method", dict(choices=("bruteforce", "coefficient", "fraction"),
                                default="bruteforce")),
    "local_radius": ("--local-radius", dict(type=int, default=0, help="polish with local search")),
    "seed": ("--seed", dict(type=int, default=0)),
    "delta": ("--delta", dict(type=Fraction, default=Fraction(1, 4))),
    "epsilon": ("--epsilon", dict(type=Fraction, default=Fraction(1, 4))),
    "trials": ("--trials", dict(type=_positive_int, default=None)),
    "ceiling": ("--ceiling", dict(type=_positive_int, default=512)),
    "format": ("--format", dict(choices=("text", "json-lines"), default="text")),
    "oracle": ("--oracle", dict(action="store_true", default=False)),
    "repeat": ("--repeat", dict(type=_positive_int, default=1)),
}


_OUTPUT_FLAGS = ("format", "oracle", "repeat")


def _family_flags(fam: Family) -> set:
    """Dests of a family's flags: its spec, its ops' flags, the output flags."""
    reads = [op.flags for op in fam.ops.values()]
    return set(fam.spec).union(*reads, _OUTPUT_FLAGS)


def _build_parser(accepted: dict) -> _Parser:
    """The parser for the families' ``accepted`` flag dests."""
    parser = _Parser(prog="countgen")
    sub = parser.add_subparsers(dest="family", required=True)
    for name, fam in _FAMILIES.items():
        p = sub.add_parser(name)
        p.add_argument("op", choices=[op for op in fam.ops if " " not in op])
        for dest, (names, options) in _FLAGS.items():
            if dest in accepted[name]:
                # absent flags stay unset, so dispatch sees which were given
                p.add_argument(*names.split(), **{**options, "default": argparse.SUPPRESS})
    return parser


@functools.cache
def _parser() -> tuple:
    """The parser and each family's flag dests, built once per process at
    the first dispatch.  The parser holds no per-call state: every parse
    makes a new namespace, and dispatch fills the flags not given on it."""
    accepted = {name: _family_flags(fam) for name, fam in _FAMILIES.items()}
    return _build_parser(accepted), accepted


def dispatch(argv) -> int:
    parser, accepted = _parser()
    try:
        args = parser.parse_args(argv)
        fam = _FAMILIES[args.family]
        given = set(vars(args)) - {"family", "op"}
        key = f"{args.op} --tree"
        if "tree" not in given or key not in fam.ops:
            key = args.op
        op = fam.ops[key]
        read = set(fam.spec).union(op.flags, _OUTPUT_FLAGS)
        unread = [_FLAGS[d][0].split()[-1] for d in _FLAGS if d in given - read]
        if unread:
            parser.error(f"{args.family} {key} does not read {', '.join(unread)}")
        for dest in accepted[args.family] - given:
            setattr(args, dest, _FLAGS[dest][1].get("default"))
        if args.oracle and op.oracle is None:
            parser.error(f"no oracle for {args.family} {key}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    failed = False
    lines = []
    try:
        spec = fam.load(args)
        subject = op.prepare(spec, args)
        for index in range(args.repeat):
            seed = _derive_seed(args.seed, index)
            src = CoinSource(seed)
            value = op.call(subject, args, src)
            trials = int("seed" in op.flags)
            if isinstance(value, SampleReport):
                value, trials = value.value, value.trials
            if value is FAIL:
                failed = True
            elif args.oracle:
                op.oracle(fam, spec, args, value)
            shown, bits = _render(value), src.bits_consumed
            if args.format == "json-lines":
                record = {"value": shown, "trials": trials, "bits": bits, "seed": seed}
                lines.append(json.dumps(record))
            elif trials and value is not FAIL:
                lines.append(f"{shown}  [trials={trials} bits={bits} seed={seed}]")
            else:
                lines.append(shown)
            if args.oracle and index == 0 and not failed:
                lines.append("oracle ok")
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 1
    except (FormatError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # guards, empty slices: report and fail cleanly
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 2 if failed else 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
