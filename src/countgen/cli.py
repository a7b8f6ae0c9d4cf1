"""Command-line frontend: count, sample, rank, unrank, estimate, derandomize.

Every command loads a line-format specification file, runs one library
operation with a seeded coin source, and prints the result together with
the trials and bits consumed.  Identical seeds and inputs give
byte-identical output.  Exit codes: 0 on success, 1 on parse or
validation errors, 2 when a randomized routine returns the failure
outcome.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from itertools import product as iproduct

from . import cfg, dfa, nfa, pda, pseudobool, traces
from .coins import FAIL, CoinSource, retries_for
from .describe import Bound, estimate_census, exact_count, sample_report
from .exceptions import FormatError
from .pseudobool import PbProblem


def _confidence(delta) -> int:
    # attempts that push a per-call failure of 1/2 strictly under delta
    return retries_for(delta) + 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"error: {message}\n")


class OracleMismatch(Exception):
    pass


def _fraction_arg(text: str) -> Fraction:
    return Fraction(text)


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


def _render(value) -> str:
    if value is FAIL:
        return "FAIL (⊥)"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, tuple):
        return "".join(str(v) for v in value)
    return str(value)


def _words(alphabet, n):
    return ("".join(t) for t in iproduct(alphabet, repeat=n))


# ---------------------------------------------------------------------------
# Command handlers.  Each returns (value, trials) and may raise.


def _cmd_dfa(args, src):
    automaton = dfa.load_dfa(_read(args.automaton))
    if args.op == "count":
        table = dfa.dfa_census(automaton, args.n)
        value = table.count(automaton.start, args.n)
        if args.oracle:
            brute = sum(automaton.accepts(w) for w in _words(automaton.alphabet, args.n))
            if brute != value:
                raise OracleMismatch(f"census {value} != brute {brute}")
        return value, 0
    if args.op == "sample":
        word = dfa.dfa_sample(automaton, args.n, src, confidence=_confidence(args.delta))
        if args.oracle and word is not FAIL:
            if not (automaton.accepts(word) and len(word) == args.n):
                raise OracleMismatch(f"sampled non-member {word!r}")
        return word, 1
    if args.op == "rank":
        value = dfa.dfa_rank(automaton, args.word)
        if args.oracle:
            brute = 0
            for length in range(len(args.word)):
                brute += sum(automaton.accepts(w) for w in _words(automaton.alphabet, length))
            brute += sum(
                automaton.accepts(w)
                for w in _words(automaton.alphabet, len(args.word))
                if w <= args.word
            )
            if brute != value:
                raise OracleMismatch(f"rank {value} != brute {brute}")
        return value, 0
    if args.op == "unrank":
        word = dfa.dfa_unrank(automaton, args.k)
        if args.oracle and dfa.dfa_rank(automaton, word) != args.k:
            raise OracleMismatch("unrank/rank mismatch")
        return word, 0
    raise FormatError(f"dfa does not support {args.op!r}")


def _cmd_nfa(args, src):
    automaton = nfa.load_nfa(_read(args.automaton))
    if args.op == "count":
        value = nfa.nfa_slice_census(automaton, args.n)
        if args.oracle:
            brute = sum(
                nfa.path_count(automaton, w) >= 1
                for w in _words(automaton.alphabet, args.n)
            )
            if brute != value:
                raise OracleMismatch(f"census {value} != brute {brute}")
        return value, 0
    if args.op == "rank":
        value = nfa.nfa_rank_slice(automaton, len(args.word), args.word)
        if args.oracle:
            brute = sum(
                1
                for w in _words(automaton.alphabet, len(args.word))
                if w <= args.word and nfa.path_count(automaton, w) >= 1
            )
            if brute != value:
                raise OracleMismatch(f"rank {value} != brute {brute}")
        return value, 0
    if args.op == "unrank":
        return nfa.nfa_unrank_slice(automaton, args.n, args.k), 0
    if args.op == "sample":
        word = nfa.nfa_sample_slice(automaton, args.n, src, delta=args.delta)
        if args.oracle and word is not FAIL:
            if nfa.path_count(automaton, word) < 1:
                raise OracleMismatch(f"sampled non-member {word!r}")
        return word, 1
    raise FormatError(f"nfa does not support {args.op!r}")


def _load_cnf_grammar(path):
    return cfg.to_cnf(cfg.load_grammar(_read(path)))


def _cmd_cfg(args, src):
    grammar = _load_cnf_grammar(args.grammar)
    if args.op == "count":
        value = cfg.tree_census(grammar, grammar.start, args.n)
        if args.oracle:
            brute = len(cfg.enumerate_trees(grammar, grammar.start, args.n))
            if brute != value:
                raise OracleMismatch(f"census {value} != brute {brute}")
        return value, 0
    if args.op == "sample" and args.tree:
        tree = cfg.random_tree(grammar, args.n, src)
        if tree is FAIL:
            return FAIL, 1
        return cfg.format_tree(tree), 1
    description = cfg.cfl_description(grammar, args.ambiguity)
    if args.op == "sample":
        report = sample_report(description, args.n, src, trials=args.trials)
        if args.oracle and report.value is not FAIL:
            if cfg.earley_count(grammar, report.value) < 1:
                raise OracleMismatch(f"sampled non-member {report.value!r}")
        return report.value, report.trials
    if args.op == "estimate":
        value = estimate_census(description, args.n, args.epsilon, src)
        if args.oracle:
            brute = sum(
                cfg.earley_count(grammar, w) > 0
                for w in _words(grammar.terminals, args.n)
            )
            if value is not FAIL and not (
                (1 - args.epsilon) * brute <= value <= (1 + args.epsilon) * brute
            ):
                raise OracleMismatch(f"estimate {value} outside brute {brute}")
        return value, 1
    if args.op == "exact":
        value = exact_count(description, args.n, src, ceiling=args.ceiling)
        if args.oracle and value is not FAIL:
            brute = sum(
                cfg.earley_count(grammar, w) > 0
                for w in _words(grammar.terminals, args.n)
            )
            if brute != value:
                raise OracleMismatch(f"count {value} != brute {brute}")
        return value, 1
    raise FormatError(f"cfg does not support {args.op!r}")


def _cmd_pda(args, src):
    machine = pda.load_pda(_read(args.machine))
    if args.op == "grammar":
        sliced = pda.build_slice_grammar(machine, args.n)
        return cfg.dump_grammar(sliced.grammar).rstrip("\n"), 0
    description = pda.pda_slice_description(machine, args.n, args.ambiguity)
    if args.op == "sample":
        report = sample_report(description, args.n, src, trials=args.trials)
        if args.oracle and report.value is not FAIL:
            if not pda.pda_accepts(machine, report.value):
                raise OracleMismatch(f"sampled non-member {report.value!r}")
        return report.value, report.trials
    if args.op == "estimate":
        value = estimate_census(description, args.n, args.epsilon, src)
        return value, 1
    if args.op == "exact":
        value = exact_count(description, args.n, src, ceiling=args.ceiling)
        if args.oracle and value is not FAIL:
            brute = sum(
                pda.pda_accepts(machine, w)
                for w in _words(machine.input_alphabet, args.n)
            )
            if brute != value:
                raise OracleMismatch(f"count {value} != brute {brute}")
        return value, 1
    raise FormatError(f"pda does not support {args.op!r}")


def _cmd_trace(args, src):
    text = _read(args.automaton)
    automaton = dfa.load_dfa(text)
    alphabet = traces.load_indep(text, automaton.alphabet)
    if args.op == "count":
        value = traces.count_representatives(automaton, args.word, alphabet)
        if args.oracle:
            brute = sum(
                automaton.accepts(v)
                for v in traces.swap_closure(args.word, alphabet)
            )
            if brute != value:
                raise OracleMismatch(f"count {value} != brute {brute}")
        return value, 0
    description = traces.trace_description(automaton, alphabet, args.ambiguity)
    if args.op == "sample":
        report = sample_report(description, args.n, src, trials=args.trials)
        return report.value, report.trials
    if args.op == "estimate":
        value = estimate_census(description, args.n, args.epsilon, src)
        return value, 1
    raise FormatError(f"trace does not support {args.op!r}")


def _load_problem(args) -> PbProblem:
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


def _cmd_pb(args, src):
    if args.op == "perm":
        matrix = pseudobool.load_matrix(_read(args.matrix))
        value = pseudobool.permanent(matrix, args.method, ceiling=args.ceiling)
        if args.oracle:
            brute = pseudobool.permanent(matrix, "bruteforce", ceiling=args.ceiling)
            if brute != value:
                raise OracleMismatch(f"permanent {value} != brute {brute}")
        return value, 0
    problem = _load_problem(args)
    if args.op == "derand":
        out = pseudobool.derandomize(problem)
        if args.local_radius:
            out = pseudobool.local_search(problem, args.local_radius, out)
        if args.oracle:
            expected = pseudobool.cond_expectation(problem, [])
            if problem.value(out) < expected:
                raise OracleMismatch("derandomized value below the expectation")
        return out, 0
    if args.op == "search":
        out = pseudobool.random_search(problem, args.epsilon, args.delta, src)
        return out, 1
    raise FormatError(f"pb does not support {args.op!r}")


_HANDLERS = {
    "dfa": _cmd_dfa,
    "nfa": _cmd_nfa,
    "cfg": _cmd_cfg,
    "pda": _cmd_pda,
    "trace": _cmd_trace,
    "pb": _cmd_pb,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="countgen")
    sub = parser.add_subparsers(dest="family", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--delta", type=_fraction_arg, default=Fraction(1, 4))
        p.add_argument("--epsilon", type=_fraction_arg, default=Fraction(1, 4))
        p.add_argument("--trials", type=_positive_int, default=None)
        p.add_argument("--ceiling", type=int, default=512)
        p.add_argument("--format", choices=("text", "json-lines"), default="text")
        p.add_argument("--oracle", action="store_true")
        p.add_argument("--repeat", type=_positive_int, default=1)

    p = sub.add_parser("dfa")
    p.add_argument("op", choices=("count", "sample", "rank", "unrank"))
    p.add_argument("-a", "--automaton", required=True)
    p.add_argument("-n", type=int, default=1)
    p.add_argument("-w", "--word", default="")
    p.add_argument("-k", type=int, default=1)
    common(p)

    p = sub.add_parser("nfa")
    p.add_argument("op", choices=("count", "sample", "rank", "unrank"))
    p.add_argument("-a", "--automaton", required=True)
    p.add_argument("-n", type=int, default=1)
    p.add_argument("-w", "--word", default="")
    p.add_argument("-k", type=int, default=1)
    common(p)

    p = sub.add_parser("cfg")
    p.add_argument("op", choices=("count", "sample", "estimate", "exact"))
    p.add_argument("-g", "--grammar", required=True)
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--ambiguity", type=_bound_arg, default=Bound(const=1))
    p.add_argument("--tree", action="store_true", help="sample a derivation tree")
    common(p)

    p = sub.add_parser("pda")
    p.add_argument("op", choices=("grammar", "sample", "estimate", "exact"))
    p.add_argument("-m", "--machine", required=True)
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--ambiguity", type=_bound_arg, default=Bound(const=1))
    common(p)

    p = sub.add_parser("trace")
    p.add_argument("op", choices=("count", "sample", "estimate"))
    p.add_argument("-a", "--automaton", required=True)
    p.add_argument("-n", type=int, default=1)
    p.add_argument("-w", "--word", default="")
    p.add_argument("--ambiguity", type=_bound_arg, default=Bound(const=1))
    common(p)

    p = sub.add_parser("pb")
    p.add_argument("op", choices=("derand", "search", "perm"))
    p.add_argument("--circuit")
    p.add_argument("--cnf")
    p.add_argument("--graph")
    p.add_argument("-m", "--matrix")
    p.add_argument("--method", choices=("bruteforce", "coefficient", "fraction"), default="bruteforce")
    p.add_argument("--local-radius", type=int, default=0, help="polish with local search")
    common(p)

    return parser


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    handler = _HANDLERS[args.family]
    failed = False
    lines = []
    try:
        for index in range(args.repeat):
            seed = _derive_seed(args.seed, index)
            src = CoinSource(seed)
            value, trials = handler(args, src)
            if value is FAIL:
                failed = True
            record = {
                "value": _render(value),
                "trials": trials,
                "bits": src.bits_consumed,
                "seed": seed,
            }
            if args.format == "json-lines":
                lines.append(json.dumps(record))
            elif value is FAIL:
                lines.append("FAIL (⊥)")
            else:
                lines.append(
                    f"{record['value']}"
                    + (
                        f"  [trials={trials} bits={record['bits']} seed={seed}]"
                        if trials
                        else ""
                    )
                )
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
