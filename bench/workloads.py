"""The benchmark's workloads: input generation, set-up, requests and checks.

A workload turns a seed into an endless schedule of rounds.  Each round
holds every request kind exactly once, in a seeded order, so any whole
number of rounds has the same mixture.  ``params`` draws a request's
inputs with the benchmark's own generator; the program sees only those
inputs.  ``setup`` builds the long-lived automata, grammars and
descriptions from a freshly imported ``countgen`` namespace.  ``call``
is the timed request; ``check`` judges its output against the
independent references in ``oracles`` and returns ``(value, bits,
fail, error)`` for the digest and the ratios.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import oracles

MODULES = ("coins", "describe", "dfa", "nfa", "cfg", "pda", "traces", "pseudobool", "cli")


def import_countgen(src_dir: Path) -> SimpleNamespace:
    """Import countgen afresh from ``src_dir`` and return its modules."""
    for name in [m for m in sys.modules if m == "countgen" or m.startswith("countgen.")]:
        del sys.modules[name]
    if str(src_dir) not in sys.path:
        sys.path.insert(0, str(src_dir))
    package = importlib.import_module("countgen")
    if Path(package.__file__).resolve().parent != (src_dir / "countgen").resolve():
        raise ImportError(f"countgen imported from {package.__file__}, not {src_dir}")
    return SimpleNamespace(
        package=package, **{m: importlib.import_module(f"countgen.{m}") for m in MODULES}
    )


def render(value, fail) -> str:
    if value is fail:
        return "FAIL"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(64)


class Workload:
    name = ""
    kinds: tuple = ()
    # a whole percentile that leaves at least ten requests beyond it in a
    # run of the length fixed in BENCHMARK.json on a machine a fifth
    # slower than the one it was chosen on; set per workload so that it
    # falls inside the band of the slowest request kind, not at its edge
    tail_percentile = 90

    def prepare(self, seed: int, work_dir: Path) -> None:
        """Write input files before anything is timed (default: none)."""

    def params(self, kind: str, rng: random.Random) -> dict:
        return getattr(self, f"params_{kind}")(rng)

    def call(self, ctx, kind: str, p: dict):
        return getattr(self, f"call_{kind}")(ctx, p)

    def check(self, ctx, kind: str, p: dict, raw):
        return getattr(self, f"check_{kind}")(ctx, p, raw)


# ---------------------------------------------------------------------------
# regular: DFA and NFA slices through the public API.


def _union_nfa(nfa_mod, first, second):
    """Disjoint union of two NFAs; a word has one path per accepting part."""
    dim = first.dim + second.dim
    matrices = []
    for m1, m2 in zip(first.matrices, second.matrices):
        rows = [tuple(row) + (0,) * second.dim for row in m1]
        rows += [(0,) * first.dim + tuple(row) for row in m2]
        matrices.append(tuple(rows))
    assert all(len(m) == dim for m in matrices)
    return nfa_mod.Nfa(
        first.alphabet,
        tuple(matrices),
        first.start + second.start,
        first.accept + second.accept,
        2,
    )


class Regular(Workload):
    name = "regular"
    kinds = (
        "dfa_sample",
        "dfa_census",
        "dfa_rank",
        "dfa_unrank",
        "nfa_sample_amb2",
        "nfa_sample_dfa",
        "nfa_census",
    )
    tail_percentile = 93
    SAMPLE_N = 1000
    ROUND_TRIP_N = (990, 1010)
    AMB2_N = 8
    DFA_NFA_N = 16
    CENSUS_N = (60, 68)

    def __init__(self):
        self.abb = oracles.AbbRanks(self.ROUND_TRIP_N[1])
        self.union_counts = oracles.abb_or_aab_counts(self.CENSUS_N[1])

    def setup(self, cg):
        abb = cg.dfa.dfa_from_regex(oracles.ABB_PATTERN)
        aab = cg.dfa.dfa_from_regex(oracles.AAB_PATTERN)
        abb_nfa = cg.nfa.nfa_from_dfa(abb)
        return SimpleNamespace(
            cg=cg,
            abb=abb,
            abb_nfa=abb_nfa,
            union=_union_nfa(cg.nfa, abb_nfa, cg.nfa.nfa_from_dfa(aab)),
        )

    # dfa_sample: one word of length 1000, about 500k coin bits
    def params_dfa_sample(self, rng):
        return {"n": self.SAMPLE_N, "seed": _seed(rng)}

    def call_dfa_sample(self, ctx, p):
        src = ctx.cg.coins.CoinSource(p["seed"])
        return ctx.cg.dfa.dfa_sample(ctx.abb, p["n"], src), src.bits_consumed

    def check_dfa_sample(self, ctx, p, raw):
        return _word_check(ctx, raw, p["n"], oracles.contains_abb)

    def params_dfa_census(self, rng):
        return {"n": rng.randint(*self.ROUND_TRIP_N)}

    def call_dfa_census(self, ctx, p):
        table = ctx.cg.dfa.dfa_census(ctx.abb, p["n"])
        return table.count(ctx.abb.start, p["n"]), 0

    def check_dfa_census(self, ctx, p, raw):
        return _equal_check(raw, self.abb.census(p["n"]))

    def params_dfa_rank(self, rng):
        n = rng.randint(*self.ROUND_TRIP_N)
        body = "".join(rng.choice("ab") for _ in range(n - 3))
        cut = rng.randint(0, n - 3)
        return {"word": body[:cut] + "abb" + body[cut:]}

    def call_dfa_rank(self, ctx, p):
        return ctx.cg.dfa.dfa_rank(ctx.abb, p["word"]), 0

    def check_dfa_rank(self, ctx, p, raw):
        return _equal_check(raw, self.abb.rank(p["word"]))

    def params_dfa_unrank(self, rng):
        n = rng.randint(*self.ROUND_TRIP_N)
        return {"n": n, "k": self.abb.shorter(n) + rng.randint(1, self.abb.census(n))}

    def call_dfa_unrank(self, ctx, p):
        return ctx.cg.dfa.dfa_unrank(ctx.abb, p["k"]), 0

    def check_dfa_unrank(self, ctx, p, raw):
        value, bits, fail, error = _word_check(ctx, raw, p["n"], oracles.contains_abb)
        if fail:
            error = "unranking returned FAIL"
        elif error is None and self.abb.rank(value) != p["k"]:
            error = f"word of rank {self.abb.rank(value)}, asked for {p['k']}"
        return value, bits, False, error

    def params_nfa_sample_amb2(self, rng):
        return {"n": self.AMB2_N, "seed": _seed(rng)}

    def call_nfa_sample_amb2(self, ctx, p):
        src = ctx.cg.coins.CoinSource(p["seed"])
        return ctx.cg.nfa.nfa_sample_slice(ctx.union, p["n"], src), src.bits_consumed

    def check_nfa_sample_amb2(self, ctx, p, raw):
        return _word_check(ctx, raw, p["n"], oracles.in_abb_or_aab)

    def params_nfa_sample_dfa(self, rng):
        return {"n": self.DFA_NFA_N, "seed": _seed(rng)}

    def call_nfa_sample_dfa(self, ctx, p):
        src = ctx.cg.coins.CoinSource(p["seed"])
        return ctx.cg.nfa.nfa_sample_slice(ctx.abb_nfa, p["n"], src), src.bits_consumed

    def check_nfa_sample_dfa(self, ctx, p, raw):
        return _word_check(ctx, raw, p["n"], oracles.contains_abb)

    def params_nfa_census(self, rng):
        return {"n": rng.randint(*self.CENSUS_N)}

    def call_nfa_census(self, ctx, p):
        return ctx.cg.nfa.nfa_slice_census(ctx.union, p["n"]), 0

    def check_nfa_census(self, ctx, p, raw):
        return _equal_check(raw, self.union_counts[p["n"]])


def _word_check(ctx, raw, n, member):
    word, bits = raw
    if word is ctx.cg.coins.FAIL:
        return "FAIL", bits, True, None
    if not isinstance(word, str) or len(word) != n or not member(word):
        return repr(word), bits, False, f"{word!r:.80} is not a member of length {n}"
    return word, bits, False, None


def _equal_check(raw, expected):
    value, bits = raw
    error = None if value == expected else f"got {value}, expected {expected}"
    return str(value), bits, False, error


# ---------------------------------------------------------------------------
# cfl: long-lived palindrome-pair carriers through describe.


class Cfl(Workload):
    name = "cfl"
    kinds = ("estimate", "sample_batch", "exact")
    tail_percentile = 85
    ESTIMATE_N = 6
    EPSILON = Fraction(1, 2)
    BATCH_N = 32
    BATCH_WORDS = 50
    EXACT_N = 2

    def __init__(self):
        self.exact_count = oracles.palindrome_pair_count(self.EXACT_N)

    def setup(self, cg):
        # concatenations of two even palindromes (tests/test_cfg.py)
        grammar = cg.cfg.Grammar(
            ("S", "A", "B"),
            ("a", "b"),
            "S",
            (
                ("S", ("A", "B")),
                ("A", ("a", "A", "a")),
                ("A", ("b", "A", "b")),
                ("A", ()),
                ("B", ("a", "B", "a")),
                ("B", ("b", "B", "b")),
                ("B", ()),
            ),
        )
        cnf = cg.cfg.to_cnf(grammar, drop_epsilon=True)
        bound = cg.describe.Bound(coeff=1, power=1, const=1)
        desc = cg.cfg.cfl_description(cnf, bound)
        censuses = {n: desc.census(n) for n in (self.EXACT_N, self.ESTIMATE_N, self.BATCH_N)}
        return SimpleNamespace(cg=cg, desc=desc, bound=bound, censuses=censuses)

    def params_estimate(self, rng):
        return {"n": self.ESTIMATE_N, "seed": _seed(rng)}

    def call_estimate(self, ctx, p):
        src = ctx.cg.coins.CoinSource(p["seed"])
        value = ctx.cg.describe.estimate_census(ctx.desc, p["n"], self.EPSILON, src)
        return value, src.bits_consumed

    def check_estimate(self, ctx, p, raw):
        value, bits = raw
        fail = ctx.cg.coins.FAIL
        if value is fail:
            return "FAIL", bits, True, None
        # each carrier draw weighs 1/multiplicity, so the estimate lies
        # between census / bound and census
        carrier = ctx.censuses[p["n"]]
        error = None
        if not Fraction(carrier, ctx.bound(p["n"])) <= value <= carrier:
            error = f"estimate {value} outside [{carrier}/{ctx.bound(p['n'])}, {carrier}]"
        return render(value, fail), bits, False, error

    def params_sample_batch(self, rng):
        return {"n": self.BATCH_N, "words": self.BATCH_WORDS, "seed": _seed(rng)}

    def call_sample_batch(self, ctx, p):
        src = ctx.cg.coins.CoinSource(p["seed"])
        reports = [
            ctx.cg.describe.sample_report(ctx.desc, p["n"], src) for _ in range(p["words"])
        ]
        return tuple(r.value for r in reports), src.bits_consumed

    def check_sample_batch(self, ctx, p, raw):
        words, bits = raw
        fail = ctx.cg.coins.FAIL
        bad = [
            w
            for w in words
            if w is not fail and not (len(w) == p["n"] and oracles.is_palindrome_pair(w))
        ]
        error = f"non-members {bad[:3]!r}" if bad or len(words) != p["words"] else None
        value = " ".join(render(w, fail) for w in words)
        return value, bits, any(w is fail for w in words), error

    def params_exact(self, rng):
        return {"n": self.EXACT_N, "seed": _seed(rng)}

    def call_exact(self, ctx, p):
        src = ctx.cg.coins.CoinSource(p["seed"])
        return ctx.cg.describe.exact_count(ctx.desc, p["n"], src), src.bits_consumed

    def check_exact(self, ctx, p, raw):
        value, bits = raw
        if value is ctx.cg.coins.FAIL:
            return "FAIL", bits, True, None
        return _equal_check(raw, self.exact_count)


# ---------------------------------------------------------------------------
# cli: countgen.cli.dispatch in-process on spec files written before timing.

DYCK_PDA = """\
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

# minimal DFA of (a*c)*(ab)*c(a*c)* with a-b and b-c independent
_FLAGSHIP_TRANS = (
    (1, 2, 3), (4, 5, 0), (2, 2, 2), (6, 2, 3), (4, 2, 0), (7, 2, 8),
    (9, 5, 3), (2, 5, 2), (10, 2, 8), (9, 2, 3), (10, 2, 8),
)
FLAGSHIP_DFA = "\n".join(
    ["states 11", "alphabet a b c", "start 0", "finals 3 8"]
    + [
        f"trans {q} {sym} {target}"
        for q, row in enumerate(_FLAGSHIP_TRANS)
        for sym, target in zip("abc", row)
    ]
    + ["indep a b", "indep b c", ""]
)


class Cli(Workload):
    name = "cli"
    kinds = (
        "pda_estimate",
        "pda_sample",
        "trace_estimate",
        "trace_sample",
        "pb_derand",
        "pb_search",
        "pb_perm",
    )
    tail_percentile = 92
    FILES = 16  # formulas and matrices per run
    VARIABLES = 40
    CLAUSES = 120
    SIDE = 7
    ROW_ONES = 4

    def prepare(self, seed, work_dir):
        rng = random.Random(f"countgen-bench:{self.name}:{seed}:files")
        self.work_dir = work_dir
        self.formulas = []
        self.matrices = []
        for i in range(self.FILES):
            clauses = [
                tuple(v if rng.random() < 0.5 else -v
                      for v in rng.sample(range(1, self.VARIABLES + 1), 3))
                for _ in range(self.CLAUSES)
            ]
            self.formulas.append(clauses)
            (work_dir / f"formula{i}.cnf").write_text(
                f"{self.VARIABLES} {self.CLAUSES}\n"
                + "".join(" ".join(map(str, c)) + "\n" for c in clauses)
            )
            # a permutation plus three more ones per row: nonzero permanent,
            # and the same expansion size for every matrix
            matrix = [[0] * self.SIDE for _ in range(self.SIDE)]
            for row, col in enumerate(rng.sample(range(self.SIDE), self.SIDE)):
                others = [c for c in range(self.SIDE) if c != col]
                for c in [col] + rng.sample(others, self.ROW_ONES - 1):
                    matrix[row][c] = 1
            self.matrices.append((matrix, oracles.brute_permanent(matrix)))
            (work_dir / f"matrix{i}.mat").write_text(
                f"{self.SIDE}\n" + "".join(" ".join(map(str, r)) + "\n" for r in matrix)
            )
        (work_dir / "dyck.pda").write_text(DYCK_PDA)
        (work_dir / "flagship.dfa").write_text(FLAGSHIP_DFA)

    def setup(self, cg):
        return SimpleNamespace(cg=cg)

    def argv(self, kind, p):
        w = self.work_dir
        family, op = kind.split("_")
        if family == "pda":
            head = ["pda", op, "-m", str(w / "dyck.pda"), "--ambiguity", "1,1,1"]
        elif family == "trace":
            head = ["trace", op, "-a", str(w / "flagship.dfa"), "--ambiguity", "1,1,1"]
        elif op == "perm":
            head = ["pb", "perm", "-m", str(w / f"matrix{p['file']}.mat"), "--method", "fraction"]
        else:
            head = ["pb", op, "--cnf", str(w / f"formula{p['file']}.cnf")]
        tail = [f"--{key}={p[key]}" for key in ("epsilon", "seed") if key in p]
        if "n" in p:
            tail += ["-n", str(p["n"])]
        return head + tail + ["--format", "json-lines"]

    def params(self, kind, rng):
        n = {"pda_estimate": 6, "pda_sample": 8, "trace_estimate": 8, "trace_sample": 12}
        p = {}
        if kind in n:
            p["n"] = n[kind]
        else:
            p["file"] = rng.randrange(self.FILES)
        if kind.endswith("estimate"):
            p["epsilon"] = "1/2"
        if kind not in ("pb_derand", "pb_perm"):
            p["seed"] = _seed(rng)
        return p

    def call(self, ctx, kind, p):
        argv = self.argv(kind, p)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ctx.cg.cli.dispatch(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, ctx, kind, p, raw):
        code, out, err = raw
        if code not in (0, 2):
            return f"exit {code}", 0, False, f"exit code {code}: {err.strip()[:200]}"
        try:
            (line,) = out.splitlines()
            record = json.loads(line)
            value, bits = record["value"], int(record["bits"])
        except (ValueError, KeyError, TypeError) as exc:
            return "unparsed", 0, False, f"output does not parse ({exc}): {out[:200]!r}"
        if code == 2 or value == "FAIL (⊥)":
            error = None if (code == 2 and value == "FAIL (⊥)") else "FAIL without exit 2"
            return value, bits, True, error
        try:
            ok = self._valid(kind, p, value)
        except (ValueError, ZeroDivisionError) as exc:
            ok = False
            value = f"{value} ({exc})"
        return value, bits, False, None if ok else f"wrong {kind} output {value!r}"

    def _valid(self, kind, p, value):
        if kind.endswith("estimate"):
            return oracles.parse_fraction(value) > 0
        if kind == "pda_sample":
            return len(value) == p["n"] and oracles.is_dyck(value)
        if kind == "trace_sample":
            return len(value) == p["n"] and oracles.is_flagship_trace(value)
        if kind == "pb_perm":
            return int(value) == self.matrices[p["file"]][1]
        if len(value) != self.VARIABLES or not oracles.over(value, "01"):
            return False
        if kind == "pb_derand":
            clauses = self.formulas[p["file"]]
            return oracles.sat_count(clauses, value) >= oracles.expected_sat(clauses)
        return True  # pb_search: any assignment is a valid answer


WORKLOADS = {w.name: w for w in (Regular, Cfl, Cli)}
