"""The benchmark's four workloads.

Each workload is a closed loop with one client: ops run one after another in
this process, each started only after the previous one returned. A workload is
an endless sequence of rounds. Every round holds the same fixed mix of op
kinds and sizes; the seed chooses the order, the operands and the op seeds.
The timed window always ends on a round boundary, so every run measures the
same mix whatever its length.

An op times only its calls into the program (through a :class:`Clock`); input
generation and the checks against :mod:`reference` run outside the clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import numpy as np

import ins
import ins.cli
import ins.convexity
import ins.core
import ins.families
import ins.laws

import reference as ref


class Clock:
    """Accumulates the time one op spends inside program calls."""

    __slots__ = ("ns",)

    def __init__(self) -> None:
        self.ns = 0

    def __call__(self, fn, *args, **kwargs):
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ns += perf_counter_ns() - t0


@dataclass
class Outcome:
    ok: bool
    digest: str
    items: int = 0  # the workload's unit of work: trials, samples or rows
    latency: bool = True  # counts toward op_p50_ms / op_tail_ms
    note: str = ""  # why the check failed
    counters: dict = field(default_factory=dict)


@dataclass
class Op:
    kind: str
    run: Callable[[Clock], Outcome]


def digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        h.update(part if isinstance(part, (bytes, memoryview)) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def array_fingerprint(a: np.ndarray) -> bytes:
    """Per-column XOR and wrapping sum of the float64 bit patterns: a cheap
    digest of a large result that any single changed bit alters."""
    bits = np.ascontiguousarray(a).view(np.uint64)
    return np.bitwise_xor.reduce(bits, axis=0).tobytes() + bits.sum(axis=0, dtype=np.uint64).tobytes()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ins.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _untraced(label: str, fset):
    return fset


class Workload:
    name = ""
    #: Approximate length of one round at the seed commit on a 2-core Xeon;
    #: sizes the traced run, which must run a fixed number of rounds so that
    #: its counts repeat exactly.
    round_seconds = 1.0

    def __init__(self, seed: int, work_dir: Path, smoke: bool) -> None:
        self.seed = seed
        self.work = work_dir / self.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.oracle_hook = _untraced

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, WORKLOAD_IDS[self.name], stream])

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def provenance(self) -> dict:
        return {}


# --------------------------------------------------------------------------
# laws: run_law for every registered check, and `ins check --all`


class Laws(Workload):
    name = "laws"
    round_seconds = 5.5
    LARGE_UNIVERSE = 64
    SETS_UNIVERSES = (24, 96)

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed, work_dir, smoke)
        self.large = tuple(f"u{i}" for i in range(self.LARGE_UNIVERSE))
        rng = self.rng(0)
        sets = {}
        for name, n in zip("AB", self.SETS_UNIVERSES):
            labels = tuple(f"{name.lower()}{i}" for i in range(n))
            sets[name] = (labels, ref.dyadic_sets(rng, 1, n)[0])
        self.sets_path = self.work / "universes.ins"
        self.sets_path.write_text(ref.set_file_text(sets), encoding="utf-8")
        # trials per op: three counts on fresh universes (the CLI default
        # of 1000 down to a few trials, which expose per-call overhead),
        # one on the 64-element universe, and two for each CLI format
        # (fresh universes, then the universes of the set file)
        self.trials = (3, 2, 1, 2, 2, 1) if smoke else (1000, 30, 3, 40, 100, 40)

    def _law(self, check, trials, universe, seed) -> Op:
        def run(clock: Clock) -> Outcome:
            res = clock(ins.laws.run_law, check, trials=trials, seed=seed,
                        universes=[universe] if universe else None)
            ok = res.passed and res.law == check and res.trials == trials and res.seed == seed
            fields = (res.law, res.trials, res.seed, res.tol, res.passed,
                      res.counterexample, res.failed_trial)
            return Outcome(ok, digest(*fields), items=trials, note=res.counterexample or "")

        size = "fresh" if universe is None else f"n{len(universe)}"
        return Op(f"law/{check}/{trials}/{size}", run)

    def _cli(self, fmt, trials, sets, seed) -> Op:
        argv = ["check", "--all", "--trials", str(trials), "--seed", str(seed), "--format", fmt]
        if sets:
            argv += ["--sets", str(sets)]
        names = ins.laws.CLI_LAWS

        def run(clock: Clock) -> Outcome:
            code, out, err = clock(run_cli, argv)
            if fmt == "text":
                want = "".join(f"law {n}: pass ({trials} trials, seed {seed})\n" for n in names)
                want += f"{len(names)}/{len(names)} laws passed\n"
                ok = out == want
            else:
                doc = json.loads(out)
                ok = (doc["trials"] == trials and doc["seed"] == seed
                      and [r["law"] for r in doc["results"]] == list(names)
                      and all(r["passed"] for r in doc["results"]))
            return Outcome(ok and code == 0 and err == "", digest(code, out),
                           items=trials * len(names), note=err)

        return Op(f"cli-check/{fmt}/{trials}", run)

    def _ops(self, rng, trials) -> list[Op]:
        *fresh, large, cli_trials, cli_sets_trials = trials
        specs = []
        for check in ins.laws.ALL_CHECKS:
            specs += [("law", check, t, None) for t in fresh]
            specs.append(("law", check, large, self.large))
        for fmt in ("text", "json"):
            specs += [("cli", fmt, cli_trials, None), ("cli", fmt, cli_sets_trials, self.sets_path)]
        seeds = rng.integers(0, 2**31, size=len(specs))
        ops = []
        for i in rng.permutation(len(specs)):
            kind, a, t, extra = specs[i]
            seed = int(seeds[i])
            ops.append(self._law(a, t, extra, seed) if kind == "law" else self._cli(a, t, extra, seed))
        return ops

    def warmup(self):
        return self._ops(self.rng(1), (2, 1, 1, 1, 1, 1))

    def round(self, r):
        return self._ops(self.rng(r + 2), self.trials)


# --------------------------------------------------------------------------
# convexity: full scans of intersections, and planted early exits


class Convexity(Workload):
    name = "convexity"
    round_seconds = 0.85
    LAMBDA_GRID = 11
    TOL = 1e-9
    SEPARATION = 4.0
    # (check, dimension) -> ops per round; scans run in the boxes of the
    # acceptance suite, planted bimodal(4) ops in [-3, 3]^d
    MIX = {("convex", 1): 6, ("convex", 2): 4, ("strong", 1): 4, ("strong", 2): 2,
           ("planted", 1): 8, ("planted", 2): 4}
    BOX = {"convex": 2.0, "strong": 1.5, "planted": 3.0}
    # random_convex draws its kind first; replaying that draw names each
    # family's oracle in the traced run
    CONVEX_KINDS = ("triangular", "trapezoid", "gaussian")

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed, work_dir, smoke)
        self.scan_trials = 5 if smoke else 100
        self.planted_trials = 1000

    def _kind(self, check, family_seed) -> str:
        if check == "strong":
            return "gaussian"
        first = np.random.Generator(np.random.PCG64(family_seed)).integers(0, 3)
        return self.CONVEX_KINDS[int(first)]

    def _scan(self, check, dim, seeds, kinds, trials):
        fam, conv, hook = ins.families, ins.convexity, self.oracle_hook
        half = self.BOX[check]
        box = conv.Box(((-half, half),) * dim)
        if check == "planted":
            target = hook("bimodal", fam.bimodal(self.SEPARATION, dim))
            return conv.check_convex(target, box, trials=trials, lambda_grid=self.LAMBDA_GRID,
                                     seed=seeds[0], tol=self.TOL)
        make = fam.random_convex if check == "convex" else fam.random_strongly_convex
        a = hook(kinds[0], make(np.random.Generator(np.random.PCG64(seeds[1])), dim))
        b = hook(kinds[1], make(np.random.Generator(np.random.PCG64(seeds[2])), dim))
        target = hook("intersect", conv.intersect_functional(a, b))
        checker = conv.check_convex if check == "convex" else conv.check_strongly_convex
        return checker(target, box, trials=trials, lambda_grid=self.LAMBDA_GRID,
                       seed=seeds[0], tol=self.TOL)

    def _op(self, check, dim, seeds, trials) -> Op:
        full = trials * self.LAMBDA_GRID
        kinds = [self._kind(check, s) for s in seeds[1:]]

        def run(clock: Clock) -> Outcome:
            report = clock(self._scan, check, dim, seeds, kinds, trials)
            samples = report.samples_checked
            if check != "planted":
                ok = (report.verdict == ins.convexity.NO_VIOLATION and samples == full
                      and report.witness is None)
                return Outcome(ok, digest(report), items=samples, note=repr(report.witness))
            if report.verdict == ins.convexity.NO_VIOLATION:
                ok = samples == full
                counters = {"planted_misses": 1}
            else:
                ok = (report.verdict == ins.convexity.VIOLATED and samples <= full
                      and ref.bimodal_witness_ok(report.witness, self.SEPARATION, self.TOL))
                counters = {"violation_ns": clock.ns, "samples_to_violation": samples}
            return Outcome(ok, digest(report), items=samples, latency=False,
                           note=repr(report.witness), counters=counters)

        return Op(f"{check}/{dim}d", run)

    def _ops(self, rng, scan_trials) -> list[Op]:
        specs = [key for key, count in self.MIX.items() for _ in range(count)]
        seeds = rng.integers(0, 2**31, size=(len(specs), 3))
        ops = []
        for i in rng.permutation(len(specs)):
            check, dim = specs[i]
            trials = self.planted_trials if check == "planted" else scan_trials
            ops.append(self._op(check, dim, [int(s) for s in seeds[i]], trials))
        return ops

    def warmup(self):
        return self._ops(self.rng(1), 3)

    def round(self, r):
        return self._ops(self.rng(r + 2), self.scan_trials)


# --------------------------------------------------------------------------
# eval: `ins eval` over generated set files


_PREC = {"intersect": 4, "union": 3, "difference": 2, "add": 1}
_INFIX = {"intersect": "&", "union": "|", "difference": "\\", "add": "+"}
_CALL = {"truth_favorite": "tf", "false_favorite": "ff"}


def _prec(node) -> int:
    if node[0] in _PREC:
        return _PREC[node[0]]
    return 5 if node[0] == "complement" else 6


def render(node) -> str:
    """Expression text with the fewest parentheses the documented
    precedence allows (``~`` > ``&`` > ``|`` > ``\\`` > ``+``, all binary
    operators left-associative)."""
    op = node[0]
    if op == "id":
        return node[1]
    if op == "complement":
        inner = render(node[1])
        return f"~({inner})" if _prec(node[1]) < 5 else f"~{inner}"
    if op in _INFIX:
        p = _PREC[op]
        left, right = render(node[1]), render(node[2])
        if _prec(node[1]) < p:
            left = f"({left})"
        if _prec(node[2]) <= p:
            right = f"({right})"
        return f"{left} {_INFIX[op]} {right}"
    if op in _CALL:
        return f"{_CALL[op]}({render(node[1])})"
    if op == "pointwise_product":
        return f"prod({render(node[1])}, {render(node[2])})"
    if op == "cartesian_product":
        return f"cart({render(node[1])}, {render(node[2])})"
    if op == "scalar_mul":
        return f"scale({node[1]}, {render(node[2])})"
    if op == "scalar_div":
        return f"div({render(node[1])}, {node[2]})"
    if op == "is_contained":
        return f"subset({render(node[1])}, {render(node[2])})"
    if op == "equals":
        return f"eq({render(node[1])}, {render(node[2])})"
    if op == "is_empty":
        return f"empty({render(node[1])})"
    raise ValueError(op)


def ref_eval(node, env) -> tuple[object, bool]:
    """Reference value of an expression tree and whether it is exact."""
    op = node[0]
    if op == "id":
        return env[node[1]], True
    if op in ("complement", "truth_favorite", "false_favorite"):
        v, exact = ref_eval(node[1], env)
        return ref.SET_OPS[op](v), exact
    if op == "scalar_mul":
        v, _ = ref_eval(node[2], env)
        return ref.scalar_mul(float(node[1]), v), False
    if op == "scalar_div":
        v, _ = ref_eval(node[1], env)
        return ref.scalar_div(v, float(node[2])), False
    a, ea = ref_eval(node[1], env)
    if op == "is_empty":
        return ref.is_empty(a), True
    b, eb = ref_eval(node[2], env)
    if op in ref.PREDICATES:
        return ref.PREDICATES[op](a, b), True
    if op == "cartesian_product":
        return ref.cartesian_product(a, b), False
    return ref.SET_OPS[op](a, b), ea and eb and op in ref.EXACT_OPS


_EXACT_UNARY = ("complement", "truth_favorite", "false_favorite")
_EXACT_BINARY = ("union", "intersect", "difference", "add")
_SCALARS = ("0.5", "0.75", "1.25", "2", "3.5")


def random_tree(rng, depth: int, exact: bool, names=("A", "B", "C")):
    if depth == 0 or rng.random() < 0.2:
        return ("id", names[int(rng.integers(len(names)))])
    pick = rng.random()
    if pick < 0.25:
        return (_EXACT_UNARY[int(rng.integers(3))], random_tree(rng, depth - 1, exact, names))
    if exact or pick < 0.8:
        op = _EXACT_BINARY[int(rng.integers(4))]
        return (op, random_tree(rng, depth - 1, exact, names), random_tree(rng, depth - 1, exact, names))
    if pick < 0.9:
        return ("pointwise_product", random_tree(rng, depth - 1, exact, names),
                random_tree(rng, depth - 1, exact, names))
    k = _SCALARS[int(rng.integers(len(_SCALARS)))]
    inner = random_tree(rng, depth - 1, exact, names)
    return ("scalar_mul", k, inner) if pick < 0.95 else ("scalar_div", inner, k)


def _law_pair(rng):
    """Two expressions equal by a theorem of the algebra."""
    x = random_tree(rng, 2, True)
    y = random_tree(rng, 2, True)
    choice = int(rng.integers(3))
    if choice == 0:
        return ("complement", ("union", x, y)), ("intersect", ("complement", x), ("complement", y))
    if choice == 1:
        return ("union", x, ("intersect", x, y)), x
    return ("intersect", x, y), ("intersect", y, x)


class Eval(Workload):
    name = "eval"
    round_seconds = 2.4
    SETS = ("A", "B", "C")
    # stratum -> role; every other stratum evaluates a set expression. The
    # roles sit on fixed small strata so that every round costs the same
    # and the large files always parse in full and print their result; cart
    # runs only where its n**2 rows stay small.
    ROLES = {0: "cart", 2: "subset", 3: "unknown-set", 5: "eq", 6: "bad-expr",
             7: "cart", 9: "bad-file", 10: "empty"}
    BAD_EXPRS = ("{e} &", "({e}", "{e} $ A", "scale(0, {e})", "subset({e})", "A | empty(B)")

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed, work_dir, smoke)
        strata, lo, hi = (12, 2, 30) if smoke else (24, 2, 8000)
        # one file size per stratum, geometric between lo and hi: small
        # files expose per-invocation overhead, large ones parser throughput
        self.sizes = [int(round(lo * (hi / lo) ** ((k + 0.5) / strata))) for k in range(strata)]

    def _op(self, rng, r, i, n, role, fmt) -> Op:
        labels = tuple(f"e{j}" for j in range(n))
        data = ref.dyadic_sets(rng, len(self.SETS), n)
        env = dict(zip(self.SETS, data))
        text = ref.set_file_text({s: (labels, env[s]) for s in self.SETS})
        element_lines = len(self.SETS) * n
        want_code = 0
        if role == "bad-file":
            lines = text.split("\n")
            bad = [j for j, line in enumerate(lines) if " : " in line][int(rng.integers(element_lines))]
            label = lines[bad].split(" : ")[0]
            lines[bad] = f"{label} : [0.75,0.25] [0,1] [0,1]"
            text = "\n".join(lines)
            element_lines = sum(" : " in line for line in lines[:bad + 1])
            want_code = 2
        path = self.work / f"r{r}-{i}.ins"
        path.write_text(text, encoding="utf-8")

        if role == "subset":
            x = random_tree(rng, 2, True)
            y = ("union", x, random_tree(rng, 1, True)) if rng.random() < 0.5 else random_tree(rng, 2, True)
            tree = ("is_contained", x, y)
        elif role == "eq":
            tree = ("equals", *_law_pair(rng))
        elif role == "empty":
            tree = ("is_empty", random_tree(rng, 2, True))
        elif role == "cart":
            tree = ("cartesian_product", random_tree(rng, 2, False), random_tree(rng, 2, False))
        else:
            tree = random_tree(rng, int(rng.integers(1, 5)), False)
        expr = render(tree)
        if role == "unknown-set":
            expr = render(("union", tree, ("id", "D")))
            want_code = 1
        elif role == "bad-expr":
            expr = self.BAD_EXPRS[int(rng.integers(len(self.BAD_EXPRS)))].format(e=expr)
            want_code = 2

        argv = ["eval", "--sets", str(path), "--expr", expr, "--format", fmt]
        if fmt == "text":
            argv += ["--precision", "17"]

        def run(clock: Clock) -> Outcome:
            code, out, err = clock(run_cli, argv)
            rows = 0
            if want_code:
                ok = code == want_code and out == "" and err.startswith("ins: ")
            else:
                want, exact = ref_eval(tree, env)
                if isinstance(want, bool):
                    ok = out == ("true\n" if want else "false\n")
                else:
                    want_labels = [f"({x},{y})" for x in labels for y in labels] \
                        if tree[0] == "cartesian_product" else list(labels)
                    got_labels, got = (ref.parse_set_text(out) if fmt == "text"
                                       else ref.parse_set_json(json.loads(out)))
                    ok = got_labels == want_labels and ref.same_endpoints(got, want, exact)
                    rows = len(got_labels)
                ok = ok and code == 0 and err == ""
            return Outcome(ok, digest(code, out), items=element_lines + rows,
                           note=f"{expr!r} exit {code}: {err.strip()}")

        return Op(f"eval/{role}/n{n}", run)

    def _ops(self, rng, r, sizes) -> list[Op]:
        # alternate strata print JSON and exact text
        ops = [self._op(rng, r, j, n, self.ROLES.get(j, "set"), ("text", "json")[j % 2])
               for j, n in enumerate(sizes)]
        return [ops[j] for j in rng.permutation(len(ops))]

    def warmup(self):
        return self._ops(self.rng(1), "w", self.sizes[: max(self.ROLES) + 1])

    def round(self, r):
        for old in self.work.glob("r*.ins"):
            old.unlink()
        return self._ops(self.rng(r + 2), r, self.sizes)


# --------------------------------------------------------------------------
# algebra: library sessions over large operands


class Algebra(Workload):
    name = "algebra"
    round_seconds = 3.4
    # session sizes (rows) and how many sessions of each size a round holds
    SESSIONS = {1_000: 3, 3_162: 3, 10_000: 3, 31_623: 2, 100_000: 2, 316_228: 1, 1_000_000: 1}
    SMOKE_SESSIONS = {50: 2, 400: 1, 2_000: 1}
    # every public ins.core operation once per session, in a fixed order so
    # that peak memory does not depend on the seed; the seed picks operands
    STEPS = ("complement", "union", "intersect", "difference", "add", "pointwise_product",
             "scalar_mul", "scalar_div", "truth_favorite", "false_favorite",
             "is_contained", "equals", "is_empty", "cartesian_product",
             "empty_set", "universal_set")
    UNARY = ("complement", "truth_favorite", "false_favorite")
    POOL = 2  # operator results kept as operands besides A and B
    CART_SIDE = 316  # cartesian products have at most CART_SIDE**2 rows

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed, work_dir, smoke)
        self.sessions = self.SMOKE_SESSIONS if smoke else self.SESSIONS
        self._labels = [f"e{i}" for i in range(max(self.sessions))]

    def provenance(self):
        n = max(self.sessions)
        return {"largest_operand_rows": n, "operand_bytes": n * 6 * 8,
                "binary_op_working_set_bytes": 3 * n * 6 * 8}

    def _session(self, n, seed) -> Op:
        def run(clock: Clock) -> Outcome:
            core = ins.core
            rng = np.random.default_rng(seed)
            labels = tuple(self._labels[:n])
            small = tuple(f"p{i}" for i in range(min(self.CART_SIDE, math.isqrt(n))))
            a, b = ref.dyadic_sets(rng, 2, n)
            rows, notes = 0, []
            h = hashlib.blake2b(digest_size=12)

            def build(lbls, data):
                nonlocal rows
                s = clock(core.DiscreteINS.from_array, lbls, data)
                if s.universe != lbls or not np.array_equal(s.endpoints, data):
                    notes.append("from_array")
                rows += len(lbls)
                return s

            # (program set, reference endpoints, whether they compare exactly)
            pool = [(build(labels, a), a, True), (build(labels, b), b, True)]
            results = []

            def pick(exact_only=False):
                # predicates compare exactly, so they only see exact operands
                choices = [p for p in pool + results if p[2] or not exact_only]
                return choices[int(rng.integers(len(choices)))]

            for step in self.STEPS:
                fn = getattr(core, step)
                if step in ("empty_set", "universal_set"):
                    got = clock(fn, small)
                    row = ref.EMPTY_ROW if step == "empty_set" else 1.0 - ref.EMPTY_ROW
                    want, exact = np.tile(row, (len(small), 1)), True
                elif step == "cartesian_product":
                    other = tuple(f"q{i}" for i in range(min(self.CART_SIDE, n // len(small))))
                    d1, d2 = (ref.dyadic_sets(rng, 1, len(side))[0] for side in (small, other))
                    got = clock(fn, build(small, d1), build(other, d2))
                    want, exact = ref.cartesian_product(d1, d2), False
                    if got.universe != tuple((p, q) for p in small for q in other):
                        notes.append("cartesian labels")
                elif step in ref.PREDICATES:
                    x = pick(True)
                    args = (x,) if step == "is_empty" else (x, pick(True))
                    got = clock(fn, *(p[0] for p in args))
                    if got != ref.PREDICATES[step](*(p[1] for p in args)):
                        notes.append(step)
                    h.update(repr(got).encode())
                    continue
                elif step in ("scalar_mul", "scalar_div"):
                    k = float(rng.uniform(0.25, 3.0))
                    x = pick()
                    got = clock(fn, k, x[0]) if step == "scalar_mul" else clock(fn, x[0], k)
                    want = ref.scalar_mul(k, x[1]) if step == "scalar_mul" else ref.scalar_div(x[1], k)
                    exact = False
                elif step in self.UNARY:
                    x = pick()
                    got = clock(fn, x[0])
                    want, exact = ref.SET_OPS[step](x[1]), x[2]
                else:
                    x, y = pick(), pick()
                    got = clock(fn, x[0], y[0])
                    want = ref.SET_OPS[step](x[1], y[1])
                    exact = x[2] and y[2] and step in ref.EXACT_OPS
                rows += len(got)
                if not ref.same_endpoints(got.endpoints, want, exact):
                    notes.append(step)
                h.update(array_fingerprint(got.endpoints))
                if step not in ("cartesian_product", "empty_set", "universal_set"):
                    results = (results + [(got, want, exact)])[-self.POOL:]
            return Outcome(not notes, h.hexdigest(), items=rows, note=", ".join(notes))

        return Op(f"session/n{n}", run)

    def _ops(self, rng, sessions) -> list[Op]:
        sizes = [n for n, count in sessions.items() for _ in range(count)]
        seeds = rng.integers(0, 2**31, size=len(sizes))
        return [self._session(sizes[i], int(seeds[i])) for i in rng.permutation(len(sizes))]

    def warmup(self):
        return self._ops(self.rng(1), {50: 1, 400: 1})

    def round(self, r):
        return self._ops(self.rng(r + 2), self.sessions)


WORKLOADS = {w.name: w for w in (Laws, Convexity, Eval, Algebra)}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}
