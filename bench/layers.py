"""Per-layer spans for the traced run, and the metrics computed from them.

Layers are the program's modules. Each layer's public functions are wrapped
at the name their callers look up:

* ``ins.core.<op>`` (the laws and the benchmark look operators up there) and
  the entries of ``ins.dsl``'s operator tables, which captured the functions
  at import; ``DiscreteINS.from_array`` on the class;
* ``ins.laws.random_set``/``random_subset``/``random_superset``, imported by
  name into ``ins.laws``;
* ``ins.laws.run_law`` and ``ins.cli.run_law``;
* ``ins.convexity.check_convex``/``check_strongly_convex``;
* family oracles, wrapped by the convexity workload into a new
  ``FunctionalINS`` before ``intersect_functional`` captures them;
* ``ins.dsl.parse_sets``/``parse_expr``/``evaluate``/``format_set``/
  ``set_to_json``, looked up on the module by ``ins.cli``;
* ``ins.cli.main``.
"""

from __future__ import annotations

import ins.cli
import ins.convexity
import ins.core
import ins.dsl
import ins.laws

from tracer import SpanView, Tracer

CORE_OPS = ("complement", "union", "intersect", "difference", "add", "pointwise_product",
            "cartesian_product", "scalar_mul", "scalar_div", "truth_favorite",
            "false_favorite", "is_contained", "equals", "is_empty", "empty_set",
            "universal_set")
DRAWS = ("random_set", "random_subset", "random_superset")
FAMILY_KINDS = ("triangular", "trapezoid", "gaussian", "bimodal", "intersect")
ROW_BYTES = 6 * 8


def _rows(x) -> int:
    return len(x) if isinstance(x, (ins.core.DiscreteINS, ins.core.PairedINS)) else 0


def install(tracer: Tracer, workload) -> None:
    core = ins.core
    tracer.counters["core.bytes_computed"] = 0

    def core_work(args, result) -> int:
        rows_in = [_rows(a) for a in args]
        rows_out = _rows(result)
        tracer.counters["core.bytes_computed"] += (sum(rows_in) + rows_out) * ROW_BYTES
        # rows produced; predicates produce none, so count the rows they read
        return rows_out or max(rows_in, default=0)

    for name in CORE_OPS:
        tracer.patch(core, name, f"core.{name}", core_work)
    tracer.repoint(ins.dsl._BINARY_OPS)
    tracer.repoint(ins.dsl._UNARY_OPS)
    tracer.patch_classmethod(core.DiscreteINS, "from_array", "core.from_array",
                             lambda a, r: len(r))
    for name in DRAWS:
        tracer.patch(ins.laws, name, f"sampling.{name}")
    law_name = lambda args: f"laws.run_law/{args[0]}"
    trials = lambda args, r: r.trials
    tracer.patch(ins.laws, "run_law", law_name, trials)
    tracer.patch(ins.cli, "run_law", law_name, trials)
    samples = lambda args, r: r.samples_checked
    tracer.patch(ins.convexity, "check_convex", "convexity.scan", samples)
    tracer.patch(ins.convexity, "check_strongly_convex", "convexity.scan", samples)
    tracer.patch(ins.dsl, "parse_sets", "dsl.parse_sets", lambda a, r: a[0].count("\n"))
    tracer.patch(ins.dsl, "parse_expr", "dsl.parse_expr")
    tracer.patch(ins.dsl, "evaluate", "dsl.evaluate")
    tracer.patch(ins.dsl, "format_set", "dsl.render", lambda a, r: len(a[0]))
    tracer.patch(ins.dsl, "set_to_json", "dsl.render", lambda a, r: len(a[0]))
    tracer.patch(ins.cli, "main", "cli.main")

    def hook(kind, fset):
        oracle = tracer.wrap(f"families.{kind}", fset.membership)
        return ins.convexity.FunctionalINS(fset.dimension, oracle)

    workload.oracle_hook = hook


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``. A layer the
    workload leaves idle reports 0."""
    v = SpanView(tracer)
    dur, self_ns, work = v.a["dur"], v.a["self"], v.a["work"]
    out: dict[str, tuple[float, str]] = {}

    core_ops = v.mask(lambda n: n.startswith("core.") and n != "core.from_array")
    calls = int(core_ops.sum())
    core_rows = int(work[core_ops].sum())
    core_self = int(self_ns[core_ops].sum())
    out["core.ops.calls"] = (calls, "count")
    out["core.ops.ns_per_call"] = (_ratio(core_self, calls), "ns")
    out["core.ops.ns_per_row"] = (_ratio(core_self, core_rows), "ns")
    # bytes of endpoint arrays read and written, computed from array sizes
    # (cache behaviour is not measured)
    out["core.bytes_computed"] = (tracer.counters.get("core.bytes_computed", 0), "B")
    from_array = v.named("core.from_array")
    out["core.from_array.calls"] = (int(from_array.sum()), "count")
    out["core.from_array.ns_per_row"] = (
        _ratio(int(dur[from_array].sum()), int(work[from_array].sum())), "ns")

    draws = v.prefixed("sampling.")
    out["sampling.draws.calls"] = (int(draws.sum()), "count")
    out["sampling.draws.self_ms"] = (int(self_ns[draws].sum()) / 1e6, "ms")

    run_law = v.prefixed("laws.run_law/")
    out["laws.trials"] = (int(work[run_law].sum()), "count")
    for check in ins.laws.ALL_CHECKS:
        m = v.named(f"laws.run_law/{check}")
        out[f"laws.{check}.trials_per_s"] = (
            _ratio(int(work[m].sum()), int(dur[m].sum()) / 1e9), "1/s")
    out["laws.self_share"] = (
        _ratio(int(self_ns[run_law].sum()), int(dur[run_law].sum())), "ratio")

    scans = v.named("convexity.scan")
    scan_ns = int(dur[scans].sum())
    oracles = v.under(v.prefixed("families."), scans)
    out["convexity.samples_checked"] = (int(work[scans].sum()), "count")
    out["convexity.oracle_evals"] = (int(oracles.sum()), "count")
    out["convexity.scan_self_share"] = (_ratio(int(self_ns[scans].sum()), scan_ns), "ratio")
    for kind in FAMILY_KINDS:
        m = v.named(f"families.{kind}")
        out[f"families.{kind}.ns_per_eval"] = (_ratio(int(self_ns[m].sum()), int(m.sum())), "ns")
    out["families.oracle_share"] = (_ratio(int(dur[oracles].sum()), scan_ns), "ratio")

    parse = v.named("dsl.parse_sets")
    out["dsl.parse_sets.lines_per_s"] = (
        _ratio(int(work[parse].sum()), int(dur[parse].sum()) / 1e9), "1/s")
    expr = v.named("dsl.parse_expr")
    out["dsl.parse_expr.us_per_call"] = (_ratio(int(dur[expr].sum()) / 1e3, int(expr.sum())), "us")
    evaluate = v.named("dsl.evaluate")
    outer = evaluate & ~v.under(evaluate, evaluate)
    out["dsl.evaluate.ms"] = (_ratio(int(dur[outer].sum()) / 1e6, int(outer.sum())), "ms")
    render = v.named("dsl.render")
    out["dsl.render.rows_per_s"] = (
        _ratio(int(work[render].sum()), int(dur[render].sum()) / 1e9), "1/s")

    main = v.named("cli.main")
    out["cli.main_self_ms"] = (_ratio(int(self_ns[main].sum()) / 1e6, int(main.sum())), "ms")
    return out
