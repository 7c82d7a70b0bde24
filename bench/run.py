"""Benchmark of the ``ins`` package: four closed-loop workloads.

Run from the root of a checkout::

    python3 bench/run.py --workload laws --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``laws``, ``convexity``, ``eval`` and
``algebra``. ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
runs a fixed number of rounds twice, untraced and then with spans around
every layer's public functions, and reports the per-layer metrics. Every op's
output is checked against ``reference.py`` and its digest compared with
earlier runs of the same code and seed. ``--smoke`` shrinks every size so a
run takes a few seconds.

End-to-end times are in reference seconds (see ``CAL_REFERENCE_S``). The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit, the unscaled values, the tail percentile used, and
the provenance of the run. Scratch files go to ``.bench_work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 5
# importing ins.cli imports the whole package
IMPORT_CODE = "import ins.cli\nprint('ready', flush=True)"
BARE_CODE = "print('ready', flush=True)"
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

# End-to-end times are scaled to a reference machine speed. The shared host
# this benchmark was built on moves the speed of interpreter-bound code by up
# to 1.8x for seconds to minutes at a time, as other tenants come and go; a
# fixed pure-Python loop, timed between ops and before every setup probe,
# measures that speed, and each time is multiplied by CAL_REFERENCE_S over
# the loop's current time. The unscaled values are printed beside.
CAL_LOOPS = 50_000
CAL_REFERENCE_S = 0.005


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("laws", "convexity", "eval", "algebra"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# --------------------------------------------------------------------------
# Fresh-interpreter probes


def ready_seconds(code: str) -> float:
    """Wall time from spawning a fresh interpreter until it reports ready."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          cwd=ROOT, env=env) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"interpreter probe failed (exit {proc.returncode})")
    return elapsed


def median_ready(code: str, count: int) -> tuple[float, float]:
    """Median probe time, unscaled and in reference seconds."""
    ready_seconds(code)  # compiles and caches bytecode; not counted
    probes = [(ready_seconds(code), speed_scale()) for _ in range(count)]
    return (statistics.median(t for t, _ in probes),
            statistics.median(t * k for t, k in probes))


def speed_scale() -> float:
    """Factor that turns a time measured now into reference seconds."""
    t0 = perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i
    return CAL_REFERENCE_S / (perf_counter() - t0)


# --------------------------------------------------------------------------
# Provenance


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref_name = head[5:]
    direct = _read(ROOT / ".git" / ref_name)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref_name):
            return line.split()[0]
    return None


def _cpu_quota() -> str | None:
    v2 = _read(Path("/sys/fs/cgroup/cpu.max"))
    if v2:
        return v2
    quota = _read(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"))
    period = _read(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us"))
    return f"{quota} {period}" if quota else None


def _llc_bytes() -> int | None:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, LC_ALL="C")).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    sizes = {}
    for level, num, unit in re.findall(r"^L(\d)\w* cache:\s+([\d.]+)\s*([KMG])i?B?", out, re.M):
        sizes[int(level)] = int(float(num) * {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[unit])
    return sizes[max(sizes)] if sizes else None


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(HERE.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload, fingerprint: str) -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": _cpu_quota(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "code_sha256": fingerprint,
        "llc_bytes": _llc_bytes(),
    }
    extra = workload.provenance()
    if "operand_bytes" in extra and info["llc_bytes"]:
        extra["operand_bytes_over_llc"] = extra["operand_bytes"] / info["llc_bytes"]
    info.update(extra)
    return info


# --------------------------------------------------------------------------
# Running ops


class Tally:
    """Outcomes of a sequence of ops."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.op_ns = 0
        self.items = 0
        self.latency_ns: list[int] = []
        self.ref_s = 0.0  # op time in reference seconds
        self.ref_latency_ms: list[float] = []
        self.scales: list[float] = []  # speed scale measured between ops
        self.counters: dict[str, list[int]] = {}
        self.digests: dict[str, str] = {}
        self.notes: list[str] = []

    def add(self, key: str, kind: str, ns: int, outcome, scale: float) -> None:
        self.ops += 1
        self.op_ns += ns
        self.ref_s += scale * ns / 1e9
        self.items += outcome.items
        self.digests[key] = outcome.digest
        if not outcome.ok:
            self.failed += 1
            self.notes.append(f"{key} {kind}: {outcome.note}")
        elif outcome.latency:
            self.latency_ns.append(ns)
            self.ref_latency_ms.append(scale * ns / 1e6)
        for name, value in outcome.counters.items():
            self.counters.setdefault(name, []).append(value)


def run_ops(ops, tally: Tally, prefix: str, tracer=None, calibrate=False) -> None:
    """Run ops in order; with ``calibrate``, scale each op's time by the
    mean speed measured just before and just after it."""
    from workloads import Clock, Outcome

    if calibrate and not tally.scales:
        tally.scales.append(speed_scale())
    for i, op in enumerate(ops):
        clock = Clock()
        if tracer is not None:
            tracer.op_id = tally.ops
        try:
            outcome = op.run(clock)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outcome = Outcome(False, "raised", note=f"{type(exc).__name__}: {exc}")
        scale = 1.0
        if calibrate:
            tally.scales.append(speed_scale())
            scale = (tally.scales[-2] + tally.scales[-1]) / 2
        tally.add(f"{prefix}.{i}", op.kind, clock.ns, outcome, scale)


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    k = (len(sorted_values) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    fitting = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    return fitting[-1] if fitting else 50


def check_digests(name: str, seed: int, smoke: bool, fingerprint: str, digests: dict) -> list[str]:
    """Compare op digests with earlier runs of the same code, workload and
    seed; return the keys whose output changed."""
    path = WORK / "digests" / f"{name}-{seed}{'-smoke' if smoke else ''}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        old = json.loads(path.read_text())
    except (OSError, ValueError):
        old = {}
    known = old.get("digests", {}) if old.get("code") == fingerprint else {}
    changed = [k for k, d in digests.items() if known.get(k, d) != d]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"code": fingerprint, "digests": {**known, **digests}}))
    os.replace(tmp, path)
    return changed


# --------------------------------------------------------------------------
# The two kinds of run


WORK_NAMES = {
    "laws": "law_trials_per_s",
    "convexity": "segment_samples_per_s",
    "eval": "element_lines_and_rows_per_s",
    "algebra": "rows_per_s",
}


def end_to_end(wl, args, tally: Tally) -> tuple[dict, list[str]]:
    run_ops(wl.warmup(), tally, "w")
    timed = Tally()
    # (ops, items, reference seconds, latencies) per round. Rounds hold the same mix,
    # so their statistics compare; taking medians over rounds keeps bursts in
    # which other tenants of the machine slow it down or leave it idle (seen
    # to move speed by up to 1.8x for seconds at a time) out of the result.
    rounds = []
    while not rounds or timed.op_ns < args.seconds * 1e9:
        before = (timed.ops, timed.items, timed.ref_s, len(timed.ref_latency_ms))
        run_ops(wl.round(len(rounds)), timed, str(len(rounds)), calibrate=True)
        rounds.append((timed.ops - before[0], timed.items - before[1], timed.ref_s - before[2],
                       sorted(timed.ref_latency_ms[before[3]:])))
    r = len(rounds)
    lat = sorted(ms for *_, lats in rounds for ms in lats)
    raw = sorted(ns / 1e6 for ns in timed.latency_ns)
    tail = tail_percentile(len(lat))
    probes = 1 if args.smoke else SETUP_PROBES
    setup_raw, setup = median_ready(IMPORT_CODE, probes)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (statistics.median(ops / s for ops, _, s, _ in rounds), "1/s"),
        "op_p50_ms": (statistics.median(percentile(lats, 50) for *_, lats in rounds), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "work_per_s": (statistics.median(items / s for _, items, s, _ in rounds), "1/s"),
    }
    window = timed.op_ns / 1e9
    notes = [
        f"{r} rounds, {timed.ops} ops, {window:.3f} s of op time; ops_per_s, work_per_s "
        "and op_p50_ms are medians over rounds",
        f"times are in reference seconds: speed scale {statistics.median(timed.scales)!r} "
        f"(range {min(timed.scales):.3f} to {max(timed.scales):.3f}); unscaled: "
        f"ops_per_s {timed.ops / window!r}, op_p50_ms {percentile(raw, 50)!r}, "
        f"op_tail_ms {percentile(raw, tail)!r}, setup_s {setup_raw!r}",
        f"setup_s: median of {probes} fresh interpreters importing ins.cli",
        f"op_tail_ms {percentile(lat, tail)!r} ms: p{tail:g} over {len(lat)} ops"
        + (" (no-violation scans only)" if wl.name == "convexity" else "")
        + "; a per-layer diagnostic, as it spreads too widely between runs",
        f"{WORK_NAMES[wl.name]} {metrics['work_per_s'][0]!r} 1/s (reported as work_per_s)",
    ]
    violations = timed.counters.get("violation_ns")
    if violations:
        notes.append(f"violation_p50_ms: {statistics.median(violations) / 1e6!r} ms over "
                     f"{len(violations)} planted ops, planted misses "
                     f"{len(timed.counters.get('planted_misses', []))}")
    _merge(tally, timed)
    return metrics, notes


def traced(wl, args, tally: Tally) -> tuple[dict, list[str]]:
    import layers
    from tracer import Tracer

    rounds = 1 if args.smoke else max(1, round(args.seconds / (2 * wl.round_seconds)))
    run_ops(wl.warmup(), tally, "w")
    plain = Tally()
    for r in range(rounds):
        run_ops(wl.round(r), plain, str(r), calibrate=True)
    tracer = Tracer()
    untraced_hook = wl.oracle_hook
    layers.install(tracer, wl)
    spans = Tally()
    try:
        for r in range(rounds):
            run_ops(wl.round(r), spans, str(r), tracer)
    finally:
        tracer.restore()
        wl.oracle_hook = untraced_hook
    diverged = [k for k, d in plain.digests.items() if spans.digests.get(k) != d]
    tracer.save(WORK / f"spans-{wl.name}-{args.seed}.npz")

    metrics = layers.metrics(tracer)
    lat = sorted(plain.ref_latency_ms)
    tail = tail_percentile(len(lat))
    metrics["op_tail_ms"] = (percentile(lat, tail), "ms")
    violations = plain.counters.get("violation_ns", [])
    metrics["convexity.samples_to_violation"] = (
        sum(spans.counters.get("samples_to_violation", [])), "count")
    metrics["convexity.planted_misses"] = (sum(spans.counters.get("planted_misses", [])), "count")
    metrics["convexity.violation_p50_ms"] = (
        statistics.median(violations) / 1e6 if violations else 0.0, "ms")
    probes = 1 if args.smoke else SETUP_PROBES
    metrics["cli.import_ms"] = (median_ready(IMPORT_CODE, probes)[0] * 1e3, "ms")
    metrics["cli.bare_interpreter_ms"] = (median_ready(BARE_CODE, probes)[0] * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (spans.op_ns / plain.op_ns, "ratio")
    notes = [f"{rounds} rounds run untraced, then traced: {spans.ops} ops, "
             f"{len(tracer.start)} spans",
             f"op_tail_ms: p{tail:g} over {len(lat)} untraced ops, in reference seconds"]
    _merge(tally, plain)
    _merge(tally, spans, digests=False)
    for key in diverged:
        tally.failed += 1
        tally.notes.append(f"{key}: traced output differs from untraced output")
    return metrics, notes


def _merge(into: Tally, part: Tally, digests: bool = True) -> None:
    into.ops += part.ops
    into.failed += part.failed
    into.notes += part.notes
    if digests:
        into.digests.update(part.digests)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ins" / "__init__.py").is_file():
        print(f"bench: the program's source (src/ins) is missing under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import ins

    if Path(ins.__file__).resolve().parent != (SRC / "ins").resolve():
        print(f"bench: imported ins from {ins.__file__}, not from src/", file=sys.stderr)
        return 2
    import workloads

    WORK.mkdir(exist_ok=True)
    fingerprint = code_fingerprint()
    wl = workloads.WORKLOADS[args.workload](args.seed, WORK, args.smoke)
    tally = Tally()
    measure = traced if args.trace else end_to_end
    metrics, notes = measure(wl, args, tally)
    changed = check_digests(wl.name, args.seed, args.smoke, fingerprint, tally.digests)
    for key in changed:
        tally.failed += 1
        tally.notes.append(f"{key}: output differs from an earlier run of the same code and seed")

    print(f"{wl.name} seed={args.seed} trace={args.trace}{' smoke' if args.smoke else ''}")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value!r} {unit}")
    print(f"  fail_ratio {tally.failed / tally.ops!r} ({tally.failed} of {tally.ops} ops)")
    for note in tally.notes[:20]:
        print(f"  FAILED {note}", file=sys.stderr)
    print("provenance " + json.dumps(provenance(wl, fingerprint)))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
