"""End-to-end benchmark of the ``ciqc`` command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

A single client drives the real ``ciqc`` entry point in a closed loop: each
op is a fresh child process (``perfbench/child.py``), spawned only after the
previous one has exited, because that is how a user pays for each call and
it keeps any in-process memo from turning repeat calls into free hits.
Every output is validated (validate.py) after the timed loop, and the
validators are then fed mutated outputs to confirm they reject them.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs every op twice, untraced and traced (tracer.py); it
requires byte-identical stdout from the two and reports the per-layer
metrics.  ``--workload all`` runs the three workloads in turn.  The last
line of stdout is one JSON object; the lines above it are a table of every
metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

from tracer import LAYERS, TARGETS
from validate import Invalid, check, self_test
from workloads import WORKLOADS, pass_order, prepare

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = os.path.join("perfbench", "child.py")
SETUPS_PER_PASS = 3
OP_TIMEOUT_S = 150
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
MODULES = ("__init__", "acceptance", "cli", "errors", "exact", "fano_lines",
           "genus_one", "geometry", "reconstruct", "reduction", "smallqh")


class SetupError(Exception):
    pass


@dataclass
class Result:
    rc: int
    wall: float
    rss_mb: float
    out: bytes
    err: bytes
    trace: dict | None = None


class Spawner:
    """Runs one child at a time with stdout/stderr captured in files."""

    def __init__(self, workdir):
        self.workdir = workdir
        env = dict(os.environ)
        env.pop("CIQC_QMAX", None)
        env.pop("PERFBENCH_TRACE", None)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["PYTHONHASHSEED"] = "0"
        self.env = env
        self.out_path = os.path.join(workdir, "stdout")
        self.err_path = os.path.join(workdir, "stderr")
        self.trace_path = os.path.join(workdir, "trace.json")

    def run(self, argv, traced=False) -> Result:
        write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, self.out_path, write, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, self.err_path, write, 0o644)]
        env = self.env
        if traced:
            if os.path.exists(self.trace_path):
                os.remove(self.trace_path)
            env = dict(env, PERFBENCH_TRACE=self.trace_path,
                       PERFBENCH_SPAWN=repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env,
                             file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            if not select.select([pidfd], [], [], OP_TIMEOUT_S)[0]:
                os.kill(pid, signal.SIGKILL)
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        with open(self.out_path, "rb") as handle:
            out = handle.read()
        with open(self.err_path, "rb") as handle:
            err = handle.read()
        trace = None
        if traced and os.path.exists(self.trace_path):
            with open(self.trace_path) as handle:
                trace = json.load(handle)
        return Result(os.waitstatus_to_exitcode(status), wall,
                      usage.ru_maxrss / 1024, out, err, trace)

    def run_op(self, op, traced=False) -> Result:
        return self.run([CHILD] + op.argv, traced)


def setup(workload, seed, spawner):
    """One set-up: check that the interpreter and package import, then read
    the workload's inputs and write its seeded files."""
    start = time.perf_counter()
    probe = spawner.run(["-c", "import ciqc.cli"])
    if probe.rc != 0:
        raise SetupError("cannot import ciqc.cli from src/: "
                         + probe.err.decode(errors="replace").strip()[-300:])
    ops = prepare(workload, seed, spawner.workdir)
    return ops, time.perf_counter() - start


def timed_passes(workload, set_up, seed, seconds, body):
    """Closed loop over whole passes of the op list, in seeded order.  A new
    pass starts only while fewer than ``seconds`` have gone by, so every
    sample comes from a complete pass.  ``set_up`` runs before each pass,
    outside its timing, and returns the ops.  Returns each pass's wall
    time."""
    rng = random.Random(seed)
    start = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - start < seconds:
        ops = set_up()
        pass_start = time.perf_counter()
        for op in pass_order(workload, ops, rng):
            body(len(passes), op)
        passes.append(time.perf_counter() - pass_start)
    return passes


def validate(samples):
    """Check every (op, result).  Returns the indices of failed samples,
    their messages, and one accepted output per distinct op expectation
    for the validator self-test."""
    failed, messages, accepted = set(), [], {}
    for i, (op, res) in enumerate(samples):
        try:
            check(op, res.rc, res.out, res.err)
        except Invalid as exc:
            failed.add(i)
            messages.append(f"{op.label}: {exc}")
            continue
        key = (op.kind, json.dumps(op.expect, sort_keys=True))
        accepted.setdefault(key, (op, res.rc, res.out, res.err))
    return failed, messages, list(accepted.values())


def source_lines():
    src = os.path.join(ROOT, "src", "ciqc")
    per_module = Counter()
    for dirpath, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                module = os.path.relpath(path, src)[:-3].replace(os.sep, ".")
                with open(path, "rb") as handle:
                    per_module[module] = handle.read().count(b"\n")
    metrics = {"src_lines": (sum(per_module.values()), 1)}
    for module in MODULES:
        metrics[f"src_lines.{module}"] = (per_module[module], 1)
    return metrics


def _ratio(num, den):
    return num / den if den else 1.0


def layer_metrics(pairs):
    """Per-layer metrics of one complete traced pass: ``pairs`` holds the
    (untraced, traced) results of each op.  Ops whose traced run wrote no
    spans (already counted as failed) are left out."""
    spans = {prefix: [0, 0.0, 0.0] for prefix, _, _ in TARGETS}
    raised, counters, maxima = Counter(), Counter(), Counter()
    ring_distinct, startups = 0, []
    for _, res in pairs:
        trace = res.trace
        if trace is None:
            continue
        for prefix, stats in trace["spans"].items():
            for i, value in enumerate(stats):
                spans[prefix][i] += value
        raised.update(trace["raised"])
        counters.update(trace["counters"])
        for name, value in trace["maxima"].items():
            maxima[name] = max(maxima[name], value)
        ring_distinct += trace["ring_distinct"]
        startups.append(trace["startup_s"])
    m = {}
    for prefix, (calls, total, self_s) in spans.items():
        m[f"{prefix}.calls"] = calls
        m[f"{prefix}.self_s"] = self_s
        m[f"{prefix}.s"] = total
    for layer in LAYERS:
        m[f"{layer}.raised"] = raised[layer]
    m["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    m["cli.stdout_bytes"] = sum(len(res.out) for _, res in pairs)
    m["smallqh.build_ring.distinct_ratio"] = _ratio(
        ring_distinct, spans["smallqh.build_ring"][0])
    m["smallqh.ring.max_bits"] = maxima["smallqh.ring.max_bits"]
    m["reduction.residual_terms"] = counters["reduction.residual_terms"]
    m["reduction.window_ratio"] = _ratio(counters["reduction.window_terms"],
                                         counters["reduction.product_terms"])
    m["reduction.residual_max_bits"] = maxima["reduction.residual_max_bits"]
    pairs_n = counters["exact.TruncSeries.mul.term_pairs"]
    m["exact.TruncSeries.mul.term_pairs"] = pairs_n
    m["exact.TruncSeries.mul.kept_ratio"] = _ratio(
        counters["exact.TruncSeries.mul.kept_pairs"], pairs_n)
    m["trace.overhead_ratio"] = (sum(res.wall for _, res in pairs)
                                 / sum(res.wall for res, _ in pairs))
    return m


def _is_time(name):
    return name.endswith(("_s", ".s")) or name == "trace.overhead_ratio"


def run_untraced(workload, set_up, seed, seconds, spawner):
    samples = []
    passes = timed_passes(workload, set_up, seed, seconds,
                          lambda i, op: samples.append((op, spawner.run_op(op))))
    walls = [res.wall for _, res in samples]
    by_op = {}
    for op, res in samples:
        by_op.setdefault(op.label, []).append(res.wall)
    # every op runs once per pass, so each op's median is taken first: the
    # median of the pooled samples would otherwise fall at a varying rank
    # inside one op's samples when ops of unequal cost are few
    op_medians = [statistics.median(v) for v in by_op.values()]
    metrics = {
        "pass_s": (statistics.median(passes), len(passes)),
        "latency_p50_s": (statistics.median(op_medians), len(walls)),
        "peak_rss_mb": (max(res.rss_mb for _, res in samples), len(samples)),
    }
    notes = []
    if len(walls) >= P90_MIN_SAMPLES:
        metrics["latency_p90_s"] = (statistics.quantiles(walls, n=10)[8], len(walls))
    else:
        notes.append(f"latency_p90_s omitted: {len(walls)} samples leave fewer "
                     f"than ten beyond p90")
    failed, messages, accepted = validate(samples)
    return metrics, len(samples), failed, messages, accepted, notes


def run_traced(workload, set_up, seed, seconds, spawner):
    by_pass = []

    def body(index, op):
        if index == len(by_pass):
            by_pass.append([])
        by_pass[index].append((op, spawner.run_op(op), spawner.run_op(op, traced=True)))

    timed_passes(workload, set_up, seed, seconds, body)
    flat = [entry for group in by_pass for entry in group]
    failed, messages, accepted = validate([(op, plain) for op, plain, _ in flat])
    for i, (op, plain, traced) in enumerate(flat):
        if traced.rc != plain.rc or traced.out != plain.out:
            failed.add(i)
            messages.append(f"{op.label}: traced stdout or exit code differs")
        elif traced.trace is None:
            failed.add(i)
            messages.append(f"{op.label}: traced run wrote no spans")
    metrics = dict(source_lines())
    per_pass = [layer_metrics([(plain, traced) for _, plain, traced in group])
                for group in by_pass]
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if _is_time(name):
            metrics[name] = (statistics.median(values), len(values))
            continue
        if len(set(values)) > 1:
            messages.append(f"count {name} differs between passes: {values}")
        metrics[name] = (values[0], len(values))
    return metrics, len(flat), failed, messages, accepted, []


def run_workload(workload, seed, seconds, traced, workdir):
    spawner = Spawner(workdir)
    setups = []

    def set_up():
        # repeated before every pass, so that the set-up samples are spread
        # over the run like the passes rather than taken in one burst
        for _ in range(SETUPS_PER_PASS):
            ops, spent = setup(workload, seed, spawner)
            setups.append(spent)
        return ops

    runner = run_traced if traced else run_untraced
    metrics, attempted, failed, messages, accepted, notes = runner(
        workload, set_up, seed, seconds, spawner)
    if not traced:
        metrics["setup_s"] = (statistics.median(setups), len(setups))
    wrong = self_test(accepted)
    messages += [f"validator accepted the mutation {m}" for m in wrong]
    notes.append(f"error_rate = {len(failed) / attempted:.6g} "
                 f"({len(failed)} of {attempted} ops failed)")
    notes.append(f"validator self-test: mutations of {len(accepted)} accepted "
                 f"outputs, {len(wrong)} wrongly accepted")
    return metrics, attempted, len(failed), messages, notes


def declared_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if traced else "end_to_end"]]


def report(title, metrics, declared, notes, messages, prefix=""):
    """Print the metric table; return the declared metrics for the JSON line."""
    shown = list(declared)
    if "latency_p90_s" in metrics:
        shown.append(("latency_p90_s", "s"))
    print(f"== {title}")
    for name, unit in shown:
        if name not in metrics:
            raise SystemExit(f"benchmark error: metric {name} was not computed")
        value, samples = metrics[name]
        print(f"  {name:<44} {value:>16.6g} {unit:<6} n={samples}")
    for note in notes:
        print(f"  note: {note}")
    for message in messages[:20]:
        print(f"  FAILED {message}")
    return {prefix + name: {"value": metrics[name][0], "unit": unit}
            for name, unit in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    declared = declared_metrics(bool(args.trace))
    base = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            metrics, attempted, failed, messages, notes = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), workdir)
            prefix = f"{workload}." if args.workload == "all" else ""
            result["metrics"].update(report(
                f"{workload} (seed {args.seed}, {args.seconds:g} s, "
                f"trace {args.trace})", metrics, declared, notes, messages, prefix))
            result["attempted"] += attempted
            result["failed"] += failed
            result["correct"] = result["correct"] and not messages
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
