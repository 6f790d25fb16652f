"""The pairrank benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py [--workload simulate|witness|reports|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload runs in its own worker process:
one client in a closed loop, where every op is one in-process call to
`pairrank.cli.main(argv)` with stdout captured, and the next op starts when
the previous one returns.  With --trace 0 the end-to-end metrics are printed;
with --trace 1 every op runs twice, untraced and then traced, and the
per-layer metrics are printed.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from collections import Counter
from collections.abc import Iterator
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"
WORKLOADS = ("simulate", "witness", "reports")

SETUP_RUNS = 5       # setup_s is the median over this many fresh worker processes
MIN_OPS = 110        # quantiles() puts p90 at rank 0.9 (N + 1); N >= 110 leaves ten above it
LOOP_DEADLINE_S = 120.0
RUN_TIMEOUT_S = 175.0
# one client, one thread: numpy's BLAS would otherwise start a thread per core
WORKER_ENV = {**os.environ, **{k: "1" for k in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metrics: span self time per op, span calls per op, counters from
# public return values, self time per layer module, and the tracing cost
SELF_MS = (
    "cli.main", "core.load_matrix", "core.save_matrix", "core.rank_of",
    "core.to_additive", "core.to_multiplicative", "methods.hodge_scores",
    "methods.principal_scores", "methods.tropical_solve", "methods.tropical_eigenvalue",
    "geometry.classify_region4", "geometry.tropical_closed_form4",
    "analysis.kendall_tau", "analysis.monte_carlo_disagreement",
    "analysis.consistency_index", "analysis.hadamard_trajectory",
    "witness.generate_witness", "witness.witness_hodge_tropical",
    "witness.witness_hodge_principal", "witness.witness_tropical_principal",
    "witness.base_hodge_zero_tropical_generic",
)
CALLS = ("methods.principal_scores", "geometry.threecycle_basis")
WITNESS_CLASSES = tuple(f"{pair}.n{n}" for pair in
                        ("hodge-tropical", "hodge-principal", "tropical-principal")
                        for n in (4, 5))
LAYERS = ("core", "methods", "geometry", "witness", "analysis", "cli")
PER_LAYER = {
    **{f"{name}.self_ms": "ms/op" for name in SELF_MS},
    **{f"{name}.calls": "calls/op" for name in CALLS},
    "methods.principal_scores.iterations": "iterations/op",
    "methods.principal_scores.calls_per_rank_op": "calls/op",
    "analysis.simulate.effective_ratio": "ratio",
    "analysis.simulate.degenerate": "trials/op",
    "analysis.simulate.failures": "trials/op",
    "analysis.trajectory.unconverged_points": "points/op",
    "witness.search_steps": "steps/op",
    **{f"witness.generate_witness.{c}.ms": "ms/op" for c in WITNESS_CLASSES},
    **{f"layer.{layer}.self_ms": "ms/op" for layer in LAYERS},
    "trace.untraced_op_ms": "ms/op",
    "trace.traced_op_ms": "ms/op",
    "trace.overhead_ms": "ms/op",
    "trace.span_share": "ratio",
}
KEEP = frozenset({"methods.principal_scores", "witness.generate_witness",
                  "analysis.monte_carlo_disagreement", "analysis.hadamard_trajectory"})


# -- one op --------------------------------------------------------------------


def run_op(cli, argv) -> tuple[object, str, float]:
    """Call cli.main(argv) with stdout and stderr captured: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exception"
            traceback.print_exc()
        elapsed = perf_counter() - start
    if rc != 0:
        sys.stderr.write(err.getvalue())
    return rc, out.getvalue(), elapsed


def verify(workloads, op, rc, out: str, digests: dict | None) -> str | None:
    problem = workloads.check(op, rc, out)
    if problem is None and digests is not None and op.digest:
        key = " ".join(op.argv)
        if key not in digests:
            problem = "no recorded stdout digest"
        elif hashlib.sha256(out.encode()).hexdigest() != digests[key]:
            problem = "stdout differs from the recorded digest"
    return problem


# -- worker: set-up, then the timed or traced loop -------------------------------


def rounds_until(wl, seconds: float, elapsed, min_ops: int) -> Iterator[tuple]:
    """Cycle through the workload's rounds; stop after a whole round once
    elapsed() has reached `seconds` and at least `min_ops` ops have run."""
    started = perf_counter()
    ops = 0
    for ops_in_round in itertools.cycle(wl.rounds):
        if perf_counter() - started > LOOP_DEADLINE_S:
            return
        if elapsed() >= seconds and ops >= min_ops:
            return
        yield ops_in_round
        ops += len(ops_in_round)


def timed_loop(cli, workloads, wl, seconds: float, digests) -> dict:
    latencies, round_rates, failures = [], [], []
    for ops_in_round in rounds_until(wl, seconds, lambda: sum(latencies), MIN_OPS):
        round_s = 0.0
        for op in ops_in_round:
            rc, out, dt = run_op(cli, op.argv)
            latencies.append(dt)
            round_s += dt
            problem = verify(workloads, op, rc, out, digests)
            if problem:
                failures.append(f"{' '.join(op.argv)}: {problem}")
        round_rates.append(len(ops_in_round) / round_s)
    ms = [t * 1e3 for t in latencies]
    p90 = statistics.quantiles(ms, n=10)[-1]
    return {
        "attempted": len(ms),
        "failures": failures,
        "beyond_p90": sum(1 for t in ms if t > p90),
        "rounds": len(round_rates),
        "metrics": {
            # the median round: every round holds the same mix of op classes,
            # and a median is not pulled by a few rounds that the machine slowed
            "ops_per_s": statistics.median(round_rates),
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def _search_steps(request, params) -> int:
    """Epsilon or k halvings, or the index of the k probe, that the search ran."""
    pair = request.pair.value
    if pair == "hodge-tropical":
        return round(-math.log2(params.epsilon)) if params.epsilon else 0
    j = round(math.log2(params.k))
    if pair == "tropical-principal":
        return -j
    return 2 * j - 1 if j > 0 else -2 * j


def traced_loop(cli, workloads, wl, seconds: float, digests) -> dict:
    from spans import Tracer

    tracer = Tracer(keep=KEEP)
    self_ns, calls, kind_ops, counters, class_ns, class_ops = (Counter() for _ in range(6))
    plain_s = traced_s = root_ns = 0.0
    op_starts, failures = [], []
    ops = (op for ops_in_round in rounds_until(wl, seconds, lambda: plain_s + traced_s, 1)
           for op in ops_in_round)
    for op in ops:
        rc0, out0, dt0 = run_op(cli, op.argv)
        first = len(tracer.spans)
        with tracer:
            rc, out, dt = run_op(cli, op.argv)
        op_starts.append(first)
        plain_s += dt0
        traced_s += dt
        prof = tracer.op_profile(first)
        root_ns += sum(prof["roots"])
        problem = verify(workloads, op, rc, out, digests)
        if problem is None and (rc0, out0) != (rc, out):
            problem = "traced stdout differs from the untraced run"
        if problem is None and (len(prof["roots"]) != 1 or not prof["nested"]):
            problem = "spans are not nested under one cli.main span"
        if problem:
            failures.append(f"{' '.join(op.argv)}: {problem}")
        self_ns.update(prof["self_ns"])
        calls.update(prof["calls"])
        kind_ops[op.kind] += 1
        if op.kind == "rank":
            counters["rank_principal_calls"] += prof["calls"].get("methods.principal_scores", 0)
        for idx, args, kwargs, result in tracer.kept:
            name = tracer.names[tracer.spans[idx][0]]
            if name == "methods.principal_scores":
                counters["iterations"] += result.iterations
            elif name == "analysis.monte_carlo_disagreement":
                counters["trials"] += result.trials
                counters["effective"] += result.effective
                counters["degenerate"] += result.degenerate
                counters["failures"] += result.failures
            elif name == "analysis.hadamard_trajectory":
                counters["unconverged"] += sum(1 for p in result if not p.converged)
            elif name == "witness.generate_witness":
                request = args[0]
                label = f"{request.pair.value}.n{request.n}"
                _, _, start, end = tracer.spans[idx]
                class_ns[label] += end - start
                class_ops[label] += 1
                counters["steps"] += _search_steps(request, result.parameters)
        tracer.kept.clear()

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl", op_starts)
    ops = len(op_starts)

    def per(total, count, scale=1.0):
        return total * scale / count if count else 0.0

    m = {f"{name}.self_ms": per(self_ns[name], ops, 1e-6) for name in SELF_MS}
    m.update({f"{name}.calls": per(calls[name], ops) for name in CALLS})
    m["methods.principal_scores.iterations"] = per(counters["iterations"], ops)
    m["methods.principal_scores.calls_per_rank_op"] = per(counters["rank_principal_calls"],
                                                          kind_ops["rank"])
    sim_ops = kind_ops["simulate"]
    m["analysis.simulate.effective_ratio"] = per(counters["effective"], counters["trials"])
    m["analysis.simulate.degenerate"] = per(counters["degenerate"], sim_ops)
    m["analysis.simulate.failures"] = per(counters["failures"], sim_ops)
    m["analysis.trajectory.unconverged_points"] = per(counters["unconverged"],
                                                      kind_ops["trajectory"])
    m["witness.search_steps"] = per(counters["steps"], kind_ops["witness"])
    for c in WITNESS_CLASSES:
        m[f"witness.generate_witness.{c}.ms"] = per(class_ns[c], class_ops[c], 1e-6)
    for layer in LAYERS:
        ns = sum(v for k, v in self_ns.items() if k.split(".")[0] == layer)
        m[f"layer.{layer}.self_ms"] = per(ns, ops, 1e-6)
    m["trace.untraced_op_ms"] = per(plain_s, ops, 1e3)
    m["trace.traced_op_ms"] = per(traced_s, ops, 1e3)
    m["trace.overhead_ms"] = per(traced_s - plain_s, ops, 1e3)
    m["trace.span_share"] = per(root_ns * 1e-9, traced_s)
    return {"attempted": ops, "failures": failures, "beyond_p90": None, "rounds": None,
            "metrics": m}


def worker(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from pairrank import cli

    digests = None
    if args.seed == workloads.DEFAULT_SEED:
        digests = json.loads(DIGESTS.read_text())["sha256"]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        os.chdir(workdir)
        wl = workloads.build(args.workload, args.seed)
        for op in wl.warmup:
            rc, out, _ = run_op(cli, op.argv)
            problem = verify(workloads, op, rc, out, None)
            if problem:
                sys.stderr.write(f"warm-up op {' '.join(op.argv)} failed: {problem}\n")
                return 1
        print("ready", flush=True)
        if args.setup_only:
            return 0
        loop = traced_loop if args.trace else timed_loop
        result = loop(cli, workloads, wl, args.seconds, digests)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


# -- parent: spawn workers, time their set-up, report ----------------------------


def spawn(cmd: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from spawn to ready, its result or None)."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=WORKER_ENV)
    timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
    timer.start()
    try:
        ready_line = proc.stdout.readline()
        ready = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or ready_line.strip() != "ready":
        raise RuntimeError(f"worker {cmd[3:]} exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + RUN_TIMEOUT_S
    cmd = [sys.executable, str(BENCH / "run.py"), "--worker", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        return spawn(cmd, deadline)[1]
    # the set-up-only workers run half before and half after the measured one,
    # so the median samples the machine across the whole run
    setup_only = cmd + ["--setup-only"]
    ready = [spawn(setup_only, deadline)[0] for _ in range(SETUP_RUNS // 2)]
    t, result = spawn(cmd, deadline)
    ready.append(t)
    ready += [spawn(setup_only, deadline)[0] for _ in range(SETUP_RUNS - len(ready))]
    result["metrics"]["setup_s"] = statistics.median(ready)
    return result


def record_digests() -> int:
    """Write bench/digests.json: stdout sha256 of every digested op on the default seed."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from pairrank import cli

    digests = {}
    OUT.mkdir(exist_ok=True)
    for name in WORKLOADS:
        workdir = tempfile.mkdtemp(prefix=f"digest-{name}-", dir=OUT)
        try:
            os.chdir(workdir)
            wl = workloads.build(name, workloads.DEFAULT_SEED)
            for op in wl.schedule:
                if op.digest:
                    rc, out, _ = run_op(cli, op.argv)
                    problem = workloads.check(op, rc, out)
                    if problem:
                        raise RuntimeError(f"{' '.join(op.argv)}: {problem}")
                    digests[" ".join(op.argv)] = hashlib.sha256(out.encode()).hexdigest()
        finally:
            os.chdir(ROOT)
            shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "sha256": digests},
                                  indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="record stdout digests of the default seed and exit")
    args = parser.parse_args()

    if not (ROOT / "src" / "pairrank" / "__init__.py").is_file():
        sys.stderr.write(f"no pairrank sources under {ROOT / 'src'}; "
                         "run from a checkout of the repository\n")
        return 2
    if args.worker:
        return worker(args)
    if args.record_digests:
        return record_digests()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            sys.stderr.write(f"{name}: {exc}\n")
            return 1
        attempted += result["attempted"]
        failed += len(result["failures"])
        for problem in result["failures"][:5]:
            sys.stderr.write(f"{name}: FAILED {problem}\n")
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in units.items():
            value = result["metrics"][metric]
            metrics[prefix + metric] = {"value": value, "unit": unit}
            print(f"{name:<9} {metric:<50} {value:14.6g} {unit}")
        rate = len(result["failures"]) / result["attempted"]
        print(f"{name:<9} {'error_rate':<50} {rate:14.6g} "
              f"({len(result['failures'])} of {result['attempted']} ops failed)")
        if result["beyond_p90"] is not None:
            print(f"{name:<9} {'samples':<50} {result['attempted']:14d} "
                  f"({result['beyond_p90']} beyond p90, {result['rounds']} rounds)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
