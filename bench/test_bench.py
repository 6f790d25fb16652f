"""Tests of the benchmark itself.  Run with `python3 -m pytest bench`."""

import importlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

import pairrank  # noqa: E402
from pairrank import cli  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _build_in(directory: Path, monkeypatch, name: str, seed: int):
    directory.mkdir()
    monkeypatch.chdir(directory)
    return workloads.build(name, seed), _files(directory)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_for_a_seed(name, tmp_path, monkeypatch):
    first = _build_in(tmp_path / "a", monkeypatch, name, 7)
    again = _build_in(tmp_path / "b", monkeypatch, name, 7)
    other = _build_in(tmp_path / "c", monkeypatch, name, 8)
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_round_holds_the_same_mix_on_inputs_of_its_own(name, tmp_path, monkeypatch):
    wl, _ = _build_in(tmp_path / name, monkeypatch, name, 5)
    mixes = {tuple(sorted(op.label for op in r)) for r in wl.rounds}
    assert len(mixes) == 1
    argvs = [op.argv for op in wl.schedule]
    assert len(set(argvs)) == len(argvs)
    assert {op.kind for op in wl.warmup} == {op.kind for op in wl.schedule}


def test_digests_cover_every_digested_op_of_the_default_seed(tmp_path, monkeypatch):
    recorded = json.loads(run.DIGESTS.read_text())
    assert recorded["seed"] == workloads.DEFAULT_SEED
    keys = set()
    for name in workloads.WORKLOADS:
        wl, _ = _build_in(tmp_path / name, monkeypatch, name, workloads.DEFAULT_SEED)
        keys |= {" ".join(op.argv) for op in wl.schedule if op.digest}
    assert keys == set(recorded["sha256"])


def _namespaces():
    return [pairrank] + [importlib.import_module(f"pairrank.{layer}") for layer in LAYERS]


def test_tracing_leaves_stdout_unchanged_and_unwraps(tmp_path, monkeypatch):
    before = [dict(vars(ns)) for ns in _namespaces()]
    original_solve = pairrank.analysis.tropical_solve
    tracer = Tracer()
    seen_kinds = set()
    for name in workloads.WORKLOADS:
        wl, _ = _build_in(tmp_path / name, monkeypatch, name, 3)
        ops = [op for op in wl.schedule[:60] if (op.kind, op.label) not in seen_kinds]
        ops = [op for op in ops if op.label != "hodge-principal.n5"]
        for op in ops:
            seen_kinds.add((op.kind, op.label))
            rc0, out0, _ = run.run_op(cli, op.argv)
            first = len(tracer.spans)
            with tracer:
                assert pairrank.analysis.tropical_solve is not original_solve
                rc1, out1, _ = run.run_op(cli, op.argv)
            assert (rc1, out1) == (rc0, out0), op.argv
            assert workloads.check(op, rc1, out1) is None, op.argv
            prof = tracer.op_profile(first)
            assert prof["nested"] and len(prof["roots"]) == 1
            assert sum(prof["self_ns"].values()) == prof["roots"][0]
            assert prof["calls"]["cli.main"] == 1
    names = {tracer.names[s[0]] for s in tracer.spans}
    assert {n.split(".")[0] for n in names} == set(LAYERS)
    after = [dict(vars(ns)) for ns in _namespaces()]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)


@pytest.mark.parametrize("count", range(run.MIN_OPS, run.MIN_OPS + 40))
def test_min_ops_leaves_ten_samples_beyond_p90(count):
    samples = [float(i) for i in range(count)]
    p90 = statistics.quantiles(samples, n=10)[-1]
    assert sum(1 for x in samples if x > p90) >= 10


def test_a_timed_run_has_ten_samples_beyond_p90(tmp_path, monkeypatch):
    wl, _ = _build_in(tmp_path / "reports", monkeypatch, "reports", 1)
    result = run.timed_loop(cli, workloads, wl, 0.0, None)
    assert result["attempted"] >= run.MIN_OPS
    assert result["attempted"] == result["rounds"] * len(wl.rounds[0])
    assert result["beyond_p90"] >= 10
    assert result["failures"] == []


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "simulate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
