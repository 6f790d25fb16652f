"""Seeded inputs, op schedules and output checks for the benchmark workloads.

An op is one `pairrank` command line.  `build(name, seed)` writes the
workload's input files into the current directory and returns its warm-up ops
and the rounds the timed loop cycles through.  Every round of a workload holds
the same mix of op classes, each on inputs of its own, so a run made of whole
rounds has the same mix on every seed.  The same seed gives the same files and
the same rounds.  `check(op, rc, stdout)` returns None for a
correct output, otherwise the reason it is wrong.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pairrank import (
    Ranking,
    hodge_scores,
    load_matrix,
    principal_scores,
    rank_of,
    to_additive,
    tropical_solve,
)
from pairrank.errors import PairrankError

WORKLOADS = ("simulate", "witness", "reports")

# Seed on which stdout digests are compared with bench/digests.json.
DEFAULT_SEED = 0

SIM_TRIALS = 50
SIM_ROUNDS = 120
WITNESS_PAIRS = ("hodge-tropical", "hodge-principal", "tropical-principal")
WITNESS_NS = (4, 5)
WITNESS_ROUNDS = 60
REPORT_NS = (4, 8, 16, 64)
REPORT_ROUNDS = 32
CLASSIFY_FILES = 9


@dataclass(frozen=True)
class Op:
    kind: str                 # subcommand
    label: str                # op class, for per-class breakdowns
    argv: tuple[str, ...]
    digest: bool = False      # stdout compared with the recorded digest on DEFAULT_SEED


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    warmup: tuple[Op, ...]
    rounds: tuple[tuple[Op, ...], ...]

    @property
    def schedule(self) -> tuple[Op, ...]:
        return tuple(op for r in self.rounds for op in r)


def build(name: str, seed: int) -> Workload:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    make = {"simulate": _simulate, "witness": _witness, "reports": _reports}[name]
    warmup, rounds = make(rng)
    return Workload(name, seed, tuple(warmup), tuple(tuple(r) for r in rounds))


# -- simulate ------------------------------------------------------------------


def _simulate(rng):
    # stperp noise leaves the hodge scores equal to the true scores, so distinct,
    # well separated scores keep almost every trial off the tie path
    steps = rng.uniform(0.5, 1.0, size=6)
    scores = rng.permutation(np.concatenate([[0.0], np.cumsum(steps[:-1])]))
    configs = [
        ("gaussian-n4", ["--n", "4"]),
        ("gaussian-n8", ["--n", "8"]),
        ("stperp-n6", ["--n", "6", "--noise", "stperp",
                       "--scores", ",".join(f"{v:.3f}" for v in scores)]),
    ]
    # a fresh simulation seed for every op: the cost of an op varies with its
    # draws, so a run samples many of them rather than cycling a few
    seeds = rng.integers(0, 2**31, size=(SIM_ROUNDS, len(configs)))
    rounds = [
        [Op("simulate", label,
            ("simulate", *flags, "--trials", str(SIM_TRIALS), "--seed", str(s), "--jobs", "1"),
            digest=True)
         for s, (label, flags) in zip(row, configs)]
        for row in seeds.tolist()
    ]
    return rounds[0], rounds


# -- witness -------------------------------------------------------------------


def _ranking(rng, n: int) -> str:
    return ">".join(str(int(i) + 1) for i in rng.permutation(n))


def _witness_op(rng, pair: str, n: int, stem: str) -> Op:
    sigma1 = _ranking(rng, n)
    sigma2 = sigma1
    while sigma2 == sigma1:
        sigma2 = _ranking(rng, n)
    return Op("witness", f"{pair}.n{n}", (
        "witness", "--pair", pair, "--n", str(n), "--sigma1", sigma1,
        "--sigma2", sigma2, "--out", f"{stem}.csv", "--report", f"{stem}.json"))


def _witness(rng):
    combos = list(itertools.product(WITNESS_PAIRS, WITNESS_NS))
    # every round holds each (pair, n) once; the order within a round and the
    # rankings come from the seed
    rounds = [[_witness_op(rng, *combos[c], f"w{r}_{c}") for c in rng.permutation(len(combos))]
              for r in range(WITNESS_ROUNDS)]
    # each constructor once on its cheap n = 4 path
    warmup = [_witness_op(rng, pair, 4, f"warmup_{pair}") for pair in WITNESS_PAIRS]
    return warmup, rounds


# -- reports -------------------------------------------------------------------


def _primes(below: int) -> np.ndarray:
    sieve = np.ones(below, dtype=bool)
    sieve[:2] = False
    for k in range(2, int(below ** 0.5) + 1):
        if sieve[k]:
            sieve[k * k::k] = False
    return np.flatnonzero(sieve)


# Denominators for fraction entries.  Each is used once per matrix, so no two
# exact entries, and no two sums of them, coincide: exactly equal path sums
# would tie two items' tropical scores, which the program rightly reports as
# a degenerate ranking (exit 2).
_DENOMINATORS = _primes(5000)[4:]


def _write_matrix(path: str, a: np.ndarray, multiplicative: bool, rng) -> None:
    """Write a as CSV in either scale, with about a quarter of the entries as fractions."""
    n = a.shape[0]
    cells = [["1" if multiplicative else "0"] * n for _ in range(n)]
    iu, ju = np.triu_indices(n, 1)
    values = np.exp(a[iu, ju]) if multiplicative else a[iu, ju]
    exact = np.flatnonzero(rng.random(len(iu)) < 0.25)[:len(_DENOMINATORS)]
    denominators = np.zeros(len(iu), dtype=int)
    denominators[exact] = rng.permutation(_DENOMINATORS)[:len(exact)]
    numerators = np.rint(values * denominators).astype(int)
    for i, j, value, p, q in zip(iu, ju, values.tolist(), numerators.tolist(),
                                 denominators.tolist()):
        if p:
            up, down = f"{p}/{q}", (f"{q}/{p}" if multiplicative else f"{-p}/{q}")
        else:
            up = repr(value)
            # repr(-x) is "-" + repr(x), so only the multiplicative inverse needs a repr
            down = repr(1.0 / value) if multiplicative else (up[1:] if value < 0 else "-" + up)
        cells[i][j], cells[j][i] = up, down
    header = "# scale=multiplicative" if multiplicative else "# scale=additive"
    Path(path).write_text(header + "\n" + "\n".join(",".join(r) for r in cells) + "\n")


def _random_additive(rng, n: int, noise: float) -> np.ndarray:
    s = rng.normal(0.0, 1.0, size=n)
    g = np.triu(rng.normal(0.0, noise, size=(n, n)), 1)
    return s[:, None] - s[None, :] + g - g.T


def _reports(rng):
    # each round is the same mix of 50 ops on files of its own, so a run
    # averages over many matrices: trajectory time varies widely from matrix
    # to matrix
    rounds = []
    for r in range(REPORT_ROUNDS):
        ops = []
        rounds.append(ops)
        for n in REPORT_NS:
            for scale in ("additive", "multiplicative"):
                path = f"m{n}_{scale}_{r}.csv"
                _write_matrix(path, _random_additive(rng, n, 0.5), scale == "multiplicative", rng)
                for fmt in ("json", "table", "csv"):
                    ops.append(Op("rank", f"rank-{fmt}.n{n}",
                                  ("rank", path, "--format", fmt), digest=True))
                ops.append(Op("trajectory", f"trajectory.n{n}", ("trajectory", path)))
        for j in range(CLASSIFY_FILES):
            path = f"c4_{r}_{j}.csv"
            _write_matrix(path, _random_additive(rng, 4, 1.0), False, rng)
            for fmt in ("json", "table"):
                ops.append(Op("classify4", f"classify4-{fmt}",
                              ("classify4", path, "--format", fmt), digest=True))
    # every op class once on the smallest matrices
    warmup = [op for op in rounds[0]
              if op.label.endswith(".n4") or op.argv[1] == "c4_0_0.csv"]
    return warmup, rounds


# -- output checks -------------------------------------------------------------


def _flag(op: Op, name: str, default: str | None = None) -> str | None:
    argv = op.argv
    return argv[argv.index(name) + 1] if name in argv else default


def _order_error(scores, ranking: str, strict: bool) -> str | None:
    """The ranking must order the scores best first (strictly, if strict)."""
    order = [int(t) - 1 for t in ranking.split(">")]
    v = np.asarray(scores, dtype=float)
    if sorted(order) != list(range(len(v))):
        return f"ranking {ranking} is not a permutation of {len(v)} items"
    gaps = v[order[:-1]] - v[order[1:]]
    if np.any(gaps < 0) or (strict and np.any(gaps <= 0)):
        return f"ranking {ranking} does not follow the scores {list(v)}"
    return None


def _check_simulate(op: Op, out: str) -> str | None:
    rep = json.loads(out)
    trials = int(_flag(op, "--trials"))
    if rep["trials"] != trials:
        return f"trials {rep['trials']} != {trials}"
    if rep["effective"] != trials - rep["degenerate"] - rep["failures"]:
        return "effective != trials - degenerate - failures"
    if any(not 0 <= c <= rep["effective"] for c in rep["counts"].values()):
        return f"counts {rep['counts']} outside 0..effective"
    if _flag(op, "--noise") == "stperp" and 2 * rep["degenerate"] >= trials:
        return f"stperp op mostly degenerate ({rep['degenerate']}/{trials})"
    return None


def _check_witness(op: Op, out: str) -> str | None:
    report_file = Path(_flag(op, "--report"))
    if report_file.read_text() != out:
        return "report file differs from stdout"
    m = load_matrix(_flag(op, "--out"))
    first, second = _flag(op, "--pair").split("-")
    method = {
        "hodge": lambda: hodge_scores(m),
        "tropical": lambda: tropical_solve(to_additive(m)).eigenvector,
        "principal": lambda: principal_scores(m).eigenvector,
    }
    for name, flag in ((first, "--sigma1"), (second, "--sigma2")):
        got = rank_of(method[name]())
        if got != Ranking.from_string(_flag(op, flag)):
            return f"reloaded witness: {name} ranks {got}, wanted {_flag(op, flag)}"
    return None


def _check_rank(op: Op, out: str) -> str | None:
    fmt = _flag(op, "--format", "json")
    if fmt == "json":
        rep = json.loads(out)
        rows = [(rep["scores"][k], rep["rankings"][k]) for k in ("principal", "hodge", "tropical")]
    elif fmt == "csv":
        lines = out.splitlines()[1:]
        rows = [([float(v) for v in ln.split(",")[1:-1]], ln.split(",")[-1]) for ln in lines]
    else:
        lines = out.splitlines()[2:5]
        rows = [([float(v) for v in ln.split()[1:-1]], ln.split()[-1]) for ln in lines]
    if len(rows) != 3:
        return f"expected three methods, got {len(rows)}"
    for scores, ranking in rows:
        # table scores carry three decimals, which may tie
        err = _order_error(scores, ranking, strict=fmt != "table")
        if err:
            return err
    return None


def _check_classify4(op: Op, out: str) -> str | None:
    a = to_additive(load_matrix(op.argv[1])).entries
    if _flag(op, "--format") == "table":
        last = out.splitlines()[-1].split()
        lam, v, tol = float(last[2].rstrip(",")), np.array(last[4:], dtype=float), 5e-3
    else:
        rep = json.loads(out)["tropical"]
        lam, v, tol = rep["eigenvalue"], np.array(rep["eigenvector"]), 1e-9
    residual = float(np.max(np.abs(np.max(a + v[None, :], axis=1) - v - lam)))
    if residual > tol * max(1.0, float(np.max(np.abs(a)))):
        return f"closed form is not a max-plus eigenpair (residual {residual:.3g})"
    return None


def _check_trajectory(op: Op, out: str) -> str | None:
    lines = out.splitlines()
    if len(lines) != 61:
        return f"expected 60 points, got {len(lines) - 1}"
    ks = []
    for ln in lines[1:]:
        fields = ln.split(",")
        ks.append(float(fields[0]))
        if fields[-1] in ("failed", "tie"):
            continue
        v = [float(x) for x in fields[1:-1]]
        if v[0] != 1.0:
            return f"v is not normalized to v1 = 1 at k={fields[0]}"
        with np.errstate(divide="ignore"):   # components printed as 0 or inf
            err = _order_error(np.log(v), fields[-1], strict=False)
        if err:
            return err
    if np.any(np.diff(ks) <= 0):
        return "k grid is not increasing"
    return None


_CHECKS = {
    "simulate": _check_simulate,
    "witness": _check_witness,
    "rank": _check_rank,
    "classify4": _check_classify4,
    "trajectory": _check_trajectory,
}


def check(op: Op, rc, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _CHECKS[op.kind](op, out)
    except (PairrankError, ValueError, KeyError, IndexError, OSError) as exc:
        return f"unreadable output: {exc!r}"
