import collections
import math
from fractions import Fraction

import numpy as np
import pytest

from pairrank import methods, witness
from pairrank.core import (
    Ranking,
    Scale,
    is_strongly_transitive,
    rank_of,
    to_additive,
)
from pairrank.errors import (
    ConstructionFailed,
    InvalidPerturbation,
    KExhausted,
    NoConvergence,
    TieDetected,
    VerificationFailed,
)
from pairrank.methods import (
    hadamard_power,
    hodge_scores,
    principal_scores,
    tropical_solve,
)
from pairrank.witness import (
    Pair,
    PerturbationSpec,
    WitnessRequest,
    base_hodge_zero_tropical_generic,
    default_perturbation,
    generate_witness,
    perturbed_closed_form,
    perturbed_entries,
    perturbed_matrix,
    witness_hodge_principal,
    witness_hodge_tropical,
    witness_tropical_principal,
)


def random_ranking(rng: np.random.Generator, n: int) -> Ranking:
    return Ranking(tuple(int(v) + 1 for v in rng.permutation(n)))


@pytest.mark.parametrize("pair", list(Pair))
def test_search_solves_the_accepted_matrix_once_per_method(monkeypatch, pair):
    # the verifier is the search's acceptance test, so nothing solves the
    # returned matrix again after it
    calls = collections.Counter()

    def counting(solver):
        def counted(m, *args, **kwargs):
            calls[solver.__name__, m.entries.tobytes()] += 1
            return solver(m, *args, **kwargs)
        return counted

    for name in ("hodge_scores", "tropical_solve", "principal_scores"):
        monkeypatch.setattr(witness, name, counting(getattr(witness, name)))
    req = WitnessRequest(5, pair, Ranking.from_string("1>2>3>4>5"),
                         Ranking.from_string("5>4>3>2>1"))
    m = generate_witness(req).matrix
    keys = {"hodge": ("hodge_scores", m.entries.tobytes()),
            "tropical": ("tropical_solve", to_additive(m).entries.tobytes()),
            "principal": ("principal_scores", m.entries.tobytes())}
    assert [calls[keys[method]] for method in pair.methods] == [1, 1]


def test_hodge_principal_builds_its_base_once(monkeypatch):
    built = []
    real = witness.base_hodge_zero_tropical_generic
    monkeypatch.setattr(witness, "base_hodge_zero_tropical_generic",
                        lambda n: built.append(n) or real(n))
    req = WitnessRequest(4, Pair.HODGE_PRINCIPAL, Ranking.from_string("1>4>3>2"),
                         Ranking.from_string("4>3>2>1"))
    generate_witness(req)
    assert built == [4]


# -- request validation --------------------------------------------------------


def test_request_rejects_small_n():
    with pytest.raises(ValueError, match=r"n >= 4"):
        WitnessRequest(3, Pair.HODGE_TROPICAL, Ranking((1, 2, 3)), Ranking((3, 2, 1)))


def test_request_rejects_mismatched_rankings():
    with pytest.raises(ValueError):
        WitnessRequest(4, Pair.HODGE_TROPICAL, Ranking((1, 2, 3)), Ranking((4, 3, 2, 1)))


# -- the flat-scores base matrix -----------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_base_matrix_has_zero_hodge_and_tiefree_tropical(n):
    a = base_hodge_zero_tropical_generic(n)
    assert np.max(np.abs(hodge_scores(a).values)) < 1e-12
    sol = tropical_solve(a)
    assert sol.unique
    rank_of(sol.eigenvector)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_base_matrix_cycle_is_critical(n):
    a = base_hodge_zero_tropical_generic(n)
    e = a.entries
    cycle = [e[i, i + 1] for i in range(n - 1)] + [e[n - 1, 0]]
    assert all(w > 0 for w in cycle)
    mu = float(np.mean(cycle))
    sol = tropical_solve(a)
    assert sol.eigenvalue == pytest.approx(mu, abs=1e-12)
    row_argmax = np.argmax(e, axis=1)
    expected = [(i + 1) % n for i in range(n)]
    assert list(row_argmax) == expected


def test_base_matrix_deterministic():
    a1 = base_hodge_zero_tropical_generic(5)
    a2 = base_hodge_zero_tropical_generic(5)
    np.testing.assert_array_equal(a1.entries, a2.entries)


# -- hodge vs tropical ---------------------------------------------------------


def test_hodge_tropical_opposite_rankings():
    req = WitnessRequest(4, Pair.HODGE_TROPICAL,
                         Ranking((1, 2, 3, 4)), Ranking((4, 3, 2, 1)))
    res = witness_hodge_tropical(req)
    assert res.verification.ranking1 == req.sigma1
    assert res.verification.ranking2 == req.sigma2
    assert rank_of(hodge_scores(res.matrix)) == req.sigma1
    assert rank_of(tropical_solve(res.matrix).eigenvector) == req.sigma2


def test_hodge_tropical_shortcut_when_rankings_agree():
    sigma = Ranking((2, 4, 1, 3))
    req = WitnessRequest(4, Pair.HODGE_TROPICAL, sigma, sigma)
    res = witness_hodge_tropical(req)
    assert is_strongly_transitive(res.matrix)
    assert res.verification.ranking1 == sigma
    assert res.verification.ranking2 == sigma


@pytest.mark.parametrize("n", [4, 5, 6])
def test_hodge_tropical_random_requests(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(12):
        req = WitnessRequest(n, Pair.HODGE_TROPICAL,
                             random_ranking(rng, n), random_ranking(rng, n))
        res = witness_hodge_tropical(req)
        assert res.verification.ranking1 == req.sigma1
        assert res.verification.ranking2 == req.sigma2


def test_hodge_tropical_deterministic():
    req = WitnessRequest(5, Pair.HODGE_TROPICAL,
                         Ranking((2, 5, 1, 4, 3)), Ranking((3, 1, 4, 5, 2)))
    m1 = witness_hodge_tropical(req).matrix
    m2 = witness_hodge_tropical(req).matrix
    np.testing.assert_array_equal(m1.entries, m2.entries)


# -- hodge vs principal --------------------------------------------------------


def test_hodge_principal_opposite_rankings_records_k():
    req = WitnessRequest(4, Pair.HODGE_PRINCIPAL,
                         Ranking((1, 2, 3, 4)), Ranking((4, 3, 2, 1)))
    res = witness_hodge_principal(req)
    assert res.matrix.scale is Scale.MULTIPLICATIVE
    assert res.parameters.k is not None and res.parameters.k > 0
    assert res.verification.ranking1 == req.sigma1
    assert res.verification.ranking2 == req.sigma2


def test_hodge_principal_hodge_ranking_stable_under_squaring():
    req = WitnessRequest(4, Pair.HODGE_PRINCIPAL,
                         Ranking((2, 1, 4, 3)), Ranking((3, 4, 1, 2)))
    res = witness_hodge_principal(req)
    squared = hadamard_power(res.matrix, 2.0)
    assert rank_of(hodge_scores(squared)) == req.sigma1
    assert rank_of(hodge_scores(res.matrix)) == req.sigma1


def test_hodge_principal_shortcut():
    sigma = Ranking((3, 1, 4, 2))
    res = witness_hodge_principal(
        WitnessRequest(4, Pair.HODGE_PRINCIPAL, sigma, sigma))
    assert is_strongly_transitive(to_additive(res.matrix))
    assert res.verification.ranking1 == sigma


@pytest.mark.parametrize("n", [4, 5])
def test_hodge_principal_random_requests(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(6):
        req = WitnessRequest(n, Pair.HODGE_PRINCIPAL,
                             random_ranking(rng, n), random_ranking(rng, n))
        res = witness_hodge_principal(req)
        assert res.verification.ranking1 == req.sigma1
        assert res.verification.ranking2 == req.sigma2


# The n = 5 requests of test_cli.py's pinned witness digests. With the default
# base the solver's triage drops k = 1 and 2, whose solves otherwise run out of
# iterations. With base 100 it drops k = 1, 1/2 and 1/4; the solves at k = 2
# and 4 stop within three steps, before triage, on vectors the Collatz-Wielandt
# check rejects.
@pytest.mark.parametrize("sigma1,sigma2,base", [
    ((5, 3, 2, 1, 4), (2, 5, 1, 4, 3), math.e),
    ((1, 4, 5, 2, 3), (5, 1, 2, 3, 4), 100.0),
])
def test_hodge_principal_skips_only_probes_that_fail(monkeypatch, sigma1, sigma2, base):
    """Every Hadamard power the solver's triage drops fails certification anyway."""
    solves, dropped, verifying = {}, set(), []

    def record_solve(y, **kwargs):
        assert verifying, "the search solves a power outside the verifier"
        try:
            sol = principal_scores(y, **kwargs)
        except NoConvergence as exc:
            solves[y.entries.tobytes()] = None
            if exc.iterations == methods._TRIAGE_STEP:
                dropped.add(y.entries.tobytes())
            raise
        v = sol.eigenvector.values
        solves[y.entries.tobytes()] = np.ptp(np.log(y.entries @ v / v))
        return sol

    def verify(y, req):
        verifying.append(y)
        try:
            return real_verify(y, req)
        finally:
            verifying.pop()

    real_verify = witness._verify
    monkeypatch.setattr(witness, "principal_scores", record_solve)
    monkeypatch.setattr(witness, "_verify", verify)
    req = WitnessRequest(5, Pair.HODGE_PRINCIPAL, Ranking(sigma1), Ranking(sigma2))
    triaged = witness_hodge_principal(req, base=base)
    solves.clear()
    monkeypatch.setattr(methods, "_TRIAGE_STEP", 0)   # a step the solver never reaches
    untriaged = witness_hodge_principal(req, base=base)

    assert untriaged.parameters == triaged.parameters
    assert untriaged.matrix.entries.tobytes() == triaged.matrix.entries.tobytes()
    skipped = [spread for y, spread in solves.items() if y in dropped]
    assert skipped
    for spread in skipped:
        assert spread is None or spread > methods._CW_SPREAD


# -- the perturbed matrix family -----------------------------------------------


def test_perturbed_entries_match_published_pattern():
    spec = PerturbationSpec(4, Fraction(2), (Fraction(3, 2), Fraction(2), Fraction(1, 4)))
    rows = perturbed_entries(spec)
    assert rows[0] == [1, Fraction(3, 2), 2, Fraction(1, 2)]
    assert rows[1][3] == 2 and rows[2][3] == 2
    assert rows[3][0] == 2
    for i in range(4):
        for j in range(4):
            assert rows[i][j] * rows[j][i] == 1


def test_default_perturbation_matches_published_example():
    spec = default_perturbation(4)
    assert spec.delta == (Fraction(3, 2), Fraction(2), Fraction(1, 4))


@pytest.mark.parametrize("n", range(4, 13))
def test_default_perturbation_valid_through_n_12(n):
    spec = default_perturbation(n)
    mids = spec.delta[:-1]
    assert all(mids[i] < mids[i + 1] for i in range(len(mids) - 1))
    assert mids[-1] == spec.L
    assert spec.delta[-1] == 1 / spec.L ** 2


def test_perturbation_spec_validation():
    with pytest.raises(InvalidPerturbation):
        PerturbationSpec(4, Fraction(2), (Fraction(2), Fraction(3, 2), Fraction(1, 4)))
    with pytest.raises(InvalidPerturbation):
        PerturbationSpec(4, Fraction(2), (Fraction(3, 2), Fraction(2), Fraction(1, 3)))
    with pytest.raises(InvalidPerturbation):
        PerturbationSpec(4, Fraction(1, 2), (Fraction(3, 2), Fraction(2), Fraction(4)))


def test_perturbed_matrix_has_constant_tropical_eigenvector():
    x = perturbed_matrix(default_perturbation(5))
    sol = tropical_solve(to_additive(x))
    spread = np.ptp(sol.eigenvector.values)
    assert spread < 1e-12


def test_perturbed_closed_form_reference_values():
    eig = perturbed_closed_form(default_perturbation(4))
    assert eig.r == pytest.approx(4.510062106840737, abs=1e-12)
    assert eig.v.values[0] == pytest.approx((eig.r - 3.0) * eig.r, abs=1e-10)
    diffs = np.abs(eig.v.values[:, None] - eig.v.values[None, :])
    assert np.min(diffs[np.triu_indices(4, 1)]) > 1e-6


@pytest.mark.parametrize("n", [4, 5, 6])
def test_perturbed_closed_form_matches_dense_eigensolver(n):
    spec = default_perturbation(n)
    eig = perturbed_closed_form(spec)
    x = perturbed_matrix(spec)
    w, vecs = np.linalg.eig(x.entries)
    top = int(np.argmax(w.real))
    dense = np.real(vecs[:, top])
    dense = dense / dense[0]
    np.testing.assert_allclose(eig.v.values / eig.v.values[0], dense, atol=1e-10)
    assert eig.r == pytest.approx(float(np.max(w.real)), abs=1e-10)


# -- tropical vs principal -----------------------------------------------------


def test_tropical_principal_published_example():
    req = WitnessRequest(4, Pair.TROPICAL_PRINCIPAL,
                         Ranking((2, 1, 4, 3)), Ranking((3, 4, 1, 2)))
    res = witness_tropical_principal(req)
    assert res.verification.ranking1 == req.sigma1
    assert res.verification.ranking2 == req.sigma2
    assert rank_of(tropical_solve(to_additive(res.matrix)).eigenvector) == req.sigma1
    assert rank_of(principal_scores(res.matrix).eigenvector) == req.sigma2


def test_tropical_principal_ranking_stable_across_log_bases():
    req = WitnessRequest(4, Pair.TROPICAL_PRINCIPAL,
                         Ranking((4, 2, 3, 1)), Ranking((1, 2, 3, 4)))
    res = witness_tropical_principal(req)
    for base in (2.0, 10.0):
        sol = tropical_solve(to_additive(res.matrix, base=base))
        assert rank_of(sol.eigenvector) == req.sigma1


def test_tropical_principal_shortcut():
    sigma = Ranking((4, 1, 3, 2))
    res = witness_tropical_principal(
        WitnessRequest(4, Pair.TROPICAL_PRINCIPAL, sigma, sigma))
    assert is_strongly_transitive(to_additive(res.matrix))


@pytest.mark.parametrize("n", [4, 5])
def test_tropical_principal_random_requests(n):
    rng = np.random.default_rng(80 + n)
    for _ in range(8):
        req = WitnessRequest(n, Pair.TROPICAL_PRINCIPAL,
                             random_ranking(rng, n), random_ranking(rng, n))
        res = witness_tropical_principal(req)
        assert res.verification.ranking1 == req.sigma1
        assert res.verification.ranking2 == req.sigma2


# -- dispatcher ----------------------------------------------------------------


def test_generate_witness_dispatches_each_pair():
    rng = np.random.default_rng(99)
    for pair in Pair:
        req = WitnessRequest(4, pair, random_ranking(rng, 4), random_ranking(rng, 4))
        res = generate_witness(req)
        assert res.request is req
        m1, m2 = pair.methods
        assert res.verification.method1 == m1
        assert res.verification.method2 == m2


@pytest.mark.parametrize("pair,error,message", [
    (Pair.HODGE_TROPICAL, ConstructionFailed,
     "construction failed at stage 'epsilon': no epsilon down to 2^-60 worked"),
    (Pair.HODGE_PRINCIPAL, KExhausted, "exponent schedule exhausted at 1.15292e+18"),
    (Pair.TROPICAL_PRINCIPAL, KExhausted, "exponent schedule exhausted at 8.67362e-19"),
], ids=[p.value for p in Pair])
def test_exhausted_search_names_its_schedule(monkeypatch, pair, error, message):
    """A search whose every candidate the verifier rejects ends in its own typed error."""
    real = witness._verify

    def reject(matrix, req):
        if req.pair is pair:
            raise VerificationFailed("rejected")
        return real(matrix, req)

    monkeypatch.setattr(witness, "_verify", reject)
    with pytest.raises(error) as info:
        generate_witness(WitnessRequest(4, pair, Ranking((1, 2, 3, 4)), Ranking((4, 3, 2, 1))))
    assert str(info.value) == message
