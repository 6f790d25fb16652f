import hashlib
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from pairrank import analysis
from pairrank.analysis import GaussianUpperTriangle
from pairrank.cli import main
from pairrank.core import ComparisonMatrix, Ranking, Scale, ScoreVector, load_matrix, rank_of, save_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- rank ----------------------------------------------------------------------


def test_rank_json_report(capsys, disagree_csv):
    code, out, _ = run(capsys, "rank", str(disagree_csv), "--reciprocity-tol", "0.05")
    assert code == 0
    report = json.loads(out)
    assert report["rankings"] == {
        "principal": "3>4>1>2", "hodge": "3>4>1>2", "tropical": "1>3>2>4"}
    np.testing.assert_allclose(report["scores"]["principal"],
                               [1.0, 0.9937, 1.1923, 1.1502], atol=5e-4)
    assert report["tropical"]["unique"] is True
    assert report["kendall_tau"]["hodge-tropical"] == 3
    assert report["consistency_index"] == pytest.approx(0.076369158, abs=1e-8)


def test_rank_rankings_recomputable_from_reported_scores(capsys, disagree_csv):
    _, out, _ = run(capsys, "rank", str(disagree_csv), "--reciprocity-tol", "0.05")
    report = json.loads(out)
    for name, expect in report["rankings"].items():
        s = ScoreVector(np.array(report["scores"][name]), Scale.MULTIPLICATIVE)
        assert str(rank_of(s)) == expect


def test_rank_output_is_reproducible(capsys, disagree_csv):
    _, out1, _ = run(capsys, "rank", str(disagree_csv), "--reciprocity-tol", "0.05")
    _, out2, _ = run(capsys, "rank", str(disagree_csv), "--reciprocity-tol", "0.05")
    assert out1 == out2


def test_rank_all_ties_exits_two(capsys, tmp_path):
    p = tmp_path / "ones.csv"
    p.write_text("1,1,1\n1,1,1\n1,1,1\n")
    code, _, err = run(capsys, "rank", str(p))
    assert code == 2
    assert "tied" in err


def test_rank_ragged_csv_names_the_row(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n0.5,1,9\n")
    code, _, err = run(capsys, "rank", str(p))
    assert code == 1
    assert "row 2" in err


def test_rank_reciprocity_violation_exits_one(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n2,1\n")
    code, _, err = run(capsys, "rank", str(p))
    assert code == 1
    assert "reciprocity defect" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_rank_rejects_tolerance_that_passes_any_defect(capsys, tmp_path, tol):
    # the defect at entry (1, 2) is 0.8; a NaN tolerance used to let it through
    p = tmp_path / "defect.csv"
    p.write_text("1,2,5,3\n0.1,1,4,2\n0.2,0.25,1,7\n0.333,0.5,0.142857,1\n")
    code, out, err = run(capsys, "rank", str(p), "--reciprocity-tol", tol)
    assert (code, out) == (1, "")
    assert err == f"error: tolerance must be a finite number >= 0; got {float(tol):g}\n"


def test_rank_refuses_a_principal_solve_it_cannot_certify(capsys, tmp_path):
    # the linear solve of this sd-30 draw stops after four steps on a vector whose
    # Collatz-Wielandt bounds are e^58 apart, and its ranking 2>5>3>4>1 is wrong
    a = GaussianUpperTriangle(30.0).draw(np.random.default_rng((1, 8)), 5)
    path = tmp_path / "sd30.csv"
    path.write_text("# scale=additive\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                                  for row in a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "rank", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: Perron solve not certified after 4 iterations")
    assert err.count("\n") == 1


@pytest.mark.parametrize("cell", ["1e400", "1" + "0" * 400 + "/3"], ids=["decimal", "fraction"])
def test_rank_cell_past_float_range_is_a_typed_error(capsys, tmp_path, cell):
    p = tmp_path / "huge.csv"
    p.write_text(f"# scale=additive\n0,{cell},1\n-{cell},0,1\n-1,-1,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "rank", str(p))
    assert (code, out, err) == (1, "", "error: entries must be finite\n")


def test_rank_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "rank", str(tmp_path / "nope.csv"))
    assert code == 1
    assert err


def test_rank_table_and_csv_formats(capsys, disagree_csv):
    code, out, _ = run(capsys, "rank", str(disagree_csv),
                       "--reciprocity-tol", "0.05", "--format", "table")
    assert code == 0
    assert "consistency index 0.076" in out
    code, out, _ = run(capsys, "rank", str(disagree_csv),
                       "--reciprocity-tol", "0.05", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,s1,s2,s3,s4,ranking"
    assert len(lines) == 4
    assert lines[3].startswith("tropical,") and lines[3].endswith("1>3>2>4")


def test_unknown_flag_exits_one(disagree_csv):
    with pytest.raises(SystemExit) as exc:
        main(["rank", str(disagree_csv), "--no-such-flag"])
    assert exc.value.code == 1


# Options a subcommand accepted without reading them, and --format choices it
# printed in another format; each is now a usage error.
_UNREAD_OPTIONS = [
    ("rank", ("--seed", "3")),
    ("rank", ("--jobs", "4")),
    ("witness", ("--scale", "additive")),
    ("witness", ("--reciprocity-tol", "0.05")),
    ("witness", ("--format", "table")),
    ("witness", ("--seed", "3")),
    ("witness", ("--jobs", "4")),
    ("classify4", ("--seed", "3")),
    ("classify4", ("--jobs", "4")),
    ("classify4", ("--format", "csv")),
    ("simulate", ("--scale", "additive")),
    ("simulate", ("--base", "10")),
    ("simulate", ("--reciprocity-tol", "0.05")),
    ("simulate", ("--format", "csv")),
    ("trajectory", ("--seed", "3")),
    ("trajectory", ("--jobs", "4")),
    ("trajectory", ("--format", "table")),
]


@pytest.mark.parametrize("command,option", _UNREAD_OPTIONS,
                         ids=[f"{c}{'='.join(o)}" for c, o in _UNREAD_OPTIONS])
def test_option_a_subcommand_does_not_read_is_a_usage_error(capsys, tmp_path, disagree_csv,
                                                            command, option):
    argv = {
        "rank": ["rank", str(disagree_csv), "--reciprocity-tol", "0.05"],
        "witness": ["witness", "--pair", "hodge-tropical", "--n", "4",
                    "--sigma1", "1>2>3>4", "--sigma2", "4>3>2>1",
                    "--out", str(tmp_path / "w.csv"), "--report", str(tmp_path / "w.json")],
        "classify4": ["classify4", str(disagree_csv), "--reciprocity-tol", "0.05"],
        "simulate": ["simulate", "--n", "4", "--trials", "20"],
        "trajectory": ["trajectory", str(disagree_csv), "--reciprocity-tol", "0.05",
                       "--points", "4"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *option])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: pairrank") and "error:" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_parser_reuse_matches_fresh_processes(capsys, disagree_csv):
    bad = ["rank", str(disagree_csv), "--no-such-flag"]
    good = ["rank", str(disagree_csv), "--reciprocity-tol", "0.05"]
    fresh = [subprocess.run([sys.executable, "-m", "pairrank.cli", *argv],
                            capture_output=True, text=True) for argv in (bad, good)]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    usage = capsys.readouterr()
    assert (exc.value.code, usage.out, usage.err) == (
        fresh[0].returncode, fresh[0].stdout, fresh[0].stderr)
    assert run(capsys, *good) == (fresh[1].returncode, fresh[1].stdout, fresh[1].stderr)


# -- witness -------------------------------------------------------------------


def test_witness_round_trips_through_rank(capsys, tmp_path):
    out_csv = tmp_path / "w.csv"
    report_json = tmp_path / "w.json"
    code, out, _ = run(capsys, "witness", "--pair", "hodge-tropical",
                       "--n", "4", "--sigma1", "1,2,3,4", "--sigma2", "4,3,2,1",
                       "--out", str(out_csv), "--report", str(report_json))
    assert code == 0
    report = json.loads(report_json.read_text())
    assert json.loads(out) == report
    assert report["verification"]["hodge"]["ranking"] == "1>2>3>4"
    assert report["verification"]["tropical"]["ranking"] == "4>3>2>1"

    code, out, _ = run(capsys, "rank", str(out_csv))
    assert code == 0
    ranked = json.loads(out)
    assert ranked["rankings"]["hodge"] == "1>2>3>4"
    assert ranked["rankings"]["tropical"] == "4>3>2>1"


def test_witness_small_n_exits_one_citing_requirement(capsys, tmp_path):
    code, _, err = run(capsys, "witness", "--pair", "hodge-tropical",
                       "--n", "3", "--sigma1", "1,2,3", "--sigma2", "3,2,1",
                       "--out", str(tmp_path / "w.csv"))
    assert code == 1
    assert "n >= 4" in err
    assert not (tmp_path / "w.csv").exists()


def test_witness_bad_sigma_leaves_no_files(capsys, tmp_path):
    out_csv = tmp_path / "w.csv"
    code, _, err = run(capsys, "witness", "--pair", "tropical-principal",
                       "--n", "4", "--sigma1", "1,2,3", "--sigma2", "4,3,2,1",
                       "--out", str(out_csv))
    assert code == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("pair", ["hodge-principal", "tropical-principal"])
@pytest.mark.parametrize("base", ["0.5", "1", "-2", "nan", "inf"])
@pytest.mark.parametrize("sigma2", ["4>3>2>1", "1>2>3>4"])
def test_witness_rejects_base_not_above_one(capsys, tmp_path, pair, base, sigma2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "witness", "--pair", pair, "--n", "4",
                             "--sigma1", "1>2>3>4", "--sigma2", sigma2,
                             "--base", base, "--out", str(tmp_path / "w.csv"))
    assert code == 1
    assert out == ""
    assert err == f"error: base must be a finite number above 1; got {float(base):g}\n"
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize("command", ["rank", "classify4", "trajectory"])
@pytest.mark.parametrize("base", ["0.5", "1", "-2", "nan", "inf"])
def test_matrix_commands_reject_base_not_above_one(capsys, disagree_csv, command, base):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, str(disagree_csv), "--reciprocity-tol", "0.05",
                             "--base", base)
    assert code == 1
    assert out == ""
    assert err == f"error: base must be a finite number above 1; got {float(base):g}\n"


def test_witness_base_overflowing_entries_is_a_typed_error(capsys, tmp_path):
    # the sigma1 == sigma2 shortcut builds sigma1's transitive matrix at k = 1 only,
    # and at base 1e300 its entries base^3 leave float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "witness", "--pair", "hodge-principal", "--n", "4",
                             "--sigma1", "1>2>3>4", "--sigma2", "1>2>3>4",
                             "--base", "1e300", "--out", str(tmp_path / "w.csv"))
    assert code == 1
    assert out == ""
    assert err == "error: base 1e+300 takes the witness entries out of float range\n"


@pytest.mark.parametrize("pair,base", [("hodge-principal", "1e300"),
                                       ("tropical-principal", "1e300"),
                                       ("tropical-principal", "1e200")])
def test_witness_base_past_float_range_at_k_one_searches_smaller_k(capsys, tmp_path,
                                                                   perron_ranking, pair, base):
    # the k = 1 matrix overflows, but every power is built from the log matrix,
    # so the search reaches the small k whose entries fit
    out_csv = tmp_path / "w.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "witness", "--pair", pair, "--n", "4",
                             "--sigma1", "1>2>3>4", "--sigma2", "4>3>2>1",
                             "--base", base, "--out", str(out_csv))
        assert (code, err) == (0, "")
        code, out, err = run(capsys, "rank", str(out_csv))
    assert (code, err) == (0, "")
    first, second = pair.split("-")
    rankings = json.loads(out)["rankings"]
    assert (rankings[first], rankings[second]) == ("1>2>3>4", "4>3>2>1")
    assert perron_ranking(load_matrix(out_csv).entries) == Ranking((4, 3, 2, 1))


def test_witness_with_entries_past_1e154_reloads(capsys, tmp_path):
    # the pair ratio X[i, j] / X[j, i] of a 1e228 entry overflows; the reload
    # takes the square roots first there
    out_csv = tmp_path / "w.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run(capsys, "witness", "--pair", "tropical-principal", "--n", "4",
                         "--sigma1", "2>3>4>1", "--sigma2", "2>3>4>1",
                         "--base", "1e76", "--out", str(out_csv))
        assert code == 0
        code, out, err = run(capsys, "rank", str(out_csv))
        assert (code, err) == (0, "")
        assert set(json.loads(out)["rankings"].values()) == {"2>3>4>1"}
        code, _, err = run(capsys, "trajectory", str(out_csv), "--k-max", "1", "--points", "3")
    assert (code, err) == (0, "")


def test_witness_tropical_principal_halves_k_past_overflowing_candidates(capsys, tmp_path):
    # at base 1e77 the transitive factor fits in float range but its product
    # with the perturbed matrix does not until k is small
    out_csv = tmp_path / "w.csv"
    code, out, err = run(capsys, "witness", "--pair", "tropical-principal", "--n", "5",
                         "--sigma1", "1>2>3>4>5", "--sigma2", "5>4>3>2>1",
                         "--base", "1e77", "--out", str(out_csv))
    assert code == 0
    assert err == ""
    assert json.loads(out)["parameters"]["k"] < 1.0
    code, out, _ = run(capsys, "rank", str(out_csv))
    assert code == 0
    rankings = json.loads(out)["rankings"]
    assert (rankings["tropical"], rankings["principal"]) == ("1>2>3>4>5", "5>4>3>2>1")


# sha256 of stdout and of the written matrix for `witness --pair hodge-principal`.
# The n = 4 requests settle at k = 2, 1 and 2; their digests were recorded when
# the Hadamard powers were still solved in the log domain.  At n = 5 with the
# default base the solver's triage drops k = 1 and 2 at step 64, and k = 1/2
# certifies after triage shifts it by its Perron root.  At n = 6 that shift lets
# the solve at k = 1 certify, where it used to run out of the verifier's 20,000
# iterations, so the search settles at k = 1, not 1/2.  With --base 100 the
# solves at k = 2 and 4 stop within three steps on vectors the Collatz-Wielandt
# certificate rejects, triage drops k = 1, 1/2 and 1/4, and the search settles
# at k = 1/8.  The n = 5 --base 1e4 request settles at k = 1/16: the solves at
# k = 1 and 2 stop uncertified and triage drops k = 1/2, 1/4 and 1/8.  The
# n = 7 --base 10 one settles at k = 1/2 after two solves that stop on
# uncertified vectors.  The stdout digests at n = 5, 6 and 7 were re-recorded
# when triage began to shift: the last digits of the principal scores moved,
# and at n = 6 the matrix and k too; every new principal ranking agrees with
# a 50-digit mpmath eigenvector.
_WITNESS_DIGESTS = [
    ("4", "1>4>3>2", "4>3>2>1", (),
     "103d9001f747149e1097aff32b4668892c2f910abd78cbe6a6f2ba7028178904",
     "8e994c1530723a88e047b3d2d27f28e4a335423711897731fa8ed3e506540afd"),
    ("4", "4>3>1>2", "4>2>3>1", (),
     "2760942a0086fa53a15f9c23746299568214e16242b80ffb13aacf3841db6b11",
     "d3dc1c32ca18da2472e2b58da4440882fcd5f48e2bab32ae86dd34378cdfc320"),
    ("4", "2>3>1>4", "4>2>1>3", (),
     "8ca895af5d6c1e738abd5fa6663554b5374cad58074954bda578a80daf37f4cf",
     "6e24eac1ca15310168aa0e3f927982c4a92d39f34a378f935cfa1e1afc1fd84e"),
    ("5", "5>3>2>1>4", "2>5>1>4>3", (),
     "d60a92f3a411d05ccf0d2725ccab543f6d64cbb37245189fb16fd458b26bae5b",
     "646d3dd10426a4cce39fe8159bc86a3cf904bc44de0241072cae8cabffad65ec"),
    ("5", "1>4>5>2>3", "5>1>2>3>4", ("--base", "100"),
     "ea68799280755b11515f4d52da9eb8fb5dd208695bb75b6b3e066117fe64d4b3",
     "df5e11c60bd7ecd1e84ba75fd04925a0f1297451686e1699c7f32ab11712e6bd"),
    ("6", "4>6>2>5>3>1", "5>3>2>4>6>1", (),
     "d35651671d48e15cafc3cf690b7c544c8a20dedd41e725ac2860ecb004bd371b",
     "73e67b288a1657f3e38dd4dff1b8708dfbe7b2de6c0d98768d46154c4ccb9bc8"),
    ("5", "3>1>5>2>4", "4>2>5>1>3", ("--base", "1e4"),
     "50ecabc01659511998abcf9a693e5d1125ffa00135b1efb4600e3f1ff220d0a1",
     "5204510ffd1fd0e6e0c02c73bacc0666dc5a135235742de32ed53fda39740570"),
    ("7", "7>4>6>5>1>2>3", "2>4>3>7>6>1>5", ("--base", "10"),
     "45a12b7da83d2d6a87fa91b535ecda6f86fa37be94888c4847004bf153451840",
     "ba0851bce86d57674a6d67f48436be592667d2152530393b5c249bc0acc3c830"),
]


@pytest.mark.parametrize("n,sigma1,sigma2,flags,stdout_digest,csv_digest", _WITNESS_DIGESTS,
                         ids=[f"n{n}-{s1}-{s2}{''.join(f)}" for n, s1, s2, f, *_ in _WITNESS_DIGESTS])
def test_witness_stdout_is_pinned(capsys, tmp_path, monkeypatch,
                                  n, sigma1, sigma2, flags, stdout_digest, csv_digest):
    monkeypatch.chdir(tmp_path)   # stdout names the matrix file
    code, out, _ = run(capsys, "witness", "--pair", "hodge-principal", "--n", n,
                       "--sigma1", sigma1, "--sigma2", sigma2, "--out", "w.csv", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256((tmp_path / "w.csv").read_bytes()).hexdigest() == csv_digest


# sha256 of stdout and of the written matrix for `witness --pair
# tropical-principal`, recorded while the verifier still solved its principal
# side without an iteration budget or a Collatz-Wielandt certificate.  The
# second request takes the sigma1 == sigma2 shortcut; at base 1e77 the k loop
# halves past candidates that leave float range.
_TROPICAL_PRINCIPAL_DIGESTS = [
    ("4", "2>4>1>3", "3>1>4>2", (),
     "646fadafc5e2d39e6450bcdbe4f041218553343eb71d2286177b22bd2add451c",
     "dc0d3c56e42f7e18f2d1cdd4af8786022ad10072ee0371314a5be77aa64e5261"),
    ("4", "1>2>3>4", "1>2>3>4", ("--base", "10"),
     "a75ba80ca6220e7d06610ffafd5a1ce3f1083081763fce80c7d5ee64829133ee",
     "50c30d16fe43d0a8d6f9a9c1c01360f72e13092a9cd44fc3d2327adf4c49b8ed"),
    ("5", "3>5>1>4>2", "4>1>2>5>3", ("--base", "1e4"),
     "abd52beb03c4a1a531c0d8450ffa6120ffcc957970362c2c4a8de146a832d64b",
     "57d4cf9dd19107f6c2c04164e9f25537dbc2fa9372df9f1c11b364785ce61a51"),
    ("5", "1>2>3>4>5", "5>4>3>2>1", ("--base", "1e77"),
     "2f3623375278f9b3a4152f14f1e071d9b58d906df239763d39599e1589953170",
     "c0ef41fd838f3abdc65a19508f638a3183cb48ab086737be254ebbafa78cb223"),
    ("6", "6>2>4>1>5>3", "2>3>6>5>1>4", ("--base", "10"),
     "c81592e8138a411cc0e15432383a245d4068b136fbecd416914ece2edbce317b",
     "c7ca243e302a019ada09da998cb37788a9a0ce53d996fcaba558376d9f9b4d9d"),
    ("4", "3>1>2>4", "2>4>3>1", ("--base", "1e77"),
     "e812d6b7318011f5c73761c57fa266bc3fb441dd44ca5fbef16908e513b7ca49",
     "5fdd402bab3450d5df7bea38d3b07b1a41d58e4a3c5c85f7f902c13205af6bc6"),
    ("7", "7>3>1>6>2>5>4", "1>5>7>2>4>3>6", (),
     "89be2b788f0f9435644b8e3e580fd1c6c2ffacc14aa81926b14ec9b9d8d3d23a",
     "c6b47e312c37126a001b8c673bd2c99daf10c899e9bd3b968359efc989afb008"),
    ("7", "4>7>2>5>1>6>3", "6>1>3>7>4>2>5", ("--base", "1e4"),
     "bf24aa6c56ffe2ceec4ee0b96d6255657242580d0447e1df0e9eafd349ac3810",
     "e9b4fa7da99e35ac71cf963d3b3708af562d20c7832441bb7f10aa73096be6ab"),
]


@pytest.mark.parametrize(
    "n,sigma1,sigma2,flags,stdout_digest,csv_digest", _TROPICAL_PRINCIPAL_DIGESTS,
    ids=[f"n{n}-{s1}-{s2}{''.join(f)}" for n, s1, s2, f, *_ in _TROPICAL_PRINCIPAL_DIGESTS])
def test_witness_tropical_principal_stdout_is_pinned(capsys, tmp_path, monkeypatch, n, sigma1,
                                                     sigma2, flags, stdout_digest, csv_digest):
    monkeypatch.chdir(tmp_path)   # stdout names the matrix file
    code, out, _ = run(capsys, "witness", "--pair", "tropical-principal", "--n", n,
                       "--sigma1", sigma1, "--sigma2", sigma2, "--out", "w.csv", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256((tmp_path / "w.csv").read_bytes()).hexdigest() == csv_digest


def test_witness_base_is_a_usage_error_for_hodge_tropical(capsys, tmp_path):
    code, out, err = run(capsys, "witness", "--pair", "hodge-tropical", "--n", "4",
                         "--sigma1", "1>2>3>4", "--sigma2", "4>3>2>1",
                         "--base", "10", "--out", str(tmp_path / "w.csv"))
    assert code == 1
    assert out == ""
    assert err == ("error: --base applies only to the multiplicative pairs "
                   "(hodge-principal, tropical-principal)\n")
    assert not (tmp_path / "w.csv").exists()


def test_json_paths_with_control_characters_read_back(capsys, tmp_path, disagree_csv):
    # a tab or newline in a path reached the JSON string unescaped
    matrix = tmp_path / "a\tb\nc.csv"
    matrix.write_text(disagree_csv.read_text())
    code, out, _ = run(capsys, "rank", str(matrix), "--reciprocity-tol", "0.05")
    assert code == 0
    assert json.loads(out)["input"] == str(matrix)

    out_csv = tmp_path / "w\tx\ny.csv"
    code, out, _ = run(capsys, "witness", "--pair", "hodge-tropical", "--n", "4",
                       "--sigma1", "1,2,3,4", "--sigma2", "4,3,2,1", "--out", str(out_csv))
    assert code == 0
    assert json.loads(out)["matrix_file"] == str(out_csv)


def test_witness_matrix_file_is_loadable(capsys, tmp_path):
    out_csv = tmp_path / "w.csv"
    code, _, _ = run(capsys, "witness", "--pair", "hodge-principal",
                     "--n", "4", "--sigma1", "2,1,4,3", "--sigma2", "3,4,1,2",
                     "--out", str(out_csv))
    assert code == 0
    m = load_matrix(out_csv)
    assert m.scale is Scale.MULTIPLICATIVE
    assert m.n == 4


# -- classify4 -----------------------------------------------------------------


def test_classify4_reports_region(capsys, disagree_csv):
    code, out, _ = run(capsys, "classify4", str(disagree_csv),
                       "--reciprocity-tol", "0.05")
    assert code == 0
    report = json.loads(out)
    assert report["region"] == "r1"
    assert report["tau"] == [1, 2, 3, 4]
    assert report["tropical"]["eigenvalue"] == pytest.approx(0.43535, abs=1e-5)


def test_classify4_table_is_pinned(capsys, disagree_csv):
    code, out, _ = run(capsys, "classify4", str(disagree_csv), "--reciprocity-tol", "0.05",
                       "--format", "table")
    assert code == 0
    assert out == (f"input: {disagree_csv}\n"
                   "region r1 (facet hexagon), critical cycle (2, 3, 4)\n"
                   "relabeling tau: (1, 2, 3, 4)\n"
                   "f original:  1.702 0.099 0.811\n"
                   "f canonical: 1.702 0.099 0.811\n"
                   "tropical eigenvalue 0.435, eigenvector 0.016 -0.005 0.005 -0.016\n")


def test_classify4_boundary_exits_two(capsys, tmp_path):
    p = tmp_path / "st.csv"
    p.write_text("# scale=additive\n0,1,2,3\n-1,0,1,2\n-2,-1,0,1\n-3,-2,-1,0\n")
    code, _, err = run(capsys, "classify4", str(p))
    assert code == 2
    assert "boundary" in err


# Entries of +-1e308 leave float range when a pair is differenced; entries of
# 5e307 pass the hodge sums and overflow the region inequalities' product.
_NEAR_MAX = {
    "alternating-1e308": "0,1e308,-1e308,1e308\n-1e308,0,1e308,-1e308\n"
                         "1e308,-1e308,0,1e308\n-1e308,1e308,-1e308,0\n",
    "upper-5e307": "0,5e307,5e307,5e307\n-5e307,0,5e307,5e307\n"
                   "-5e307,-5e307,0,5e307\n-5e307,-5e307,-5e307,0\n",
}


@pytest.mark.parametrize("name", sorted(_NEAR_MAX))
@pytest.mark.parametrize("command,message", [
    ("rank", "exponentiation overflowed; rescale the additive matrix first"),
    ("trajectory", "exponentiation overflowed; rescale the additive matrix first"),
    ("classify4", "region arithmetic leaves float range; rescale the additive matrix first"),
])
def test_matrix_commands_near_the_float_maximum_end_in_one_error_line(capsys, tmp_path, name,
                                                                     command, message):
    path = tmp_path / "near_max.csv"
    path.write_text("# scale=additive\n" + _NEAR_MAX[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, command, str(path)) == (1, "", f"error: {message}\n")


# The third draw of default_rng(3).  With --margin -1 the closed form took the
# region of relabeling (2,1,4,3) and eigenvalue 0.5517; the max-plus eigenvalue
# is 0.5861.  With --margin nan no region matched and RegionNotFound ended it;
# --margin inf was accepted.  The float maximum is a valid margin that clears
# no wall; margin * scale used to overflow outside np.errstate and warn.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("margin,want,message", [
    ("-1", 1, "margin must be a finite number >= 0; got -1\n"),
    ("nan", 1, "margin must be a finite number >= 0; got nan\n"),
    ("inf", 1, "margin must be a finite number >= 0; got inf\n"),
    (repr(sys.float_info.max), 2, "boundary result: input lies within "),
], ids=["-1", "nan", "inf", "float-max"])
def test_classify4_rejects_margin_below_zero_or_nan(capsys, tmp_path, margin, want, message):
    rng = np.random.default_rng(3)
    for _ in range(3):
        g = np.triu(rng.normal(size=(4, 4)), 1)
    path = tmp_path / "a.csv"
    save_matrix(path, ComparisonMatrix(g - g.T, Scale.ADDITIVE))
    code, out, _ = run(capsys, "classify4", str(path))
    assert code == 0
    assert json.loads(out)["tropical"]["eigenvalue"] == pytest.approx(0.5861247271)
    code, out, err = run(capsys, "classify4", str(path), "--margin", margin)
    assert (code, out) == (want, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


# -- simulate ------------------------------------------------------------------


def test_simulate_deterministic_across_jobs(capsys):
    args = ["simulate", "--n", "4", "--trials", "300", "--seed", "7"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    _, out3, _ = run(capsys, *args, "--jobs", "3")
    assert out1 == out2 == out3
    report = json.loads(out1)
    assert report["trials"] == 300
    assert report["counts"]["hodge-tropical"] > 0


# sha256 of the stdout of `simulate --n N --trials 10000 --seed 7`, recorded
# when every trial was still solved one at a time by the scalar solvers
_SIMULATE_DIGESTS = {
    4: "ded1de8e8953fdb6a6047e7aa9c13c684221aa9fd853838f626aeee4c09ed2d8",
    5: "1b47946213e5f0741105dab017987645dd080aa9c0936a95b68b38cc07d1ad76",
    8: "8376ec5586da46a7697aadfcac06281d43ff32847b7782484fa217548bc823f8",
}


@pytest.mark.parametrize("n", sorted(_SIMULATE_DIGESTS))
def test_simulate_stdout_is_pinned(capsys, n):
    code, out, _ = run(capsys, "simulate", "--n", str(n), "--trials", "10000", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SIMULATE_DIGESTS[n]


def test_simulate_three_items_all_rates_zero(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "3", "--trials", "200",
                       "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert all(v == 0 for v in report["rates"].values())


def test_simulate_table_format(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "4", "--trials", "50",
                       "--seed", "1", "--format", "table")
    assert code == 0
    assert "hodge-tropical" in out


def test_simulate_with_signal_and_stperp_noise(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "4", "--trials", "80",
                       "--seed", "3", "--noise", "stperp", "--halfwidth", "2.0",
                       "--scores", "1.5,0.5,-0.5,-1.5")
    assert code == 0
    report = json.loads(out)
    assert report["noise"] == {"kind": "stperp", "halfwidth": 2.0}
    assert report["degenerate"] + report["failures"] + report["effective"] == 80


@pytest.mark.parametrize("noise,flag", [("gaussian", "--sd"), ("stperp", "--halfwidth")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
def test_simulate_rejects_noise_parameter_not_finite_and_positive(capsys, noise, flag, value):
    code, out, err = run(capsys, "simulate", "--n", "4", "--trials", "5",
                         "--noise", noise, f"{flag}={value}")
    assert code == 1
    assert out == ""
    assert err == f"error: {flag[2:]} must be a finite number above 0; got {float(value):g}\n"


def test_simulate_rejects_a_negative_seed(capsys):
    code, out, err = run(capsys, "simulate", "--n", "4", "--trials", "5", "--seed", "-1")
    assert (code, out) == (1, "")
    assert err == "error: seed must be a non-negative integer; got -1\n"


def test_simulate_rejects_halfwidth_whose_draw_width_overflows(capsys):
    # 2 * halfwidth used to overflow inside Generator.uniform, an OverflowError traceback
    code, out, err = run(capsys, "simulate", "--n", "5", "--trials", "30",
                         "--noise", "stperp", "--halfwidth", "1e308")
    assert (code, out) == (1, "")
    assert err == ("error: halfwidth must be at most 8.98847e+307, so that the draw's "
                   "width is finite; got 1e+308\n")
    code, out, err = run(capsys, "simulate", "--n", "4", "--trials", "5",
                         "--noise", "stperp", "--halfwidth", repr(sys.float_info.max / 2))
    assert (code, err) == (0, "")


@pytest.mark.filterwarnings("error")
def test_simulate_rejects_scores_whose_differences_overflow(capsys):
    code, out, err = run(capsys, "simulate", "--n", "4", "--trials", "30",
                         "--scores", "1e308,0,0,-1e308")
    assert (code, out, err) == (1, "", "error: score differences leave float range\n")


def test_simulate_overflowing_trials_count_as_failures():
    # at sd 1e6 exponentiating a trial for the Perron method overflows
    proc = subprocess.run(
        [sys.executable, "-m", "pairrank.cli", "simulate", "--n", "5",
         "--trials", "50", "--sd", "1e6"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failures"] > 0
    assert proc.stderr == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n,trials,sd", [("4", "20", "1e308"), ("8", "200", "1e307")])
def test_simulate_draws_near_the_float_maximum_count_as_failures(capsys, n, trials, sd):
    # a draw that overflows to inf used to abort the run; a finite one near the
    # maximum made the hodge and tropical stages warn
    code, out, err = run(capsys, "simulate", "--n", n, "--trials", trials, "--sd", sd)
    assert (code, err) == (0, "")
    assert json.loads(out)["failures"] == int(trials)


# -- trajectory ----------------------------------------------------------------


def test_trajectory_csv_shape_and_endpoints(capsys, disagree_csv):
    code, out, _ = run(capsys, "trajectory", str(disagree_csv),
                       "--reciprocity-tol", "0.05",
                       "--k-min", "1", "--k-max", "60", "--points", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,v1,v2,v3,v4,ranking"
    assert len(lines) == 13
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert first[1] == "1"
    assert first[-1] == "3>4>1>2"
    assert lines[-1].split(",")[-1] == "1>3>2>4"


def test_trajectory_reproducible(capsys, disagree_csv):
    args = ["trajectory", str(disagree_csv), "--reciprocity-tol", "0.05",
            "--points", "20"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# sha256 of `trajectory` stdout as CSV and as --format json, recorded when each
# grid point was still solved on its own by a scalar log-domain iteration.  The
# seeded matrices are scores plus noise; in "8t" item 2 copies item 1, so every
# point ties.
_TRAJECTORY_DIGESTS = [
    ("4x4", (),
     "5c9be7e11ced52067622b551f41c30ee3c0ff6627e821f6c54257a0fd206debc",
     "3e38c315162d9298e6d877a3b5ec6459d6bfc31b1312c64efc5ea242126d68db"),
    ("8", (),
     "ca84c9ef49ae6d168f8e1eaac75c05429dd615f96bb1c8898147993ede443da5",
     "c22effe5cc53f0b0020125ba0359acc9012cb03d985fdb43aa21b89dab0752fa"),
    ("8t", (),
     "c032d965c2f4933251b5d77e153607607fef8fe0e580106ac520ff3d2c6fe217",
     "c0e212e4f3b24de5d09db36c07650dc96f033b7ea34078c4149a93d974dbecaf"),
    ("16", ("--points", "200"),
     "763593ebb64860b429b284fb2dc9b551e23ff401f48aaadf6044d5912def93be",
     "657f8036aa7334aa0caea8f63bda6add010a80067d54252c2c35f742b4e373da"),
    ("64", (),
     "08a60d67db0fc1b56c6480742ce4a5005b1686d9e775792ce9a243ad07910e1c",
     "51ee2da880ae937ab8b2f9c57643abae1c64a51bb73691f20218ea043b3aa520"),
]


@pytest.mark.parametrize("name,flags,csv_digest,json_digest", _TRAJECTORY_DIGESTS,
                         ids=[name for name, *_ in _TRAJECTORY_DIGESTS])
def test_trajectory_stdout_is_pinned(capsys, tmp_path, disagree_csv,
                                     name, flags, csv_digest, json_digest):
    if name == "4x4":
        path, flags = str(disagree_csv), ("--reciprocity-tol", "0.05", *flags)
    else:
        n = int(name.rstrip("t"))
        rng = np.random.default_rng(n)
        s = rng.normal(0.0, 1.0, size=n)
        g = np.triu(rng.normal(0.0, 0.5, size=(n, n)), 1)
        a = s[:, None] - s[None, :] + g - g.T
        if name.endswith("t"):
            a[1], a[:, 1] = a[0], a[:, 0]
        path = str(tmp_path / "m.csv")
        save_matrix(path, ComparisonMatrix(a, Scale.ADDITIVE))
    for fmt, digest in (((), csv_digest), (("--format", "json"), json_digest)):
        code, out, _ = run(capsys, "trajectory", path, *flags, *fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_trajectory_reports_an_unconverged_point(capsys, monkeypatch, disagree_csv):
    args = ["trajectory", str(disagree_csv), "--reciprocity-tol", "0.05",
            "--k-min", "1", "--k-max", "4", "--points", "3"]
    _, csv_ok, _ = run(capsys, *args)
    _, json_ok, _ = run(capsys, *args, "--format", "json")
    real = analysis._log_perron_batch

    def second_point_fails(*solve_args):
        vectors, converged = real(*solve_args)
        converged[1] = False
        return vectors, converged

    monkeypatch.setattr(analysis, "_log_perron_batch", second_point_fails)
    code, out, _ = run(capsys, *args)
    assert code == 0
    lines, lines_ok = out.splitlines(), csv_ok.splitlines()
    k = lines_ok[2].split(",")[0]
    assert lines == lines_ok[:2] + [f"{k},,,,,failed"] + lines_ok[3:]
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    points, points_ok = json.loads(out), json.loads(json_ok)
    assert points[1] == {"k": float(k), "v": None, "ranking": None, "converged": False}
    assert points[::2] == points_ok[::2]


def test_trajectory_out_of_memory_is_one_error_line(capsys, disagree_csv):
    # numpy refuses the 72.8 TiB grid at once, so nothing is allocated
    code, out, err = run(capsys, "trajectory", str(disagree_csv), "--reciprocity-tol", "0.05",
                         "--points", "10000000000000")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "72.8 TiB" in err


def test_trajectory_grid_validation(capsys, disagree_csv):
    code, _, err = run(capsys, "trajectory", str(disagree_csv),
                       "--reciprocity-tol", "0.05", "--k-min", "-1")
    assert code == 1
    assert "k-min" in err or "k_min" in err or "positive" in err.lower() or "need" in err
    # a bound that is not finite is rejected before np.geomspace can warn on it
    for bound in (("--k-max", "inf"), ("--k-max", "nan"), ("--k-min", "nan")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "trajectory", str(disagree_csv),
                                 "--reciprocity-tol", "0.05", *bound)
        assert (code, out) == (1, "")
        assert err == "error: need finite 0 < k-min < k-max and at least two points\n"


_MULTIPLICATIVE_4X4 = "1,2,0.5,4\n0.5,1,3,0.25\n2,0.3333333333333333,1,2\n0.25,4,0.5,1\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k_max", ["1e308", repr(sys.float_info.max)])
def test_trajectory_grid_past_float_range_is_one_error_line(capsys, tmp_path, k_max):
    # 2 k max|log x| overflows: the grid used to warn, then run every step on NaN
    # (reporting failed points) or on overflowed powers (reporting a ranking)
    path = tmp_path / "x.csv"
    path.write_text(_MULTIPLICATIVE_4X4)
    code, out, err = run(capsys, "trajectory", str(path), "--k-min", "1", "--k-max", k_max,
                         "--points", "4")
    assert (code, out) == (1, "")
    assert err == ("error: k_grid reaches log powers that leave float range; "
                   "lower the largest k\n")


# -- the option contract -------------------------------------------------------


_ADDITIVE_4X4 = ("# scale=additive\n"
                 "0,0.3,-1.7,2.9\n-0.3,0,1.1,-0.6\n1.7,-1.1,0,0.45\n-2.9,0.6,-0.45,0\n")


# Every float option at the ends of its range: each run exits 0, 1 or 2, with
# nothing on stderr on success and one error line otherwise, and no warning.
_OPTION_RUNS = {
    "rank": ["rank", "{mult}"],
    "classify4": ["classify4", "{add}"],
    "trajectory": ["trajectory", "{mult}", "--points", "4"],
    "simulate": ["simulate", "--n", "4", "--trials", "20"],
    "simulate-stperp": ["simulate", "--n", "4", "--trials", "20", "--noise", "stperp"],
    "witness-hodge-principal": ["witness", "--pair", "hodge-principal", "--n", "4",
                                "--sigma1", "1,2,3,4", "--sigma2", "2,1,4,3", "--out", "{out}"],
    "witness-tropical-principal": ["witness", "--pair", "tropical-principal", "--n", "4",
                                   "--sigma1", "1,2,3,4", "--sigma2", "2,1,4,3",
                                   "--out", "{out}"],
}
_FLOAT_OPTIONS = [("rank", "--base={}"), ("rank", "--reciprocity-tol={}"),
                  ("classify4", "--base={}"), ("classify4", "--reciprocity-tol={}"),
                  ("classify4", "--margin={}"),
                  ("trajectory", "--base={}"), ("trajectory", "--reciprocity-tol={}"),
                  ("trajectory", "--k-min={}"), ("trajectory", "--k-max={}"),
                  ("simulate", "--sd={}"), ("simulate", "--scores=0,1,2,{}"),
                  ("simulate-stperp", "--halfwidth={}"),
                  ("witness-hodge-principal", "--base={}"),
                  ("witness-tropical-principal", "--base={}")]
_EXTREMES = ["nan", "inf", "-inf", "-1", "0", "5e-324", repr(sys.float_info.max)]


@pytest.mark.parametrize("value", _EXTREMES)
@pytest.mark.parametrize("command,option", _FLOAT_OPTIONS,
                         ids=[f"{c}{o.split('=')[0]}" for c, o in _FLOAT_OPTIONS])
def test_every_float_option_at_its_extremes_keeps_the_exit_contract(capsys, tmp_path,
                                                                     command, option, value):
    files = {"mult": tmp_path / "x.csv", "add": tmp_path / "a.csv", "out": tmp_path / "w.csv"}
    files["mult"].write_text(_MULTIPLICATIVE_4X4)
    files["add"].write_text(_ADDITIVE_4X4)
    argv = [arg.format(**files) for arg in _OPTION_RUNS[command]] + [option.format(value)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:   # an argparse usage error: usage line, then error line
            code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert err.count("\n") == (1 if err.startswith("error: ") else 2)
        assert err.splitlines()[-1].startswith(("error: ", "pairrank "))


# -- module entry point --------------------------------------------------------


def test_module_invocation(disagree_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "pairrank.cli", "rank", str(disagree_csv),
         "--reciprocity-tol", "0.05"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rankings"]["tropical"] == "1>3>2>4"
