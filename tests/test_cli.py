import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from pairrank.cli import main
from pairrank.core import Ranking, Scale, ScoreVector, load_matrix, rank_of


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


def test_classify4_boundary_exits_two(capsys, tmp_path):
    p = tmp_path / "st.csv"
    p.write_text("# scale=additive\n0,1,2,3\n-1,0,1,2\n-2,-1,0,1\n-3,-2,-1,0\n")
    code, _, err = run(capsys, "classify4", str(p))
    assert code == 2
    assert "boundary" in err


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


def test_simulate_overflowing_trials_count_as_failures():
    # at sd 1e6 exponentiating a trial for the Perron method overflows
    proc = subprocess.run(
        [sys.executable, "-m", "pairrank.cli", "simulate", "--n", "5",
         "--trials", "50", "--sd", "1e6"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failures"] > 0
    assert proc.stderr == ""


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


def test_trajectory_grid_validation(capsys, disagree_csv):
    code, _, err = run(capsys, "trajectory", str(disagree_csv),
                       "--reciprocity-tol", "0.05", "--k-min", "-1")
    assert code == 1
    assert "k-min" in err or "k_min" in err or "positive" in err.lower() or "need" in err


# -- module entry point --------------------------------------------------------


def test_module_invocation(disagree_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "pairrank.cli", "rank", str(disagree_csv),
         "--reciprocity-tol", "0.05"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rankings"]["tropical"] == "1>3>2>4"
