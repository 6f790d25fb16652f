import csv
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pairrank.core import (
    ComparisonMatrix,
    Ranking,
    Scale,
    ScoreVector,
    additive_matrix,
    is_strongly_transitive,
    load_matrix,
    matrix_from_upper_triangle,
    multiplicative_matrix,
    pair_index,
    perm_between,
    perm_inverse,
    rank_of,
    relabel,
    relabel_ranking,
    save_matrix,
    strongly_transitive_from_scores,
    to_additive,
    to_multiplicative,
    upper_triangle,
)
from pairrank.core import _RECIPROCITY_EXACT, _exp_stack, _parse_row, _skew, _triu
from pairrank.errors import InvalidMatrix, MatrixParseError, TieDetected


def test_additive_matrix_repairs_small_defects():
    raw = [[0.0, 1.0, -2.0], [-1.0 + 3e-10, 0.0, 0.5], [2.0, -0.5, 0.0]]
    m = additive_matrix(raw)
    assert np.array_equal(m.entries, -m.entries.T)
    assert m.scale is Scale.ADDITIVE


def test_additive_matrix_rejects_large_defects():
    raw = [[0.0, 1.0], [-0.8, 0.0]]
    with pytest.raises(InvalidMatrix, match="skew-symmetry defect"):
        additive_matrix(raw)


def test_additive_matrix_at_both_ends_of_the_float_range():
    # exactly skew pairs near +-max float and near or below the smallest normal float
    # come back unchanged, and a same-sign pair near the maximum is a defect,
    # not a warning
    big = np.finfo(float).max
    raw = [[0.0, big, -1e308, 3e-308], [-big, 0.0, 1e308, 5e-324],
           [1e308, -1e308, 0.0, -1.5e-323], [-3e-308, -5e-324, 1.5e-323, 0.0]]
    assert additive_matrix(raw).entries.tolist() == raw
    with pytest.raises(InvalidMatrix, match=r"skew-symmetry defect inf at entry \(1, 2\)"):
        additive_matrix([[0.0, 1e308], [1e308, 0.0]])


def test_additive_matrix_rejects_nonzero_diagonal():
    with pytest.raises(InvalidMatrix, match="diagonal"):
        additive_matrix([[0.5, 1.0], [-1.0, 0.0]])


def test_multiplicative_matrix_geometric_repair():
    raw = [[1.0, 1.57], [0.63, 1.0]]
    m = multiplicative_matrix(raw, reciprocity_tol=0.05)
    assert m.entries[0, 1] == pytest.approx(math.sqrt(1.57 / 0.63), abs=1e-15)
    assert m.entries[0, 1] * m.entries[1, 0] == 1.0


def test_multiplicative_matrix_rejects_nonpositive():
    with pytest.raises(InvalidMatrix, match="not strictly positive"):
        multiplicative_matrix([[1.0, -2.0], [0.5, 1.0]])


def test_multiplicative_matrix_rejects_reciprocity_violation():
    with pytest.raises(InvalidMatrix, match="reciprocity defect"):
        multiplicative_matrix([[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf])
def test_validators_reject_tolerance_that_passes_any_defect(tol):
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        additive_matrix([[0.0, 1.0], [-1.0, 0.0]], symmetry_tol=tol)
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        multiplicative_matrix([[1.0, 2.0], [0.5, 1.0]], reciprocity_tol=tol)


def test_matrix_entries_read_only():
    m = additive_matrix([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        m.entries[0, 1] = 5.0


def test_load_matrix_scale_header_and_fractions(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("# scale=additive\n0, 1/2, -1\n-1/2, 0, 2\n1, -2, 0\n")
    m = load_matrix(p)
    assert m.scale is Scale.ADDITIVE
    assert m.entries[0, 1] == 0.5


def test_load_matrix_default_scale_is_multiplicative(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n1/2,1\n")
    assert load_matrix(p).scale is Scale.MULTIPLICATIVE


def test_load_matrix_ragged_row_names_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n0.5,1,3\n")
    with pytest.raises(MatrixParseError, match=r"row 2 has 3 fields, expected 2"):
        load_matrix(p)


def test_load_matrix_bad_token_reports_line_and_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# scale=additive\n0,x\n-1,0\n")
    with pytest.raises(MatrixParseError, match=r"line 2, column 2"):
        load_matrix(p)


def test_load_matrix_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("\n\n")
    with pytest.raises(MatrixParseError, match="no matrix rows"):
        load_matrix(p)


def _reference_number(token: str, line: int, column: int) -> float:
    """The Fraction-based field parser that load_matrix ran on every field; the reference."""
    token = token.strip()
    if not token:
        raise MatrixParseError("empty field", line, column)
    try:
        if "/" not in token:
            return float(token)
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise MatrixParseError(f"cannot parse number {token!r}", line, column) from exc
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _reference_load(path) -> ComparisonMatrix:
    """load_matrix as it was with the reference parser: its header rule, no byte-order mark."""
    scale, rows = Scale.MULTIPLICATIVE, []
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if raw[0].lstrip().startswith("#"):
                header = ",".join(raw).lstrip("#").strip().lower()
                if header.startswith("scale="):
                    scale = Scale(header.split("=", 1)[1].strip())
                continue
            rows.append([_reference_number(tok, lineno, col + 1) for col, tok in enumerate(raw)])
    if scale is Scale.ADDITIVE:
        return additive_matrix(rows)
    return multiplicative_matrix(rows)


def _parses_as_the_reference(fields: list[str], line: int = 7) -> bool:
    """_parse_row gives the reference's bits, or its error message; True for values."""
    try:
        want = np.array([_reference_number(tok, line, col + 1) for col, tok in enumerate(fields)])
    except MatrixParseError as exc:
        with pytest.raises(MatrixParseError) as got:
            _parse_row(fields, line)
        assert str(got.value) == str(exc)
        return False
    assert np.array(_parse_row(fields, line)).tobytes() == want.tobytes()
    return True


_BIG = str(int(sys.float_info.max))
_FIELDS = [
    # plain fields go to float() either way
    "1", "-2.5", " 3 ", "\t4", "1_000", "١٢", "nan", "-inf", "1e400", "-1e400",
    "9007199254740993", "1" * 4301, "0x10", "", "   ", "\ufeff1",
    # ASCII fractions, which take int / int
    "3/2", "+3/2", "-3/2", "-0/5", "0/5", "3/0", "-7/0", "9007199254740993/1",
    "-9007199254740993/3", "18014398509481985/2", f"{_BIG}/1", f"-{_BIG}/1",
    f"{int(_BIG) + 2 ** 970}/1", f"{int(_BIG) + 2 ** 970 - 1}/1",
    "9" * 400 + "/7", "-" + "9" * 400 + "/3", "1/" + "9" * 400, "-1/" + "9" * 400,
    "7" * 400 + "/" + "3" * 399, "1/1" + "0" * 320, "3" * 330 + "/" + "7" * 20,
    "1" * 4301 + "/3", "3/" + "1" * 4301, "1" * 4300 + "/3",
    # everything else goes back to the reference, for its value or its error
    " 3/2", "3/2 ", " 3/2", "3/+2", "3/-2", "+-3/2", "1 /2", "1/ 2", "1_000/7",
    "1/1_000", "١/٢", "²/3", "3/²", "1/2/3", "/2", "2/", "1.5/2",
    "1e3/2", "nan/2", "\ufeff3/2",
]


def test_parse_row_matches_the_fraction_parser_bit_for_bit():
    values = [field for field in _FIELDS if _parses_as_the_reference([field])]
    assert len(values) > 30 and len(_FIELDS) - len(values) > 15
    # a bad field anywhere in a row keeps its column; good rows parse as one pass
    for k in range(len(_FIELDS)):
        _parses_as_the_reference(["1/3", "2"] + _FIELDS[k:k + 3])
    assert _parses_as_the_reference(values)


def test_load_matrix_matches_the_fraction_parser_on_every_reports_file(tmp_path, monkeypatch):
    # the benchmark's reports workload, seed 0: 256 matrices n = 4..64 and 288 4x4
    # ones, in both scales, with a quarter of their entries as fractions
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.chdir(tmp_path)
    import workloads
    workloads.build("reports", 0)
    files = sorted(tmp_path.glob("*.csv"))
    assert len(files) == 256 + 288
    for path in files:
        got, want = load_matrix(path), _reference_load(path)
        assert got.scale is want.scale and got.entries.tobytes() == want.entries.tobytes()


def test_load_matrix_quoted_and_empty_fields_match_the_reference(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text('1,"3/2"\n"2/3",1\n')
    assert load_matrix(p).entries.tobytes() == _reference_load(p).entries.tobytes()
    for text in ('1,"1,5"\n2/3,1\n', "1,3/2\n,1\n", '1,""\n2/3,1\n', "1, 3/2\n2/3,1/0\n"):
        p.write_text(text)
        with pytest.raises(MatrixParseError) as want:
            _reference_load(p)
        with pytest.raises(MatrixParseError) as got:
            load_matrix(p)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("header", ["# scale=additive\n", ""])
def test_load_matrix_skips_a_byte_order_mark(tmp_path, header):
    p = tmp_path / "m.csv"
    body = "0,1/2,-1\n-1/2,0,2\n1,-2,0\n" if header else "1,2\n1/2,1\n"
    p.write_text("\ufeff" + header + body, encoding="utf-8")
    m = load_matrix(p)
    assert m.scale is (Scale.ADDITIVE if header else Scale.MULTIPLICATIVE)
    assert m.entries[0, 1] == (0.5 if header else 2.0)


@pytest.mark.parametrize("text, line", [
    ("# scale=additive\n0,1,-1\n-1,0,2\n1,-2,0\n# scale=multiplicative\n", 5),
    ("0,1\n# scale=additive\n-1,0\n", 2),
    ("# scale=additive\n# comment\n# scale=additive\n0,1\n-1,0\n", 3),
])
def test_load_matrix_refuses_a_late_or_second_scale_header(tmp_path, text, line):
    p = tmp_path / "m.csv"
    p.write_text(text)
    with pytest.raises(MatrixParseError, match=rf"scale header .*\(line {line}\)") as exc:
        load_matrix(p)
    assert exc.value.line == line


def test_save_load_round_trip(tmp_path, rand_add):
    rng = np.random.default_rng(5)
    m = rand_add(rng, 5)
    p = tmp_path / "m.csv"
    save_matrix(p, m)
    back = load_matrix(p)
    assert back.scale is Scale.ADDITIVE
    np.testing.assert_allclose(back.entries, m.entries, atol=1e-11)


def test_score_vector_normalizations():
    s = ScoreVector(np.array([3.0, 1.0, -1.0]), Scale.ADDITIVE)
    assert s.sum_zero().values.sum() == pytest.approx(0.0, abs=1e-15)
    assert s.first_unit().values[0] == 0.0
    x = s.as_multiplicative(base=2.0)
    assert x.scale is Scale.MULTIPLICATIVE
    np.testing.assert_allclose(x.values, [8.0, 2.0, 0.5])
    back = x.as_additive(base=2.0)
    np.testing.assert_allclose(back.values, s.values, atol=1e-12)
    g = x.sum_zero()
    assert np.prod(g.values) == pytest.approx(1.0, rel=1e-12)


def test_ranking_validation_and_strings():
    with pytest.raises(InvalidMatrix, match="not a permutation"):
        Ranking((1, 1, 2))
    r = Ranking.from_string("3>4>1>2")
    assert r.order == (3, 4, 1, 2)
    assert Ranking.from_string("3,4,1,2") == r
    assert str(r) == "3>4>1>2"


def test_rank_of_orders_descending_and_detects_ties():
    s = ScoreVector(np.array([0.1, 0.5, -0.2, 0.4]), Scale.ADDITIVE)
    assert rank_of(s) == Ranking((2, 4, 1, 3))
    tied = ScoreVector(np.array([0.1, 0.1 + 1e-12, 0.5]), Scale.ADDITIVE)
    with pytest.raises(TieDetected):
        rank_of(tied)


def test_perm_utilities_compose_and_invert():
    rng = np.random.default_rng(0)
    for _ in range(20):
        tau = tuple(int(v) + 1 for v in rng.permutation(5))
        sig = tuple(int(v) + 1 for v in rng.permutation(5))
        # tau, then its inverse, is the identity relabeling, and so is the reverse
        assert tuple(perm_inverse(tau)[t - 1] for t in tau) == tuple(range(1, 6))
        assert tuple(tau[t - 1] for t in perm_inverse(tau)) == tuple(range(1, 6))
        assert perm_inverse(perm_inverse(sig)) == sig


def test_perm_between_maps_source_to_target():
    src = Ranking((2, 3, 1, 4))
    dst = Ranking((4, 1, 3, 2))
    tau = perm_between(src, dst)
    assert relabel_ranking(src, tau) == dst


def test_relabel_conjugates_scores(rand_add):
    rng = np.random.default_rng(11)
    m = rand_add(rng, 5)
    tau = tuple(int(v) + 1 for v in rng.permutation(5))
    relabeled = relabel(m, tau)
    s = ScoreVector(m.entries.sum(axis=1), Scale.ADDITIVE)
    s_rel = ScoreVector(relabeled.entries.sum(axis=1), Scale.ADDITIVE)
    moved = np.empty(5)
    moved[np.asarray(tau) - 1] = s.values   # item tau(i) takes the score of item i
    np.testing.assert_allclose(moved, s_rel.values, atol=1e-12)
    assert relabel_ranking(rank_of(s), tau) == rank_of(s_rel)


def test_strongly_transitive_construction():
    s = ScoreVector(np.array([2.0, 0.5, -1.0, -1.5]), Scale.ADDITIVE)
    m = strongly_transitive_from_scores(s)
    assert is_strongly_transitive(m)
    assert m.entries[0, 2] == pytest.approx(3.0)
    assert not is_strongly_transitive(
        additive_matrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]))


def test_strongly_transitive_from_scores_refuses_ratios_out_of_float_range():
    s = ScoreVector(np.array([1e300, 1e-300, 1.0]), Scale.MULTIPLICATIVE)
    with pytest.raises(InvalidMatrix, match="^score ratios leave float range$"):
        strongly_transitive_from_scores(s)


def test_triu_indices_are_cached_and_read_only():
    iu, ju = _triu(5)
    assert _triu(5)[0] is iu
    expected = np.triu_indices(5, k=1)
    assert np.array_equal(iu, expected[0]) and np.array_equal(ju, expected[1])
    with pytest.raises(ValueError):
        iu[0] = 1


def test_upper_triangle_round_trip(rand_add):
    rng = np.random.default_rng(3)
    m = rand_add(rng, 6)
    u = upper_triangle(m)
    assert u.coords.shape == (15,)
    back = matrix_from_upper_triangle(u)
    np.testing.assert_array_equal(back.entries, m.entries)
    order = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    for idx, (i, j) in enumerate(order):
        assert pair_index(6, i, j) == idx
        assert u.coords[idx] == m.entries[i - 1, j - 1]


def test_scale_conversions_invert(rand_add):
    rng = np.random.default_rng(9)
    a = rand_add(rng, 4)
    x = to_multiplicative(a, base=3.0)
    assert x.scale is Scale.MULTIPLICATIVE
    assert np.all(x.entries > 0)
    back = to_additive(x, base=3.0)
    np.testing.assert_allclose(back.entries, a.entries, atol=1e-12)


def test_exp_stack_members_pass_the_multiplicative_checks():
    """Every member _exp_stack keeps for base e constructs as a ComparisonMatrix.

    This is why the Monte Carlo study hands those members to the Perron solver
    without the checks ComparisonMatrix makes.  The scan covers every float
    within 200,000 ulps of +-ln(max float), where the powers and their
    reciprocals leave float range, and random skew stacks whose entries reach
    +-1000.
    """
    edge = np.log(np.finfo(float).max)
    ulps = (np.array(edge).view(np.int64) + np.arange(-200_000, 200_001)).view(float)
    stacks = [_skew(np.concatenate([ulps, -ulps])[:, None], 2)]
    rng = np.random.default_rng(14)
    for n, size in ((3, 20_000), (4, 20_000), (8, 4_000)):
        magnitude = np.geomspace(1.0, 1000.0, size)[:, None]
        stacks.append(_skew(magnitude * rng.uniform(-1.0, 1.0, size=(size, n * (n - 1) // 2)), n))
    for a in stacks:
        x, finite = _exp_stack(a, math.e)
        assert 0 < x.shape[0] == np.count_nonzero(finite) < a.shape[0]
        assert np.isfinite(x).all() and (x > 0.0).all()
        assert (np.diagonal(x, axis1=1, axis2=2) == 1.0).all()
        defect = np.abs(x * np.swapaxes(x, 1, 2) - 1.0).max(axis=(1, 2))
        assert defect.max() <= _RECIPROCITY_EXACT
        for i in (0, int(defect.argmax()), x.shape[0] - 1):
            ComparisonMatrix(x[i], Scale.MULTIPLICATIVE)


def test_to_multiplicative_is_exp_stack_of_one(rand_add):
    a = rand_add(np.random.default_rng(5), 5)
    x, finite = _exp_stack(a.entries[None], 10.0)
    assert finite.tolist() == [True]
    assert to_multiplicative(a, base=10.0).entries.tobytes() == x[0].tobytes()
    with pytest.raises(InvalidMatrix, match="exponentiation overflowed"):
        to_multiplicative(matrix_from_upper_triangle([800.0]))
