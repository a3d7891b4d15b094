"""Tests for the command-line interface."""

import io
import json
import math

import numpy as np
import pytest

import sector_radius as sr
from sector_radius.cli import main
from sector_radius.matrixio import matrix_document, parse_matrix_document, to_json

SHIFT_DOC = '{"n": 2, "entries": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}'


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_radius_of_shift(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(SHIFT_DOC)
    code, out, _ = run_cli(capsys, ["radius", "--in", str(path)])
    assert code == 0
    assert json.loads(out)["w"] == pytest.approx(0.5, abs=1e-10)


def test_radius_from_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["radius", "--in", "-"],
                           stdin=SHIFT_DOC, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["w"] == pytest.approx(0.5, abs=1e-10)


def test_extremal_ratio_round_trip(tmp_path, capsys):
    path = tmp_path / "a.json"
    code, out, _ = run_cli(capsys, ["extremal", "--alpha",
                                    "1.5707963267948966", "--out", str(path)])
    assert code == 0 and out == ""
    code, out, _ = run_cli(capsys, ["ratio", "--in", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] == pytest.approx(math.sqrt(2), abs=1e-8)
    assert payload["ok"] is True
    assert payload["alpha_min"] == pytest.approx(math.pi / 2, abs=1e-9)


def test_norm_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(SHIFT_DOC)
    code, out, _ = run_cli(capsys, ["norm", "--in", str(path)])
    assert code == 0
    assert json.loads(out)["norm"] == pytest.approx(1.0, abs=1e-12)


def test_infeasible_three_by_three_exit_one(capsys):
    code, out, err = run_cli(capsys, ["three-by-three", "--d", "0.25",
                                      "--b1", "0.1", "--b2", "0"])
    assert code == 1
    assert "18*d^2 + sqrt(2*(12*d^2+b1)^2 + 2*b2^2) <= 1" in err


def test_malformed_json_exit_two(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["radius", "--in", "-"],
                           stdin='{"n": 2, "entries": [[', monkeypatch=monkeypatch)
    assert code == 2
    assert "malformed JSON" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_result_exit_one(capsys, monkeypatch):
    # finite entries whose Hermitian part overflows: w is nan, which has no
    # JSON form, so the command fails instead of printing it
    big = '[1e308, 0]'
    doc = f'{{"n": 2, "entries": [[{big}, {big}], [{big}, {big}]]}}'
    code, out, err = run_cli(capsys, ["radius", "--in", "-"], stdin=doc,
                             monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert "not finite" in err


def test_radius_near_overflow(capsys, monkeypatch):
    # T + T* overflows here, but (T + T*) / 2 and w(T) are representable
    big = '[1e308, 0]'
    doc = f'{{"n": 2, "entries": [[{big}, {big}], [[0, 0], [0, 0]]]}}'
    code, out, _ = run_cli(capsys, ["radius", "--in", "-"], stdin=doc,
                           monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["w"] == pytest.approx(
        1e308 * ((1 + math.sqrt(2)) / 2), rel=1e-14)


@pytest.mark.parametrize("t", [[[1, 1], [0, 1]],
                               [[1, 1, 0], [0, 1, 0], [0, 0, 1]]],
                         ids=["2x2", "3x3"])
def test_sector_answers_near_overflow(tmp_path, capsys, t):
    # W(T) is the disk of radius 1e308 / 2 about 1e308, which lies in the
    # sector of half-angle pi/6 and in no smaller one; ||T||_F overflows
    path = tmp_path / "big.json"
    path.write_text(to_json(matrix_document(1e308 * np.array(t))))
    cases = {"sector": ["--alpha", "0.5"], "sector-angle": [],
             "ratio": [], "certify": ["--alpha", "0.5"]}
    out = {}
    for command, extra in cases.items():
        code, text, _ = run_cli(capsys, [command, "--in", str(path), *extra])
        assert code == 0
        out[command] = json.loads(text)
    assert out["sector"]["contained"] is False
    assert out["sector-angle"]["alpha"] == pytest.approx(math.pi / 6,
                                                         abs=1e-15)
    assert out["ratio"]["alpha_min"] == pytest.approx(math.pi / 6, abs=1e-12)
    assert out["ratio"]["ok"] is True
    assert out["certify"]["verdict"] == "not_in_sector"


def test_boolean_entries_exit_two(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["radius", "--in", "-"],
                             stdin='{"n": 1, "entries": [[[true, false]]]}',
                             monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert "pair of reals" in err


def test_bad_document_exit_two(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["radius", "--in", "-"],
                           stdin='{"n": 2, "entries": [[[0, 0]]]}',
                           monkeypatch=monkeypatch)
    assert code == 2
    assert "row" in err


def test_unknown_command_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_boundary_csv(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(SHIFT_DOC)
    code, out, _ = run_cli(capsys, ["boundary", "--m", "4", "--in", str(path)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,re,im"
    assert len(lines) == 5
    for line in lines[1:]:
        _, re_s, im_s = line.split(",")
        assert math.hypot(float(re_s), float(im_s)) == pytest.approx(
            0.5, abs=1e-9)


def test_boundary_overflow_exit_one(tmp_path, capsys):
    # w(T) exceeds the largest double, so the rows at theta = 0 and pi
    # overflow; the CSV writer refuses them as the JSON writer does
    path = tmp_path / "big.json"
    path.write_text(to_json(matrix_document(
        [[1.7e308, 1.7e308], [0.0, -1.7e308]])))
    code, out, err = run_cli(capsys, ["boundary", "--m", "8", "--in",
                                      str(path)])
    assert code == 1
    assert out == ""
    assert "not finite" in err


def test_boundary_m_too_small_exit_one(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(SHIFT_DOC)
    code, _, err = run_cli(capsys, ["boundary", "--m", "2", "--in", str(path)])
    assert code == 1
    assert "3" in err


def test_sector_and_sector_angle(tmp_path, capsys):
    path = tmp_path / "e.json"
    run_cli(capsys, ["extremal", "--alpha", str(math.pi / 4),
                     "--out", str(path)])
    code, out, _ = run_cli(capsys, ["sector", "--in", str(path),
                                    "--alpha", str(math.pi / 4)])
    assert code == 0 and json.loads(out)["contained"] is True
    code, out, _ = run_cli(capsys, ["sector", "--in", str(path),
                                    "--alpha", str(math.pi / 6)])
    assert code == 0 and json.loads(out)["contained"] is False
    code, out, _ = run_cli(capsys, ["sector-angle", "--in", str(path)])
    assert code == 0
    assert json.loads(out)["alpha"] == pytest.approx(math.pi / 4, abs=1e-9)


def test_sector_angle_null_for_non_accretive(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(SHIFT_DOC)
    code, out, _ = run_cli(capsys, ["sector-angle", "--in", str(path)])
    assert code == 0
    assert json.loads(out)["alpha"] is None


def test_ellipse_command(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["ellipse", "--in", "-"],
                           stdin=SHIFT_DOC, monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["minor_axis_length"] == pytest.approx(1.0, abs=1e-12)
    assert payload["focus1"] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_ellipse_command_thin_disk(capsys, monkeypatch):
    # W(T) is the disk of radius 5e-9 about 1: the minor axis is 1e-8
    doc = to_json(matrix_document(np.array([[1.0, 1e-8], [0.0, 1.0]])))
    code, out, _ = run_cli(capsys, ["ellipse", "--in", "-"],
                           stdin=doc, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["minor_axis_length"] == pytest.approx(
        1e-8, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("scale", [1e-200, 1e200, 1e308])
def test_ellipse_command_out_of_square_range(capsys, monkeypatch, scale):
    # squares of these entries under- or overflow unless the matrix is
    # rescaled before the closed forms; at 1e308 the scale is 2^1023, so
    # twice the scale overflows
    doc = to_json(matrix_document(scale * np.array([[1.0, 1.0], [0.0, 0.3]])))
    code, out, _ = run_cli(capsys, ["ellipse", "--in", "-"],
                           stdin=doc, monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    expected = {"focus1": [0.3 * scale, 0.0], "focus2": [scale, 0.0],
                "minor_axis_length": scale}
    for key, value in expected.items():
        assert payload[key] == pytest.approx(value, rel=1e-14, abs=0.0)


def test_canonical_b_command(capsys):
    code, out, _ = run_cli(capsys, ["canonical-b", "--alpha",
                                    str(math.pi / 2)])
    assert code == 0
    payload = json.loads(out)
    assert payload["norm"] == pytest.approx(math.sqrt(3), abs=1e-12)
    assert payload["attaining_vector"] == pytest.approx(
        [math.sqrt(3) / 2, 0.5], abs=1e-12)
    entries = payload["matrix"]["entries"]
    assert entries[0][0][0] == pytest.approx(2 / math.sqrt(3), abs=1e-12)


def test_canonical_b_command_out_file(tmp_path, capsys):
    path = tmp_path / "b.json"
    code, out, _ = run_cli(capsys, ["canonical-b", "--alpha",
                                    str(math.pi / 2), "--out", str(path)])
    assert code == 0
    np.testing.assert_allclose(parse_matrix_document(path.read_text()),
                               sr.canonical_b(math.pi / 2).matrix, atol=1e-15)
    payload = json.loads(out)
    assert sorted(payload) == ["attaining_vector", "norm"]
    assert payload["norm"] == pytest.approx(math.sqrt(3), abs=1e-12)


def test_canonical_b_command_out_stdout(capsys):
    # like every matrix-emitting command: the document line, then the
    # extra fields
    code, out, _ = run_cli(capsys, ["canonical-b", "--alpha",
                                    str(math.pi / 2), "--out", "-"])
    assert code == 0
    doc, extra = out.splitlines()
    np.testing.assert_allclose(parse_matrix_document(doc),
                               sr.canonical_b(math.pi / 2).matrix, atol=1e-15)
    assert sorted(json.loads(extra)) == ["attaining_vector", "norm"]


def test_r_family_command(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, ["r-family", "--r", "2", "--theta", "0",
                                  "--alpha", str(math.pi / 6),
                                  "--out", str(path)])
    assert code == 0
    t = parse_matrix_document(path.read_text())
    np.testing.assert_allclose(t, [[2, 1], [0, 0.5]], atol=1e-12)


def test_r_family_bad_parameters_exit_one(capsys):
    code, _, err = run_cli(capsys, ["r-family", "--r", "0.5", "--theta", "0",
                                    "--alpha", "0.5"])
    assert code == 1
    assert "r" in err


def test_irreducible_command(capsys):
    code, out, _ = run_cli(capsys, ["irreducible", "--n", "4", "--d", "0.1"])
    assert code == 0
    payload = json.loads(out)
    assert 0 < payload["epsilon_used"] <= 0.1
    assert payload["matrix"]["n"] == 4


def test_certify_command(tmp_path, capsys):
    path = tmp_path / "e.json"
    alpha = math.pi / 3
    run_cli(capsys, ["extremal", "--alpha", str(alpha), "--out", str(path)])
    code, out, _ = run_cli(capsys, ["certify", "--in", str(path),
                                    "--alpha", str(alpha)])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "extremal"
    assert payload["ratio"] == pytest.approx(sr.tau(alpha), abs=1e-8)


def test_certify_tolerance_env_and_flag(tmp_path, capsys, monkeypatch):
    # shrink the off-diagonal coupling: the range stays inside the sector
    # but the matrix is no longer extremal at the default tolerance
    alpha = math.pi / 4
    p = sr.extremal_params(alpha)
    phase = np.exp(1j * p.theta)
    t = np.array([[phase, 2 * p.c * 0.99], [0, np.conj(phase)]]) / p.norm
    path = tmp_path / "p.json"
    path.write_text(to_json(matrix_document(t)) + "\n")
    argv = ["certify", "--in", str(path), "--alpha", str(alpha)]
    code, out, _ = run_cli(capsys, argv)
    assert json.loads(out)["verdict"] == "not_extremal"
    # a loose tolerance from the environment flips the verdict ...
    monkeypatch.setenv("SECTOR_RADIUS_TOL", "0.1")
    code, out, _ = run_cli(capsys, argv)
    assert json.loads(out)["verdict"] == "extremal"
    # ... and an explicit --tol wins over the environment
    code, out, _ = run_cli(capsys, argv + ["--tol", "1e-9"])
    assert json.loads(out)["verdict"] == "not_extremal"


def test_bad_env_tolerance_exit_two(tmp_path, capsys, monkeypatch):
    path = tmp_path / "m.json"
    path.write_text(SHIFT_DOC)
    monkeypatch.setenv("SECTOR_RADIUS_TOL", "not-a-number")
    code, _, err = run_cli(capsys, ["certify", "--in", str(path),
                                    "--alpha", "1.0"])
    assert code == 2
    assert "SECTOR_RADIUS_TOL" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_env_tolerance_exit_two(tmp_path, capsys, monkeypatch,
                                           value):
    path = tmp_path / "m.json"
    path.write_text(to_json(matrix_document([[0.6, 0.5], [0, 0.6]])))
    monkeypatch.setenv("SECTOR_RADIUS_TOL", value)
    code, out, err = run_cli(capsys, ["certify", "--in", str(path),
                                      "--alpha", "1.0"])
    assert (code, out) == (2, "")
    assert "SECTOR_RADIUS_TOL" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tol_flag_exit_one(tmp_path, capsys, value):
    path = tmp_path / "m.json"
    path.write_text(SHIFT_DOC)
    code, out, err = run_cli(capsys, ["certify", "--in", str(path),
                                      "--alpha", "1.0", "--tol", value])
    assert (code, out) == (1, "")
    assert "tolerance" in err


def test_verify_negative_seed_exit_two(capsys):
    code, out, err = run_cli(capsys, ["verify", "--seed", "-1"])
    assert (code, out) == (2, "")
    assert "--seed" in err


def test_r_family_nan_theta_exit_one(capsys):
    code, out, err = run_cli(capsys, ["r-family", "--r", "1.5", "--theta",
                                      "nan", "--alpha", "0.7"])
    assert (code, out) == (1, "")
    assert "theta" in err


def test_matrix_document_round_trip_exact():
    rng = np.random.default_rng(np.random.Philox(11))
    t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    text = to_json(matrix_document(t))
    back = parse_matrix_document(text)
    assert np.array_equal(back, t)


def test_json_17_digit_format():
    assert to_json(1.0 / 3.0) == "0.33333333333333331"
    assert to_json({"a": True, "b": None}) == '{"a": true, "b": null}'


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(1.0, math.nan), np.float64(np.inf)])
def test_json_refuses_non_finite(bad):
    with pytest.raises(sr.SectorRadiusError, match="not finite"):
        to_json({"w": bad})


def test_document_rejects_boolean_size():
    with pytest.raises(sr.UsageError, match='"n"'):
        parse_matrix_document('{"n": true, "entries": [[[1, 0]]]}')


def test_three_by_three_command(capsys):
    code, out, _ = run_cli(capsys, ["three-by-three", "--d", "0.1",
                                    "--b1", "0.05", "--b2", "0.02"])
    assert code == 0
    np.testing.assert_array_equal(parse_matrix_document(out),
                                  sr.three_by_three(0.1, 0.05, 0.02))


@pytest.mark.parametrize("a, member", [
    (sr.r_alpha_matrix(1.3, 0.2, 0.8), True), (np.eye(2), False),
], ids=["member", "non-member"])
def test_canonical_family_command(capsys, monkeypatch, a, member):
    code, out, _ = run_cli(capsys, ["canonical-family", "--in", "-",
                                    "--alpha", "0.8"],
                           stdin=to_json(matrix_document(a)),
                           monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is member
    form = sr.canonical_family_test(a, 0.8)
    assert [payload["r"], payload["theta"]] == (
        [form.r, form.theta] if member else [None, None])


@pytest.mark.parametrize("doc, message", [
    ("[1, 2]", "must be a JSON object"),
    ('{"n": 2}', 'needs keys "n" and "entries"'),
    ('{"n": 2, "entries": [[[0, 0]], [[0, 0], [0, 0]]]}', "row 0 must be"),
    ('{"n": 1, "entries": [[[NaN, 0]]]}', "must be finite"),
    ('{"n": 1, "entries": [[[1' + 400 * "0" + ', 0]]]}',
     "does not fit in float64"),
], ids=["not-an-object", "missing-keys", "short-row", "nan-entry",
        "huge-integer-entry"])
def test_malformed_document_exit_two(capsys, monkeypatch, doc, message):
    code, out, err = run_cli(capsys, ["radius", "--in", "-"], stdin=doc,
                             monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert message in err


def test_unreadable_input_exit_two(tmp_path, capsys):
    code, out, err = run_cli(capsys, ["radius", "--in",
                                      str(tmp_path / "missing.json")])
    assert code == 2
    assert out == ""
    assert "cannot read" in err


def test_unwritable_output_exit_two(tmp_path, capsys):
    code, out, err = run_cli(capsys, ["extremal", "--alpha", "0.5", "--out",
                                      str(tmp_path / "no-dir" / "a.json")])
    assert code == 2
    assert out == ""
    assert "cannot write" in err
