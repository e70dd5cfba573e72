import json
import math
import os

import numpy as np
import pytest

from conftest import fig_path
from rcexp.cli import main
from rcexp.modelspec import dump_model, load_model, parse_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_fig1_success(capsys):
    code, out, _ = run_cli(capsys, "compute", fig_path("fig1.json"),
                           "--kind", "success", "--R", "0.1", "--D", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["flags"] == []
    assert 0.0 < payload["value"] < 1.0


def test_compute_capacity_bsc(capsys):
    code, out, _ = run_cli(capsys, "capacity", fig_path("fig1.json"))
    assert code == 0
    payload = json.loads(out)
    hb = -(0.22 * math.log(0.22) + 0.78 * math.log(0.78))
    assert payload["capacity_nats"] == pytest.approx(math.log(2) - hb, abs=1e-8)


def test_compute_scaled_level(capsys):
    code, out, _ = run_cli(capsys, "compute", fig_path("fig1.json"),
                           "--kind", "success", "--R", "0.2", "--D", "-1.7",
                           "--scaled")
    # -1.7 units of p*ln((1-p)/p)?  no: units of ln((1-p)/p); expect finite
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "inf"  # -1.7 * u sits below the distortion floor


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"source": [0.5,, 0.5]}')
    code, _, err = run_cli(capsys, "compute", str(bad))
    assert code == 2
    assert "line" in err and "column" in err


def test_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"source": [0.5, 0.6]}')
    code, _, err = run_cli(capsys, "compute", str(bad))
    assert code == 2


def test_dimension_mismatch_exit_code(tmp_path, capsys):
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({
        "source": [0.5, 0.5],
        "codebook": [0.5, 0.5],
        "distortion": [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]],
    }))
    code, _, err = run_cli(capsys, "compute", str(spec), "--kind", "success")
    assert code == 3


def test_unwritable_output_exit_code(capsys):
    code, _, err = run_cli(capsys, "compute", fig_path("fig1.json"),
                           "--kind", "success", "--out", "/nonexistent-dir/x.json")
    assert code == 4


def test_codebook_too_large_exit_code(capsys):
    code, _, err = run_cli(capsys, "simulate", fig_path("fig1.json"),
                           "--experiment", "source-encode", "--n", "200",
                           "--rate", "0.5", "--trials", "10", "--D", "0")
    assert code == 5


def test_dump_spec_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "compute", fig_path("fig1.json"), "--dump-spec")
    assert code == 0
    reparsed = parse_model(json.loads(out))
    original = load_model(fig_path("fig1.json"))
    assert np.array_equal(reparsed.source.probs, original.source.probs)
    assert np.array_equal(reparsed.distortion.values, original.distortion.values)
    assert np.array_equal(reparsed.channel.probs, original.channel.probs)
    # a second dump of the reparsed model is textually identical
    assert json.dumps(dump_model(reparsed)) == json.dumps(dump_model(original))


def test_curve_csv_schema_and_inf_literal(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "curve", fig_path("fig2.json"),
                         "--kind", "failure-envelope",
                         "--rates", "0.05:0.75:8", "--D", "0.0",
                         "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "kind,R,D,value,rho_star,s_star,flags"
    assert len(lines) == 9
    assert os.path.exists(str(out_path) + ".meta.json")
    # an infinite cell appears as the bare literal `inf`
    code, out, _ = run_cli(capsys, "curve", fig_path("fig1.json"),
                           "--kind", "success",
                           "--rates", "0.1,0.2", "--D", "-2.0")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(r[3] == "inf" for r in rows)


def test_curve_levels_from_spec(capsys):
    code, out, _ = run_cli(capsys, "curve", fig_path("fig1.json"),
                           "--kind", "success", "--rates", "0.1,0.3",
                           "--levels-from-spec")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 2 * 4  # four levels in the fixture


def test_curve_requires_increasing_rates(capsys):
    code, _, err = run_cli(capsys, "curve", fig_path("fig1.json"),
                           "--kind", "success", "--rates", "0.3,0.1")
    assert code == 2


def test_identical_invocations_byte_identical(tmp_path, capsys):
    args = ("curve", fig_path("fig2.json"), "--kind", "failure-envelope",
            "--rates", "0.1,0.2,0.3", "--D", "0.05", "--scaled")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_simulate_csv_and_summary(tmp_path, capsys):
    out_path = tmp_path / "sim.csv"
    code, _, _ = run_cli(capsys, "simulate", fig_path("fig1.json"),
                         "--experiment", "source-encode", "--n", "8,12,16,20",
                         "--rate", "0.1", "--D", "0.0", "--trials", "2e4",
                         "--seed", "7", "--compare", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n,trials,count,p_hat,ci_low,ci_high"
    assert len(lines) == 5
    summary = json.loads((tmp_path / "sim.csv.summary.json").read_text())
    assert "engine_exponent" in summary and "slope" in summary


def test_simulate_thread_flag_does_not_change_output(tmp_path, capsys):
    outs = []
    for threads, name in ((1, "a.csv"), (3, "b.csv")):
        path = tmp_path / name
        code, _, _ = run_cli(capsys, "simulate", fig_path("fig1.json"),
                             "--experiment", "source-encode", "--n", "10,20",
                             "--rate", "0.1", "--D", "0.0", "--trials", "1e4",
                             "--seed", "3", "--threads", str(threads),
                             "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_oracle_audit(capsys):
    code, out, _ = run_cli(capsys, "oracle-audit", fig_path("fig1.json"),
                           "--kind", "success", "--R", "0.1", "--D", "0.0",
                           "--grid", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["within_tolerance"] is True


def test_maximize_q(capsys):
    code, out, _ = run_cli(capsys, "maximize-q", fig_path("fig1.json"),
                           "--kind", "e-bound", "--R", "0.05", "--D", "0.0",
                           "--grid", "8", "--refine", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["codebook"] == pytest.approx([0.5, 0.5], abs=0.13)


def test_inner_scan_reports_two_modes(capsys):
    code, out, _ = run_cli(capsys, "compute", fig_path("fig3.json"),
                           "--kind", "failure-envelope", "--R", "0.8", "--D", "0.0",
                           "--inner-scan-rho", "0.6508")
    assert code == 0
    payload = json.loads(out)
    minima = payload["inner_scan"]["local_minima"]
    assert len(minima) == 2
    assert minima[0]["s"] != minima[1]["s"]


def test_modelspec_rejects_nonfinite_literals(tmp_path):
    from rcexp.errors import ModelSpecError
    bad = tmp_path / "inf.json"
    bad.write_text('{"source": [0.5, Infinity]}')
    with pytest.raises(ModelSpecError):
        load_model(str(bad))
    nan = tmp_path / "nan.json"
    nan.write_text('{"source": [NaN, 0.5]}')
    with pytest.raises(ModelSpecError):
        load_model(str(nan))


def test_modelspec_schema_errors(tmp_path):
    from rcexp.errors import ModelSpecError
    p1 = tmp_path / "a.json"
    p1.write_text('{"distortion_units": [[0, 1]]}')  # needs the scalar p
    with pytest.raises(ModelSpecError):
        load_model(str(p1))
    p2 = tmp_path / "b.json"
    p2.write_text('{"source": [1.0], "unknown_field": 3}')
    with pytest.raises(ModelSpecError):
        load_model(str(p2))
    p3 = tmp_path / "c.json"
    p3.write_text('{"p": 0.2, "distortion": [[0.0]], "distortion_units": [[1.0]]}')
    with pytest.raises(ModelSpecError):
        load_model(str(p3))


def test_modelspec_scaled_levels(tmp_path):
    spec = load_model(fig_path("fig1.json"))
    unit = math.log(0.78 / 0.22)
    assert spec.distortion_unit == pytest.approx(unit, abs=1e-15)
    assert spec.resolve_level(-0.22, scaled=True) == pytest.approx(-0.22 * unit)
    assert spec.resolve_level(0.3, scaled=False) == 0.3


def test_simulate_compare_zero_exponent_regime(tmp_path, capsys):
    # rate above the source's rate function: the engine exponent is zero and
    # the measured success probability sits near one
    out_path = tmp_path / "easy.csv"
    code, _, _ = run_cli(capsys, "simulate", fig_path("fig1.json"),
                         "--experiment", "source-encode", "--n", "10,14,18",
                         "--rate", "0.25", "--D", "0.5", "--scaled", "--trials", "5e3",
                         "--seed", "1", "--compare", "--out", str(out_path))
    assert code == 0
    summary = json.loads((tmp_path / "easy.csv.summary.json").read_text())
    assert summary["engine_exponent"] == 0.0
    rows = out_path.read_text().strip().splitlines()[1:]
    assert all(float(r.split(",")[3]) > 0.95 for r in rows)


def test_oracle_audit_gallager_error_runs_oracle_at_level_zero(capsys):
    # The collapsed exponent has no level, so its oracle must not take --D.
    oracles = []
    for level in ("0.1", "0"):
        code, out, _ = run_cli(capsys, "oracle-audit", fig_path("fig1.json"),
                               "--kind", "gallager-error", "--R", "0.05", "--D", level,
                               "--grid", "16")
        assert code == 0
        oracles.append(json.loads(out)["oracle"])
    assert oracles[0] == oracles[1]


def test_zero_exponent_prints_positive_zero(capsys):
    # The outer objective at rho = 0 can be -0.0; the clamp must print 0.0.
    for kind, rate in (("gallager-error", "0.5"), ("correct", "-0.1")):
        code, out, _ = run_cli(capsys, "compute", fig_path("fig1.json"),
                               "--kind", kind, "--R", rate)
        assert code == 0
        assert '"value": 0.0,' in out


def _assert_same_output(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_same_output(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_output(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12), where
    else:
        assert got == want and type(got) is type(want), where


def test_cli_golden_outputs(capsys):
    # Stdout of one call per compute kind, maximize-q kind, an oracle audit
    # and capacity on fig1, recorded from the CLI; "fig1.json" in each argv
    # stands for the shipped figure model.
    path = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)
    for record in records:
        argv = [fig_path(a) if a == "fig1.json" else a for a in record["argv"]]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _assert_same_output(json.loads(out), json.loads(record["stdout"]),
                            " ".join(record["argv"]))
