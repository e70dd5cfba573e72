import json
import math
import os

import numpy as np
import pytest

from conftest import fig_path
from rcexp import cli
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


_BINARY_MODEL = {"source": [0.5, 0.5], "codebook": [0.5, 0.5],
                 "distortion": [[0.0, 1.0], [1.0, 0.0]]}


@pytest.mark.parametrize("fields, flags", [
    ({"source": [0.5, "x"]}, ()),
    ({"distortion": [[0, 1], [1]]}, ()),
    ({"p": "abc"}, ()),
    ({"distortion": None, "distortion_units": [[0, 1], [1, 0]], "p": 0}, ()),
    ({"d_scale_values": ["a"]}, ()),
    ({"d_scale_values": [0.1, "nan"]}, ()),
    ({"p": 1.5}, ("--scaled",)),
], ids=["source-entry", "ragged-distortion", "p-string", "p-zero-units",
        "scale-entry", "scale-nan", "p-above-one-scaled"])
def test_model_spec_conversion_errors_exit_2(tmp_path, capsys, fields, flags):
    model = {k: v for k, v in {**_BINARY_MODEL, **fields}.items() if v is not None}
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps(model))
    code, _, err = run_cli(capsys, "compute", str(spec), "--kind", "success",
                           "--R", "0.1", "--D", "0.2", *flags)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err


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


def _argument_error(capsys, *argv) -> str:
    """Run a call that must fail argument checks; returns its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_oracle_on_kind_without_oracle_fails_before_any_work(capsys, monkeypatch):
    def no_engine(*args):
        raise AssertionError("the engine ran before the argument check")

    monkeypatch.setattr(cli, "_evaluate", no_engine)
    for kind in ("forney-tradeoff", "e-bound", "correct-extended-envelope"):
        err = _argument_error(capsys, "compute", fig_path("fig1.json"), "--kind", kind,
                              "--oracle", "8")
        assert "no brute-force oracle" in err


def test_nonpositive_oracle_grid_is_an_argument_error(capsys):
    for value in ("-1", "0"):
        err = _argument_error(capsys, "compute", fig_path("fig1.json"), "--oracle", value)
        assert "--oracle" in err


def test_zero_trials_is_an_argument_error(capsys):
    err = _argument_error(capsys, "simulate", fig_path("fig1.json"),
                          "--experiment", "source-encode", "--n", "8",
                          "--rate", "0.1", "--trials", "0")
    assert "--trials" in err


def test_nonpositive_grids_and_block_lengths_are_argument_errors(capsys):
    fig1 = fig_path("fig1.json")
    for argv, flag in (
        (["oracle-audit", fig1, "--kind", "success", "--grid", "0"], "--grid"),
        (["maximize-q", fig1, "--grid", "-2"], "--grid"),
        (["simulate", fig1, "--experiment", "forney", "--n", "8,0", "--rate", "0.1"], "--n"),
        (["simulate", fig1, "--experiment", "forney", "--n", "8", "--rate", "0.1",
          "--trials", "inf"], "--trials"),
    ):
        assert flag in _argument_error(capsys, *argv)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, flag", [
    (["compute", "{fig1}", "--R", "{v}"], "--R"),
    (["compute", "{fig1}", "--D", "{v}"], "--D"),
    (["compute", "{fig1}", "--kind", "failure-envelope", "--rho-cap", "{v}"], "--rho-cap"),
    (["compute", "{fig1}", "--inner-scan-rho", "{v}"], "--inner-scan-rho"),
    (["curve", "{fig1}", "--kind", "success", "--rates", "0.1,{v}"], "--rates"),
    (["curve", "{fig1}", "--kind", "success", "--rates", "0:{v}:3"], "--rates"),
    (["curve", "{fig1}", "--kind", "success", "--rates", "0.1", "--D", "{v}"], "--D"),
    (["curve", "{fig1}", "--kind", "failure-envelope", "--rates", "0.1", "--rho-cap", "{v}"],
     "--rho-cap"),
    (["simulate", "{fig1}", "--experiment", "forney", "--n", "8", "--rate", "{v}"], "--rate"),
    (["simulate", "{fig1}", "--experiment", "forney", "--n", "8", "--rate", "0.1",
      "--D", "{v}"], "--D"),
    (["maximize-q", "{fig1}", "--R", "{v}"], "--R"),
    (["maximize-q", "{fig1}", "--D", "{v}"], "--D"),
    (["oracle-audit", "{fig1}", "--kind", "success", "--R", "{v}"], "--R"),
    (["oracle-audit", "{fig1}", "--kind", "success", "--D", "{v}"], "--D"),
])
def test_non_finite_float_options_are_argument_errors(capsys, no_model_read, argv, flag, value):
    # Every float option of every subcommand (capacity has none).  The value
    # is joined to its flag, so that "-inf" is not read as a flag.
    argv = [a.format(fig1=fig_path("fig1.json"), v=value) for a in argv]
    err = _argument_error(capsys, *argv[:-2], "=".join(argv[-2:]))
    assert flag in err and "must be finite" in err


def test_thread_count_is_bounded_at_parse_time(capsys):
    # Parsed only: no simulation, and so no thread, is started.
    parser = cli.build_parser()
    base = ["simulate", fig_path("fig1.json"), "--experiment", "forney", "--n", "8",
            "--rate", "0.1", "--threads"]
    for threads in ("0", "-1", str(cli.MAX_THREADS + 1), "10000000"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(base + [threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
    for threads in (1, cli.MAX_THREADS):
        assert parser.parse_args(base + [str(threads)]).threads == threads


@pytest.mark.parametrize("argv, flag, bound", [
    (["simulate", "{fig1}", "--experiment", "source-encode", "--n", "8", "--rate", "0.1",
      "--codebook-cap", "0"], "--codebook-cap", "at least 1"),
    (["simulate", "{fig1}", "--experiment", "forney", "--n", "8", "--rate", "0.1",
      "--codebook-cap", "-3"], "--codebook-cap", "at least 1"),
    (["simulate", "{fig1}", "--experiment", "forney", "--n", "8", "--rate", "0.1",
      "--seed", "-1"], "--seed", "at least 0"),
    (["maximize-q", "{fig1}", "--refine", "-1"], "--refine", "at least 0"),
    (["compute", "{fig1}", "--kind", "failure-envelope", "--rho-cap", "-1"], "--rho-cap",
     "positive"),
    (["compute", "{fig1}", "--kind", "correct-extended-envelope", "--rho-cap", "0"],
     "--rho-cap", "positive"),
    (["curve", "{fig1}", "--kind", "failure-envelope", "--rates", "0.1", "--rho-cap", "-1"],
     "--rho-cap", "positive"),
    (["curve", "{fig1}", "--kind", "forney-tradeoff", "--rates", "0.1", "--rho-cap", "-0.0"],
     "--rho-cap", "positive"),
])
def test_out_of_range_counts_and_caps_are_argument_errors(capsys, no_model_read, argv, flag,
                                                          bound):
    # The value is joined to its flag, so that "-1" is not read as a flag.
    argv = [a.format(fig1=fig_path("fig1.json")) for a in argv]
    err = _argument_error(capsys, *argv[:-2], "=".join(argv[-2:]))
    assert flag in err and bound in err


def test_lowest_counts_and_caps_parse():
    parser = cli.build_parser()
    fig1 = fig_path("fig1.json")
    args = parser.parse_args(["simulate", fig1, "--experiment", "forney", "--n", "8",
                              "--rate", "0.1", "--seed", "0", "--codebook-cap", "1"])
    assert (args.seed, args.codebook_cap) == (0, 1)
    assert parser.parse_args(["maximize-q", fig1, "--refine", "0"]).refine == 0
    args = parser.parse_args(["compute", fig1, "--rho-cap", "1e-300"])
    assert args.rho_cap == 1e-300


@pytest.fixture
def no_model_read(monkeypatch):
    """Make reading a model spec fail the test: argument errors come first."""
    def no_load(path):
        raise AssertionError("the model spec was read before the argument check")

    monkeypatch.setattr(cli, "load_model", no_load)


def _curve_argument_error(capsys, *extra) -> str:
    return _argument_error(capsys, "curve", fig_path("fig1.json"), "--kind", "success", *extra)


def test_curve_rate_range_without_count_is_an_argument_error(capsys, no_model_read):
    assert "--rates" in _curve_argument_error(capsys, "--rates", "0:1")


def test_curve_rate_range_with_bad_count_is_an_argument_error(capsys, no_model_read):
    assert "--rates" in _curve_argument_error(capsys, "--rates", "0:1:x")


def test_curve_rate_range_count_below_one_is_an_argument_error(capsys, no_model_read):
    for count in ("0", "-3"):
        err = _curve_argument_error(capsys, "--rates", f"0:1:{count}")
        assert "--rates" in err and "at least 1" in err


def test_curve_non_number_level_is_an_argument_error(capsys, no_model_read):
    err = _curve_argument_error(capsys, "--rates", "0.1,0.2", "--D", "0.1,abc")
    assert "--D" in err and "abc" in err


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


def _parse_output(text: str):
    """JSON stdout as is; CSV stdout as rows of cells, numbers as floats."""
    if text.startswith("{"):
        return json.loads(text)

    def cell(value: str):
        try:
            return value if value == "inf" else float(value)
        except ValueError:
            return value

    return [[cell(v) for v in line.split(",")] for line in text.splitlines()]


def test_cli_golden_outputs(capsys):
    # Stdout of one call per compute kind, maximize-q kind, an oracle audit
    # and capacity on fig1, then curves on fig2 and fig3, negative levels,
    # rates past r_max, an inner scan and refined codebook searches, recorded
    # from the CLI; "figN.json" in each argv stands for the shipped model.
    path = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)
    figures = ("fig1.json", "fig2.json", "fig3.json")
    for record in records:
        argv = [fig_path(a) if a in figures else a for a in record["argv"]]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _assert_same_output(_parse_output(out), _parse_output(record["stdout"]),
                            " ".join(record["argv"]))


def _calls(capsys, argvs) -> list:
    """(exit code, stdout, stderr) of each ``main`` call, in order."""
    out = []
    for argv in argvs:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_one_parser_serves_consecutive_calls(capsys, monkeypatch):
    fig1 = fig_path("fig1.json")
    argvs = [
        ["compute", fig1, "--kind", "success", "--R", "0.1", "--D", "0"],
        ["maximize-q", fig1, "--refine", "-1"],
        ["capacity", fig1],
        ["compute", fig1, "--kind", "e-bound", "--oracle", "8"],
        ["maximize-q", fig1, "--kind", "e-bound", "--R", "0.05", "--grid", "2", "--refine", "0"],
        ["curve", fig1, "--kind", "gallager-error", "--rates", "0.05,0.1"],
        ["compute", fig1, "--kind", "no-such-kind"],
        ["simulate", fig1, "--experiment", "forney", "--n", "8", "--rate", "0.1",
         "--trials", "50", "--seed", "3"],
        ["curve", fig1, "--kind", "success"],
        ["compute", fig1, "--R", "0.2", "--D", "-1.7", "--scaled"],
        ["compute", fig1, "--kind", "gallager-error"],
        [],
        ["oracle-audit", fig1, "--kind", "gallager-error", "--R", "0.05", "--grid", "8"],
        ["capacity", fig1, "--out"],
        ["compute", fig1, "--kind", "success", "--R", "0.1", "--D", "0"],
    ]
    shared = _calls(capsys, argvs)
    assert cli._parser() is cli._parser()
    # A fresh parser for every call, as main built before it kept one.
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = _calls(capsys, argvs)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 0, 0, 2, 0, 2, 0, 0, 2, 0, 2, 0]
