"""End-to-end command-line behavior through cli.main."""

import json
import math

import pytest

from hardymeans import cli
from hardymeans.hardy import gini_constant


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(text):
    # the CLI prints bare inf/-inf/nan literals; map them onto the
    # tokens the stdlib parser accepts
    for src, dst in ((": inf", ": Infinity"), (": -inf", ": -Infinity"),
                     (": nan", ": NaN")):
        text = text.replace(src, dst)
    return json.loads(text)


# -- constant ----------------------------------------------------------------


def test_constant_closed_json(capsys):
    code, out, err = run(capsys, "constant", "--family", "power:p=0",
                         "--eta", "0")
    assert code == 0 and err == ""
    doc = parse_json(out)
    assert set(doc) == {"value", "method", "residual", "eta"}
    assert doc["value"] == pytest.approx(math.e, rel=1e-15)
    assert doc["method"] == "closed"
    # 17 significant digits round-trip the double exactly
    assert "2.7182818284590451" in out


def test_constant_order_one_prints_bare_inf(capsys):
    code, out, _ = run(capsys, "constant", "--family", "power:p=1",
                       "--eta", "0")
    assert code == 0
    assert '"value": inf' in out
    assert parse_json(out)["value"] == math.inf


def test_constant_both_methods_agree(capsys):
    code, out, _ = run(capsys, "constant", "--family", "power:p=0.5",
                       "--eta", "0.3", "--method", "both")
    assert code == 0
    doc = parse_json(out)
    assert set(doc) == {"closed", "root", "abs_diff", "eta"}
    assert doc["abs_diff"] <= 1e-8


def test_constant_flag_validation(capsys):
    assert run(capsys, "constant")[0] == 2                      # no family
    assert run(capsys, "constant", "--family", "power:p=0.5",
               "--eta", "1.0")[0] == 2                          # eta out of range
    assert run(capsys, "constant", "--family", "power:p=0.5",
               "--eta", "abc")[0] == 2
    assert run(capsys, "constant", "--family", "circle:r=1",
               "--eta", "0")[0] == 2                            # unknown family


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert cli.main([]) == 2


# -- solve -------------------------------------------------------------------


def test_solve_weighted_log_profile(capsys):
    code, out, _ = run(capsys, "solve", "--family", "devmean:f=log",
                       "--eta", "0.5")
    assert code == 0
    doc = parse_json(out)
    assert doc["value"] == pytest.approx(2.0, rel=1e-9)
    assert doc["method"] == "root-series"
    assert doc["residual"] <= 1e-10


def test_solve_order_one_fails_computationally(capsys):
    code, out, err = run(capsys, "solve", "--family", "power:p=1",
                         "--eta", "0")
    assert code == 1 and out == ""
    doc = parse_json(err)
    assert doc["error"] == "NotIntegrableError"
    assert doc["message"]


# -- verify ------------------------------------------------------------------


def test_verify_auto_constant_passes(capsys):
    code, out, _ = run(capsys, "verify", "--mean", "power:p=0.5",
                       "--weights", "ones", "--constant", "auto",
                       "--trials", "50", "--N", "30")
    assert code == 0
    doc = parse_json(out)
    assert doc["passed"] is True
    assert doc["constant"] == pytest.approx(4.0)
    assert doc["max_ratio"] <= 4.0 * (1 + 1e-9)
    assert doc["margin"] == doc["max_ratio"] / doc["constant"]


def test_verify_margin_is_nan_for_an_infinite_constant(capsys):
    code, out, _ = run(capsys, "verify", "--mean", "power:p=1",
                       "--weights", "ones", "--constant", "auto",
                       "--trials", "5", "--N", "10")
    assert code == 0
    doc = parse_json(out)
    assert doc["constant"] == math.inf and math.isnan(doc["margin"])


def test_verify_reports_violation_as_json(capsys):
    code, out, err = run(capsys, "verify", "--mean", "power:p=0.5",
                         "--weights", "ones", "--constant", "1.0",
                         "--trials", "50", "--N", "30")
    assert code == 1 and out == ""
    doc = parse_json(err)
    assert doc["error"] == "ViolationFound"
    assert doc["check"] == "constant"
    assert doc["ratio"] > 1.0
    assert doc["trial"] >= 0
    assert doc["sequence"] and all(v > 0 for v in doc["sequence"])


def test_verify_constant_text_validation(capsys):
    assert run(capsys, "verify", "--mean", "power:p=0.5",
               "--weights", "ones", "--constant", "many")[0] == 2
    assert run(capsys, "verify", "--mean", "power:p=0.5",
               "--weights", "ones", "--constant", "-3")[0] == 2


def test_verify_is_deterministic(capsys):
    argv = ("verify", "--mean", "gini:p=0.5,q=-0.5", "--weights",
            "geometric:a=2", "--constant", "auto", "--trials", "40",
            "--N", "25", "--seed", "3")
    out1 = run(capsys, *argv)
    out2 = run(capsys, *argv)
    assert out1 == out2


# -- est ---------------------------------------------------------------------


def test_est_prints_csv(capsys):
    code, out, _ = run(capsys, "est", "--mean", "power:p=0.5",
                       "--weights", "ones", "--N", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) > 10
    n, v = lines[-1].split(",")
    assert int(n) == 100
    assert 1.0 < float(v) < 4.0


def test_est_reports_gap_to_closed_form_on_stderr(capsys):
    code, out, err = run(capsys, "est", "--mean", "power:p=0.5",
                         "--weights", "ones", "--N", "100")
    assert code == 0 and out.startswith("n,value\n")
    tail = min(float(row.split(",")[1]) for row in out.strip().splitlines()[1:]
               if int(row.split(",")[0]) >= 50)
    assert err == (f"tail inf over n >= 50: {tail:.9g}; closed-form "
                   f"constant 4; gap {(4.0 - tail) / 4.0:.3%}\n")
    # off the Gini band there is no closed form
    code, _, err = run(capsys, "est", "--mean", "gini:p=0.5,q=0.25",
                       "--weights", "ones", "--N", "100")
    assert code == 0
    assert err.startswith("tail inf over n >= 50: ")
    assert err.endswith("; no closed-form constant for this family\n")
    # an infinite constant has no gap
    code, _, err = run(capsys, "est", "--mean", "power:p=2",
                       "--weights", "ones", "--N", "100")
    assert code == 0 and err.endswith("; closed-form constant inf\n")


def test_est_writes_file(capsys, tmp_path):
    target = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "est", "--mean", "power:p=0.5",
                       "--weights", "ones", "--N", "50",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("n,value\n")


# -- gena --------------------------------------------------------------------


def test_gena_reports_partial_and_limit(capsys):
    code, out, _ = run(capsys, "gena", "--p", "0.5", "--weights",
                       "geometric:a=2", "--N", "100")
    assert code == 0
    doc = parse_json(out)
    assert set(doc) == {"p", "weights", "n", "eta", "partial", "limit",
                        "abs_diff"}
    assert doc["eta"] == pytest.approx(0.5)
    assert doc["abs_diff"] <= 1e-11


# -- sweep -------------------------------------------------------------------


def test_sweep_writes_grid_csv(capsys, tmp_path):
    target = tmp_path / "g.csv"
    code, out, _ = run(capsys, "sweep", "--family", "gini:p=0.5,q=-0.5",
                       "--eta", "0:0.9:0.1", "--out", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "eta,value"
    assert len(lines) == 11
    eta0, v0 = lines[1].split(",")
    assert float(eta0) == 0.0
    assert float(v0) == pytest.approx(gini_constant(0.5, -0.5, 0.0))
    eta9, v9 = lines[-1].split(",")
    assert float(eta9) == pytest.approx(0.9)
    assert float(v9) == pytest.approx(gini_constant(0.5, -0.5, 0.9))


def test_sweep_grid_validation(capsys):
    assert run(capsys, "sweep", "--family", "power:p=0.5",
               "--eta", "0:0.9")[0] == 2
    assert run(capsys, "sweep", "--family", "power:p=0.5",
               "--eta", "0.5:1.0:0.1")[0] == 2
    assert run(capsys, "sweep", "--family", "power:p=0.5",
               "--eta", "nan:0.5:0.1")[0] == 2
    # a grid past the size cap is refused before it is built
    for grid in ("0:0.5:1e-300", "0:inf:0.1", "0:0.5:4e-7"):
        code, _, err = run(capsys, "sweep", "--family", "power:p=0.5",
                           "--eta", grid)
        assert code == 2 and "points" in err


# -- homogenize --------------------------------------------------------------


def test_homogenize_prints_ladder(capsys):
    code, out, err = run(capsys, "homogenize", "--mean", "power:p=0.5",
                         "--x", "1,4", "--lam", "1,1")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "t,value"
    t0, v0 = lines[1].split(",")
    assert float(t0) == 0.25
    final_t, final_v = lines[-1].split(",")
    assert final_t == "0"
    assert float(final_v) == pytest.approx(2.25, abs=1e-8)


def test_homogenize_argument_validation(capsys):
    assert run(capsys, "homogenize", "--mean", "power:p=0.5",
               "--x", "1;4", "--lam", "1,1")[0] == 2


# -- config file -------------------------------------------------------------


def test_config_fills_missing_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\neta=0.5\nfamily=power:p=0.5\n")
    code, out, _ = run(capsys, "constant", "--config", str(cfg))
    assert code == 0
    assert parse_json(out)["eta"] == 0.5


def test_explicit_flags_beat_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eta=0.5\n")
    code, out, _ = run(capsys, "constant", "--family", "power:p=0.5",
                       "--eta", "0", "--config", str(cfg))
    assert code == 0
    assert parse_json(out)["eta"] == 0.0


def test_config_validation(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("volume=11\n")
    assert run(capsys, "constant", "--family", "power:p=0.5",
               "--config", str(cfg))[0] == 2
    cfg.write_text("just some text\n")
    assert run(capsys, "constant", "--family", "power:p=0.5",
               "--config", str(cfg))[0] == 2
    assert run(capsys, "constant", "--family", "power:p=0.5",
               "--config", str(tmp_path / "missing.cfg"))[0] == 2


@pytest.mark.parametrize("command, eta, line", [
    ("constant", "0.5", "method=bogus"),  # not a choice of --method
    ("sweep", "0:0.5:0.25", "method=both"),  # a choice of constant only
    ("constant", "0.5", "config=other.cfg"),  # configs do not nest
    ("constant", "0.5", "tol=small"),  # not a float
])
def test_config_lines_are_checked_like_flags(capsys, tmp_path, command, eta,
                                             line):
    cfg = tmp_path / "run.cfg"
    argv = (command, "--family", "power:p=0.5", "--eta", eta,
            "--config", str(cfg))
    cfg.write_text("# nothing but a comment\n")
    assert run(capsys, *argv)[0] == 0
    cfg.write_text(line + "\n")
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""
