"""Command-line harness: determinism, exit codes, config handling."""

import json

import numpy as np
import pytest

from sphere_sapt.cli import main


def test_gap_runs_and_writes_outputs(tmp_path):
    rc = main(["gap", "--lambdas", "0.5,0.45,0.55", "--thetas", "16", "--out", str(tmp_path)])
    assert rc == 0
    csv_text = (tmp_path / "gap.csv").read_text()
    assert csv_text.splitlines()[0] == "lambda,theta,N"
    assert len(csv_text.splitlines()) == 1 + 3 * 16
    summary = json.loads((tmp_path / "gap.json").read_text())
    assert summary["pass"] is True
    assert summary["config"]["thetas"] == 16
    assert "wall_time_s" in summary


def test_csv_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gap", "--thetas", "12", "--out", str(out)]) == 0
        assert main(["chern", "--grid", "16", "--out", str(out)]) == 0
    assert (a / "gap.csv").read_bytes() == (b / "gap.csv").read_bytes()
    assert (a / "chern.csv").read_bytes() == (b / "chern.csv").read_bytes()


def test_chern_exit_codes(tmp_path):
    assert main(["chern", "--lambda", "0.8", "--grid", "16", "--out", str(tmp_path)]) == 0
    # gap closing: invalid input, not a failed check
    assert main(["chern", "--lambda", "0.5", "--grid", "16", "--out", str(tmp_path)]) == 2


def test_obstruction_subcommand(tmp_path):
    rc = main(["obstruction", "--lambda", "0.8", "--two-j", "8", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "obstruction.csv").read_text().splitlines()
    assert rows[0] == "band,exact_rank,reference_rank,expected_rank"
    assert rows[1].split(",")[1] == "10"
    assert rows[2].split(",")[1] == "8"


def test_invalid_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_invalid_flag_value_exits_2(tmp_path):
    assert main(["egorov", "--observable", "bogus", "--out", str(tmp_path)]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["gap", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambdas=0.3\nthetas=4\nout=%s\n" % tmp_path)
    # flag wins over the config file value for thetas
    assert main(["gap", "--config", str(cfg), "--thetas", "3"]) == 0
    lines = (tmp_path / "gap.csv").read_text().splitlines()
    assert len(lines) == 1 + 3
    assert lines[1].startswith("0.3,")


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SPHERE_SAPT_OUT", str(tmp_path / "envdir"))
    assert main(["gap", "--thetas", "3"]) == 0
    assert (tmp_path / "envdir" / "gap.csv").exists()


def test_empty_sweep_writes_header_only_csv(tmp_path):
    assert main(["gap", "--lambdas", "", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "gap.csv").read_bytes() == b"lambda,theta,N\r\n"


def test_kernel_check_subcommand(tmp_path):
    rc = main(["kernel-check", "--two-j", "1,2", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "kernel-check.json").read_text())
    assert all(c["pass"] for c in summary["checks"])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_egorov_beyond_two_j_99_is_finite(tmp_path):
    # from two_j = 99 on, the unnormalized seed J+^m of the basis exceeds the float range
    assert main(["egorov", "--two-j", "20,40,80,120", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "egorov.csv").read_text().splitlines()[1:]
    values = [float(r.split(",")[2]) for r in rows]
    assert len(values) == 4 and all(np.isfinite(values))


def test_two_point_sweep_writes_strict_json(tmp_path):
    assert main(["star-slopes", "--two-j", "10,20", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "star-slopes.json").read_text()
    summary = json.loads(text, parse_constant=_reject_constant)
    assert all(c["ci95"] is None for c in summary["checks"] if "slope" in c)
