import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import somblocks as sb
from somblocks.cli import DEFAULTS, main, parse_config_file, render_map, resolve_settings

from conftest import fixture_path, make_map


def run_cli(*argv):
    return main(list(argv))


def test_train_reproduces_committed_golden(tmp_path):
    out = tmp_path / "map.json"
    rc = run_cli("train", "--data", sb.iris_path(), "--label-col", "class",
                 "--rows", "5", "--cols", "5", "--seed", "1", "--out", str(out))
    assert rc == 0
    assert out.read_bytes() == Path(fixture_path("iris_map_seed1.json")).read_bytes()


def test_partition_outputs_are_byte_identical(tmp_path):
    outs = []
    for name in ("p1.json", "p2.json"):
        out = tmp_path / name
        rc = run_cli("partition", "--map", fixture_path("iris_map_seed2.json"),
                     "--out", str(out))
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["K"] == 3
    assert doc["rows"] == doc["cols"] == 5


def test_unknown_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--bogus-flag", "1")
    assert exc.value.code != 0
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_map_file_is_an_error(tmp_path, capsys):
    rc = run_cli("partition", "--map", str(tmp_path / "nope.json"))
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rows = 4\nseed = 9\n# comment\nsigma_const = 2.5\n")
    parsed = parse_config_file(cfg)
    assert parsed == {"rows": "4", "seed": "9", "sigma_const": "2.5"}

    class Args:
        config = str(cfg)
        rows = "6"          # flag wins over file
        seed = None         # file wins over default

    args = Args()
    for key in DEFAULTS:
        if not hasattr(args, key):
            setattr(args, key, None)
    settings = resolve_settings(args)
    assert settings["rows"] == 6
    assert settings["seed"] == 9
    assert settings["sigma_const"] == 2.5
    assert settings["cols"] == DEFAULTS["cols"]


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    with pytest.raises(sb.cli.CliError):
        parse_config_file(cfg)


def test_baseline_command_writes_partition_and_boundaries(tmp_path):
    out = tmp_path / "bp.json"
    bout = tmp_path / "bounds.csv"
    rc = run_cli("baseline", "--map", fixture_path("iris_map_seed2.json"),
                 "--threshold", "0.55", "--out", str(out),
                 "--boundaries-out", str(bout))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["params"] == {"threshold": 0.55}
    lines = bout.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[2] == "r,c,orientation,strength"
    # 5x5 grid: 5*4 horizontal + 4*5 vertical edges
    assert len(lines) == 3 + 40


def test_evaluate_command_text_and_json(tmp_path, capsys):
    part = tmp_path / "p.json"
    run_cli("partition", "--map", fixture_path("iris_map_seed2.json"), "--out", str(part))
    capsys.readouterr()
    rc = run_cli("evaluate", "--map", fixture_path("iris_map_seed2.json"),
                 "--partition", str(part), "--label-col", "class")
    assert rc == 0
    text = capsys.readouterr().out
    assert "kappa:" in text and "confusion" in text

    out = tmp_path / "report.json"
    rc = run_cli("evaluate", "--map", fixture_path("iris_map_seed2.json"),
                 "--partition", str(part), "--label-col", "class",
                 "--format", "json", "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert 0.80 <= doc["p_o"] <= 0.95
    assert set(doc) >= {"block_labels", "confusion", "kappa", "p_e", "p_o"}


def test_evaluate_requires_labels(tmp_path, capsys):
    part = tmp_path / "p.json"
    run_cli("partition", "--map", fixture_path("iris_map_seed2.json"), "--out", str(part))
    # numeric-only copy of the data, no label column available
    data = tmp_path / "plain.csv"
    with open(sb.iris_path()) as f:
        data.write_text("\n".join(",".join(l.strip().split(",")[:4]) for l in f) + "\n")
    rc = run_cli("evaluate", "--map", fixture_path("iris_map_seed2.json"),
                 "--partition", str(part), "--data", str(data), "--label-col", "")
    assert rc == 1
    assert "label" in capsys.readouterr().err


def test_sweep_command_writes_csv(tmp_path):
    out = tmp_path / "stability.csv"
    rc = run_cli("sweep", "--map", fixture_path("iris_map_seed2.json"),
                 "--sweep-points", "5", "--sweep-decades", "0.5", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    header = lines[2]
    assert header == "f_R,f_sigma,equal_to_reference,signature_hash,n_blocks"
    rows = [l.split(",") for l in lines[3:]]
    assert len(rows) == 25
    center = [r for r in rows if float(r[0]) == 1.0 and float(r[1]) == 1.0]
    assert center[0][2] == "true"


def test_sweep_command_with_one_point(tmp_path):
    out = tmp_path / "stability.csv"
    rc = run_cli("sweep", "--map", fixture_path("iris_map_seed2.json"),
                 "--sweep-points", "1", "--out", str(out))
    assert rc == 0
    rows = out.read_text().splitlines()[3:]
    assert [r.split(",")[:3] for r in rows] == [["1.0", "1.0", "true"]]


def test_sweep_command_refuses_zero_decades(tmp_path, capsys):
    rc = run_cli("sweep", "--map", fixture_path("iris_map_seed2.json"), "--sweep-points", "3",
                 "--sweep-decades", "0", "--out", str(tmp_path / "s.csv"))
    assert rc == 1
    assert "decades must be positive" in capsys.readouterr().err


def test_sweep_command_refuses_infinite_decades(tmp_path, capsys):
    rc = run_cli("sweep", "--map", fixture_path("iris_map_seed2.json"), "--sweep-points", "3",
                 "--sweep-decades", "inf", "--out", str(tmp_path / "s.csv"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "decades must be positive and finite for 3 grid points, got inf" in err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_command_refuses_decades_that_overflow(tmp_path, capsys):
    rc = run_cli("sweep", "--map", fixture_path("iris_map_seed2.json"), "--sweep-points", "3",
                 "--sweep-decades", "400", "--out", str(tmp_path / "s.csv"))
    assert rc == 1
    assert capsys.readouterr().err == ("somblocks: error: decades must be positive with "
                                       "10**decades finite for 3 grid points, got 400.0\n")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--f-sigma", "1e300", "cell widths must keep 1/sigma**2 positive and finite, "
                           "got f_sigma=1e+300, sigma_const=1.0 "),
    ("--sigma-const", "1e200", "cell widths must keep 1/sigma**2 positive and finite, "
                               "got f_sigma=1.0, sigma_const=1e+200 "),
    ("--f-R", "1e308", "ln(f_R * R) must be finite, got f_R=1e+308\n"),
    ("--sigma-floor-frac", "1e-200", "1/sigma_floor**2 must be finite, got sigma_floor "),
])
def test_partition_refuses_finite_settings_that_overflow(tmp_path, capsys, flag, value,
                                                         message):
    out = tmp_path / "p.json"
    rc = run_cli("partition", "--map", fixture_path("iris_map_seed2.json"), "--out", str(out),
                 flag, value)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"somblocks: error: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--f-R", "nan", "f_R must be positive and finite, got nan"),
    ("--f-sigma", "inf", "f_sigma must be positive and finite, got inf"),
    ("--sigma-floor-frac", "nan", "sigma_floor_frac must be positive and finite, got nan"),
])
def test_partition_refuses_non_finite_cost_settings(tmp_path, capsys, flag, value, message):
    out = tmp_path / "p.json"
    rc = run_cli("partition", "--map", fixture_path("iris_map_seed2.json"), "--out", str(out),
                 flag, value)
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"somblocks: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--rows", "abc", "rows must be an integer, got 'abc'"),
    ("--epochs", "2.5", "epochs must be an integer, got '2.5'"),
    ("--lr-start", "fast", "lr_start must be a number, got 'fast'"),
    ("--neighborhood", "0:2,0.25", "neighborhood must be frac:halfwidth pairs (halfwidth an "
                                   "integer), got '0.25' in '0:2,0.25'"),
])
def test_bad_values_name_the_setting(tmp_path, capsys, flag, value, message):
    out = tmp_path / "map.json"
    rc = run_cli("train", "--out", str(out), flag, value)
    assert rc == 1
    assert capsys.readouterr().err == f"somblocks: error: {message}\n"
    # the same value from a config file gets the same message
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:].replace('-', '_')} = {value}\n")
    rc = run_cli("train", "--out", str(out), "--config", str(cfg))
    assert rc == 1
    assert capsys.readouterr().err == f"somblocks: error: {message}\n"
    assert not out.exists()


def test_render_single_row_map():
    m = make_map([[1.0, 9.0]], s=0.1, n_members=3)
    text = render_map(m)
    assert text == "(3)   (3)\n"
    assert "│" not in text and "─" not in text


def test_render_vertical_split_draws_one_boundary():
    m = make_map([[0.0, 9.0], [0.1, 9.1]], s=0.1)
    p = sb.Partition.from_labels(np.array([[0, 1], [0, 1]]))
    text = render_map(m, p)
    assert text.count("│") == 2      # one vertical boundary, drawn on both rows
    assert "─" not in text


def test_render_fixture_golden(fixture_map, iris, iris_params):
    p = sb.partition_som(fixture_map, iris_params)
    text = render_map(fixture_map, p, iris.labels)
    assert text == Path(fixture_path("iris_render_seed2.txt")).read_text()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


def test_module_entry_point_runs_without_warnings():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sb.__file__)))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "somblocks.cli",
                           "--version"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == f"somblocks {sb.__version__}\n"


@pytest.mark.parametrize("command", ["partition", "evaluate", "sweep"])
def test_map_and_data_attribute_counts_must_agree(tmp_path, capsys, command):
    part = tmp_path / "p.json"
    run_cli("partition", "--map", fixture_path("iris_map_seed2.json"), "--out", str(part))
    # two attributes and the class column: the 4-attribute map cannot use it
    data = tmp_path / "two.csv"
    with open(sb.iris_path()) as f:
        rows = [l.strip().split(",") for l in f if l.strip()]
    data.write_text("\n".join(",".join(r[:2] + r[4:]) for r in rows) + "\n")
    capsys.readouterr()
    extra = {"partition": ["--out", str(tmp_path / "q.json")],
             "evaluate": ["--partition", str(part)],
             "sweep": ["--out", str(tmp_path / "s.csv")]}[command]
    rc = run_cli(command, "--map", fixture_path("iris_map_seed2.json"),
                 "--data", str(data), *extra)
    assert rc == 1
    assert "map has 4 attributes, data has 2" in capsys.readouterr().err
