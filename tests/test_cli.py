import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import somblocks as sb
from somblocks.cli import DEFAULTS, main, parse_config_file, render_map, resolve_settings
from somblocks.som import map_to_json

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


@pytest.mark.parametrize("seed, flags, K, cost, block_of", [
    (1, (), 3, "0x1.301f8ee79f78cp+6", [0, 0, 0, 1, 1] * 3 + [2] * 10),
    (2, (), 3, "0x1.4d51539c213c6p+6", [0] * 15 + [1, 1, 1, 2, 2] * 2),
    (1, ("--range-exponent", "per_pe"), 23, "0x1.072a83d68b123p-96",
     [0, 1, 2, 3, 4, 5, 6, 2, 3, *range(7, 23)]),
    (2, ("--range-exponent", "per_pe"), 25, "0x1.4c7feb8886e2bp-97", list(range(25))),
])
def test_the_golden_maps_partition_into_these_blocks(tmp_path, seed, flags, K, cost, block_of):
    # the per_pe costs are near 0 after cancellation, so a reordered sum shows
    out = tmp_path / "p.json"
    assert run_cli("partition", "--map", fixture_path(f"iris_map_seed{seed}.json"), *flags,
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert (doc["K"], doc["cost"].hex(), doc["block_of"]) == (K, cost, block_of)


def test_train_defaults_are_somconfigs(iris):
    # the golden was written by train with only --rows/--cols/--seed
    trained = map_to_json(sb.train(iris, sb.SomConfig(rows=5, cols=5, seed=1)))
    assert trained == Path(fixture_path("iris_map_seed1.json")).read_text(encoding="utf-8")


def test_partition_defaults_are_the_librarys(tmp_path, iris, fixture_map):
    out = tmp_path / "p.json"
    assert run_cli("partition", "--map", fixture_path("iris_map_seed2.json"),
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    params = sb.params_from_summary(sb.summarize(iris))
    p = sb.partition_som(fixture_map, params)
    assert doc["block_of"] == p.block_of.ravel().tolist()
    assert (doc["K"], doc["cost"]) == (p.n_blocks, p.cost)
    assert doc["params"] == json.loads(json.dumps(params.echo()))


def test_sweep_defaults_are_default_grids(tmp_path):
    out = tmp_path / "stability.csv"
    assert run_cli("sweep", "--map", fixture_path("iris_map_seed2.json"),
                   "--out", str(out)) == 0
    factors = [tuple(map(float, line.split(",")[:2]))
               for line in out.read_text(encoding="utf-8").splitlines()[3:]]
    grid = sb.default_grid().tolist()
    assert factors == [(f_R, f_sigma) for f_R in grid for f_sigma in grid]
    assert len(factors) == 169


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
    cfg.write_text("rows = 4\nseed = 9\n# comment\nsigma_const = 2.5\n", encoding="utf-8")
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


def test_config_file_skips_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfseed = 3\nlabel_col = \xc3\xa9t\xc3\xa9\n")
    assert parse_config_file(cfg) == {"seed": "3", "label_col": "\u00e9t\u00e9"}


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n", encoding="utf-8")
    with pytest.raises(sb.cli.CliError):
        parse_config_file(cfg)


def test_config_file_line_without_an_equals_sign_is_refused(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# settings\nrows 5\n", encoding="utf-8")
    with pytest.raises(sb.cli.CliError, match=f"^{re.escape(str(cfg))}:2: expected key = value$"):
        parse_config_file(cfg)


@pytest.mark.parametrize("flag", ["--data", "--config"])
def test_train_refuses_a_file_that_is_not_utf8_text_by_path(tmp_path, capsys, flag):
    bad, out = tmp_path / "binary.txt", tmp_path / "map.json"
    bad.write_bytes(b"seed = 1\n\xff\n")
    assert run_cli("train", flag, str(bad), "--out", str(out)) == 1
    kind = "CSV" if flag == "--data" else "config"
    err = capsys.readouterr().err
    assert err.startswith(f"somblocks: error: {bad}: malformed {kind} file: 'utf-8' codec ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_partition_refuses_an_unknown_n_scale_rule(tmp_path, capsys):
    out = tmp_path / "p.json"
    rc = run_cli("partition", "--map", fixture_path("iris_map_seed2.json"), "--n-scale", "bogus",
                 "--out", str(out))
    assert rc == 1
    assert capsys.readouterr().err == "somblocks: error: unknown n_scale rule 'bogus'\n"
    assert not out.exists()


PARTITION_SETTINGS = ("data", "label_col", "range_rule", "range_exponent", "sigma_const",
                      "sigma_floor_frac", "n_scale", "f_R")


def test_partition_provenance_holds_its_own_settings(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma_const = 2.5\nf_R = 3\n", encoding="utf-8")
    out = tmp_path / "p.json"
    assert run_cli("partition", "--map", fixture_path("iris_map_seed2.json"), "--out", str(out),
                   "--config", str(cfg), "--f-R", "2", "--range-exponent", "per_pe") == 0
    provenance = json.loads(out.read_text(encoding="utf-8"))["provenance"]
    expected = {key: DEFAULTS[key] for key in PARTITION_SETTINGS}
    expected.update(sigma_const=2.5, f_R=2.0, range_exponent="per_pe")
    assert provenance["config"] == expected
    assert provenance["seed"] == 2


def test_a_shared_config_leaves_other_commands_settings_out(tmp_path):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("epochs = 7\nthreshold = 0.9\n", encoding="utf-8")
    outs = []
    for name, extra in (("plain.json", []), ("shared.json", ["--config", str(cfg)])):
        out = tmp_path / name
        assert run_cli("partition", "--map", fixture_path("iris_map_seed2.json"),
                       "--out", str(out), *extra) == 0
        outs.append(out.read_bytes())
    assert outs[1] == outs[0]
    assert sorted(json.loads(outs[1])["provenance"]["config"]) == sorted(PARTITION_SETTINGS)


def test_baseline_provenance_holds_only_the_threshold(tmp_path):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("threshold = 0.7\nf_R = 3\nseed = 5\n", encoding="utf-8")
    out = tmp_path / "bp.json"
    assert run_cli("baseline", "--map", fixture_path("iris_map_seed2.json"), "--config", str(cfg),
                   "--out", str(out), "--boundaries-out", str(tmp_path / "b.csv")) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["provenance"]["config"] == {"threshold": 0.7}
    assert doc["params"] == {"threshold": 0.7}


def test_sweep_ignores_a_configured_f_R(tmp_path):
    # sweep scales R by its own f_R grid, so it declares no f_R
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("f_R = 3\n", encoding="utf-8")
    outs = []
    for name, extra in (("plain.csv", []), ("shared.csv", ["--config", str(cfg)])):
        out = tmp_path / name
        assert run_cli("sweep", "--map", fixture_path("iris_map_seed2.json"),
                       "--out", str(out), *extra) == 0
        outs.append(out.read_bytes())
    assert outs[1] == outs[0]


def test_baseline_command_writes_partition_and_boundaries(tmp_path):
    out = tmp_path / "bp.json"
    bout = tmp_path / "bounds.csv"
    rc = run_cli("baseline", "--map", fixture_path("iris_map_seed2.json"),
                 "--threshold", "0.55", "--out", str(out),
                 "--boundaries-out", str(bout))
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["params"] == {"threshold": 0.55}
    lines = bout.read_text(encoding="utf-8").splitlines()
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
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert 0.80 <= doc["p_o"] <= 0.95
    assert set(doc) >= {"block_labels", "confusion", "kappa", "p_e", "p_o"}


def test_evaluate_requires_labels(tmp_path, capsys):
    part = tmp_path / "p.json"
    run_cli("partition", "--map", fixture_path("iris_map_seed2.json"), "--out", str(part))
    # numeric-only copy of the data, no label column available
    data = tmp_path / "plain.csv"
    with open(sb.iris_path(), encoding="utf-8") as f:
        data.write_text("\n".join(",".join(l.strip().split(",")[:4]) for l in f) + "\n",
                        encoding="utf-8")
    rc = run_cli("evaluate", "--map", fixture_path("iris_map_seed2.json"),
                 "--partition", str(part), "--data", str(data), "--label-col", "")
    assert rc == 1
    assert "label" in capsys.readouterr().err


def test_sweep_command_writes_csv(tmp_path):
    out = tmp_path / "stability.csv"
    rc = run_cli("sweep", "--map", fixture_path("iris_map_seed2.json"),
                 "--sweep-points", "5", "--sweep-decades", "0.5", "--out", str(out))
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[2]
    assert header == "f_R,f_sigma,equal_to_reference,signature_hash,n_blocks"
    rows = [l.split(",") for l in lines[3:]]
    assert len(rows) == 25
    center = [r for r in rows if float(r[0]) == 1.0 and float(r[1]) == 1.0]
    assert center[0][2] == "true"


def test_sweep_reference_row_is_at_factor_one(tmp_path):
    # an 11-point grid over 1.7 decades is one whose logspace centre is not 1.0
    out = tmp_path / "stability.csv"
    assert run_cli("sweep", "--map", fixture_path("iris_map_seed2.json"), "--sweep-points", "11",
                   "--sweep-decades", "1.7", "--out", str(out)) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert sum(line.startswith("1.0,1.0,true,") for line in lines) == 1


@pytest.mark.parametrize("seed", [2, 1])
def test_sweep_output_matches_the_committed_golden(tmp_path, seed):
    # seed 1's reference interval ends at a smaller f_R than seed 2's, so the
    # sweep reuses partitions along another path
    out = tmp_path / "stability.csv"
    assert run_cli("sweep", "--map", fixture_path(f"iris_map_seed{seed}.json"),
                   "--out", str(out)) == 0
    assert out.read_bytes() == Path(fixture_path(f"iris_stability_seed{seed}.csv")).read_bytes()


def test_per_pe_sweep_matches_its_golden(tmp_path):
    # per_pe splits the map into more blocks as f_R grows, up to one per
    # cell: the setting where most points reuse the partition before them
    out = tmp_path / "stability.csv"
    assert run_cli("sweep", "--map", fixture_path("iris_map_seed2.json"),
                   "--range-exponent", "per_pe", "--out", str(out)) == 0
    assert out.read_bytes() == Path(
        fixture_path("iris_stability_seed2_per_pe.csv")).read_bytes()


def test_sqrt_width_sweep_and_partition_match_their_goldens(tmp_path):
    # under the sqrt rule each block of several cells takes its own widths
    # at its size; no column of this sweep has every width at the floor, so
    # each point is partitioned
    sqrt12 = ("--map", fixture_path("iris_map_seed2.json"), "--n-scale", "sqrt",
              "--sigma-const", "12")
    out = tmp_path / "stability.csv"
    assert run_cli("sweep", *sqrt12, "--out", str(out)) == 0
    assert out.read_bytes() == Path(
        fixture_path("iris_stability_seed2_sqrt12.csv")).read_bytes()
    out = tmp_path / "p.json"
    assert run_cli("partition", *sqrt12, "--out", str(out)) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert (doc["K"], doc["cost"].hex()) == (8, (200.74096324624486).hex())


def test_sweep_command_with_one_point(tmp_path):
    out = tmp_path / "stability.csv"
    rc = run_cli("sweep", "--map", fixture_path("iris_map_seed2.json"),
                 "--sweep-points", "1", "--out", str(out))
    assert rc == 0
    rows = out.read_text(encoding="utf-8").splitlines()[3:]
    assert [r.split(",")[:3] for r in rows] == [["1.0", "1.0", "true"]]


def test_sweep_command_refuses_zero_decades(tmp_path, capsys):
    rc = run_cli("sweep", "--map", fixture_path("iris_map_seed2.json"), "--sweep-points", "3",
                 "--sweep-decades", "0", "--out", str(tmp_path / "s.csv"))
    assert rc == 1
    assert "decades must be positive" in capsys.readouterr().err


def test_sweep_command_refuses_decades_too_small_to_separate_the_points(tmp_path, capsys):
    rc = run_cli("sweep", "--map", fixture_path("iris_map_seed2.json"), "--sweep-points", "3",
                 "--sweep-decades", "1e-17", "--out", str(tmp_path / "s.csv"))
    assert rc == 1
    assert capsys.readouterr().err == ("somblocks: error: decades must be large enough for 3 "
                                       "distinct grid points, got 1e-17\n")
    assert not (tmp_path / "s.csv").exists()


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


def test_sweep_command_names_the_column_whose_widths_overflow(tmp_path, capsys):
    rc = run_cli("sweep", "--map", fixture_path("iris_map_seed2.json"), "--sigma-const", "1e307",
                 "--out", str(tmp_path / "s.csv"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("somblocks: error: f_sigma=0.03162277660168379, sigma_const=1e+307: "
                          "cell widths must keep 1/sigma**2 positive and finite, got "
                          "sigma_const=3.162277660168379e+305 ")
    assert err.count("\n") == 1
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--sigma-const", "1e200", "cell widths must keep 1/sigma**2 positive and finite, "
                               "got sigma_const=1e+200 "),
    ("--f-R", "1e308", "ln(f_R * R) must be finite, got f_R=1e+308\n"),
    ("--sigma-floor-frac", "1e-200", "1/sigma_floor**2 must be finite, got sigma_floor "
                                     "2.3999999999999997e-200 from sigma_floor_frac=1e-200\n"),
    ("--sigma-floor-frac", "1e300", "1/sigma_floor**2 must be positive, got sigma_floor "
                                    "5.900000000000001e+300 from sigma_floor_frac=1e+300\n"),
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
    ("--sigma-floor-frac", "nan", "sigma_floor_frac must be positive and finite, got nan"),
    ("--range-rule", "bogus", "range_rule must be one of ('two_span', 'two_max')"),
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
    cfg.write_text(f"{flag[2:].replace('-', '_')} = {value}\n", encoding="utf-8")
    rc = run_cli("train", "--out", str(out), "--config", str(cfg))
    assert rc == 1
    assert capsys.readouterr().err == f"somblocks: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--conscience-beta", "nan", "conscience_beta must be finite and non-negative, got nan"),
    ("--conscience-gamma", "inf", "conscience_gamma must be finite and non-negative, got inf"),
    ("--conscience-gamma", "nan", "conscience_gamma must be finite and non-negative, got nan"),
])
def test_train_refuses_non_finite_conscience(tmp_path, capsys, flag, value, message):
    out = tmp_path / "map.json"
    rc = run_cli("train", "--out", str(out), flag, value)
    assert rc == 1
    assert capsys.readouterr().err == f"somblocks: error: {message}\n"
    assert not out.exists()


def test_train_refuses_values_its_sums_could_overflow(tmp_path, capsys):
    data, out = tmp_path / "huge.csv", tmp_path / "never.json"
    data.write_text("a,b,class\n1e200,-1e200,x\n-1e200,1e200,y\n0,1e200,x\n", encoding="utf-8")
    assert run_cli("train", "--data", str(data), "--out", str(out)) == 1
    bound = math.sqrt(np.finfo(float).max / (8 * 3))
    assert capsys.readouterr().err == (f"somblocks: error: attribute 'a' has a value beyond "
                                       f"{bound:.6g} in magnitude, which training could "
                                       f"overflow\n")
    assert not out.exists()


@pytest.mark.parametrize("schedule, shown", [
    ("0:2,nan:1", "[0.0, nan]"), ("0:2,inf:1", "[0.0, inf]"), ("0:2,1.5:1", "[0.0, 1.5]"),
])
def test_train_refuses_schedule_fractions_outside_0_1(tmp_path, capsys, schedule, shown):
    out = tmp_path / "map.json"
    rc = run_cli("train", "--out", str(out), "--epochs", "3", "--neighborhood", schedule)
    assert rc == 1
    assert capsys.readouterr().err == ("somblocks: error: neighborhood_schedule fractions must "
                                       f"be finite and in [0, 1], got {shown}\n")
    assert not out.exists()


def test_partition_refuses_a_map_with_a_non_integer_grid_size(tmp_path, capsys):
    doc = json.loads(Path(fixture_path("iris_map_seed2.json")).read_text(encoding="utf-8"))
    doc["rows"] = 5.0
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = run_cli("partition", "--map", str(path), "--out", str(tmp_path / "p.json"))
    assert rc == 1
    assert capsys.readouterr().err == (f"somblocks: error: {path}: rows must be an integer, "
                                       "got 5.0\n")


@pytest.mark.parametrize("kind, where, message", [
    ("map", ("config", "conscience_gamma"), "conscience_gamma must be a number, got 1000"),
    ("map", ("pes", 0, "weight", 1),
     "cell 0: weight must hold numbers, got 100000000000000000...0000000000000000000\n"),
    ("map", ("pes", 3, "mean", 0),
     "cell 3: mean must hold numbers, got 100000000000000000...0000000000000000000\n"),
    ("map", ("seed",), "seed 1000"),
    ("map", ("pes",), "pes must be a list of cell records, got 1000"),
    ("map", ("pes", 0), "cell 0 must be a JSON object, got 1000"),
    ("partition", ("cost",), "cost must be a number or null, got 1000"),
    ("partition", ("block_of", 0), "block_of entries must be in 0..24, got 1000"),
])
def test_an_integer_too_large_for_a_float_is_refused_by_name(tmp_path, capsys, kind, where,
                                                            message):
    part = tmp_path / "p.json"
    run_cli("partition", "--map", fixture_path("iris_map_seed2.json"), "--out", str(part))
    source = {"map": Path(fixture_path("iris_map_seed2.json")), "partition": part}[kind]
    doc = json.loads(source.read_text(encoding="utf-8"))
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = 10**400
    path = tmp_path / f"edited_{kind}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    if kind == "map":
        rc = run_cli("partition", "--map", str(path), "--out", str(tmp_path / "q.json"))
    else:
        rc = run_cli("evaluate", "--map", fixture_path("iris_map_seed2.json"),
                     "--partition", str(path))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"somblocks: error: {path}: {message}")
    assert err.count("\n") == 1
    assert len(err) < 200       # the refused value is shown shortened


def test_evaluate_refuses_non_integer_block_ids(tmp_path, capsys):
    part = tmp_path / "p.json"
    run_cli("partition", "--map", fixture_path("iris_map_seed2.json"), "--out", str(part))
    doc = json.loads(part.read_text(encoding="utf-8"))
    doc["block_of"] = [b + 0.4 for b in doc["block_of"]]
    part.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    rc = run_cli("evaluate", "--map", fixture_path("iris_map_seed2.json"),
                 "--partition", str(part))
    assert rc == 1
    assert capsys.readouterr().err == (f"somblocks: error: {part}: block_of entries must be "
                                       "integers, got 0.4\n")


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
    assert text == Path(fixture_path("iris_render_seed2.txt")).read_text(encoding="utf-8")


def test_partition_render_writes_render_maps_text(tmp_path, fixture_map, iris, iris_params):
    out = tmp_path / "render.txt"
    assert run_cli("partition", "--map", fixture_path("iris_map_seed2.json"),
                   "--out", str(tmp_path / "p.json"), "--render", str(out)) == 0
    p = sb.partition_som(fixture_map, iris_params)
    assert out.read_text(encoding="utf-8") == render_map(fixture_map, p, iris.labels)


def test_render_is_written_as_utf8_under_an_ascii_locale(tmp_path):
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.path.dirname(os.path.dirname(sb.__file__)))
    out = tmp_path / "render.txt"
    proc = subprocess.run([sys.executable, "-m", "somblocks.cli", "partition",
                           "--map", fixture_path("iris_map_seed2.json"),
                           "--out", str(tmp_path / "p.json"), "--render", str(out)],
                          capture_output=True, text=True, encoding="utf-8", env=env,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_bytes() == Path(fixture_path("iris_render_seed2.txt")).read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


def test_module_entry_point_runs_without_warnings():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sb.__file__)))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "somblocks.cli",
                           "--version"], capture_output=True, text=True, encoding="utf-8",
                          env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == f"somblocks {sb.__version__}\n"


@pytest.mark.parametrize("command", ["partition", "evaluate", "sweep"])
def test_map_and_data_attribute_counts_must_agree(tmp_path, capsys, command):
    part = tmp_path / "p.json"
    run_cli("partition", "--map", fixture_path("iris_map_seed2.json"), "--out", str(part))
    # two attributes and the class column: the 4-attribute map cannot use it
    data = tmp_path / "two.csv"
    with open(sb.iris_path(), encoding="utf-8") as f:
        rows = [l.strip().split(",") for l in f if l.strip()]
    data.write_text("\n".join(",".join(r[:2] + r[4:]) for r in rows) + "\n", encoding="utf-8")
    capsys.readouterr()
    extra = {"partition": ["--out", str(tmp_path / "q.json")],
             "evaluate": ["--partition", str(part)],
             "sweep": ["--out", str(tmp_path / "s.csv")]}[command]
    rc = run_cli(command, "--map", fixture_path("iris_map_seed2.json"),
                 "--data", str(data), *extra)
    assert rc == 1
    assert "map has 4 attributes, data has 2" in capsys.readouterr().err
