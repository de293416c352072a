"""Command-line front end: train / partition / baseline / evaluate / sweep.

Every subcommand reads the settings it has flags for from built-in defaults,
overridden by an optional flat `key = value` config file (--config) that may
also hold other commands' settings, overridden in turn by explicit flags.
Artifacts are written atomically (temp file then rename) and carry a
provenance record (those settings, seed, tool version), so a fixed (data,
config, seed) triple reproduces byte-identical outputs.
"""

import argparse
import dataclasses
import hashlib
import inspect
import json
import sys

import numpy as np

from . import __version__
from .bayes_cost import N_SCALE_RULES, CostParams, n_scale_name, params_from_summary
from .baselines import threshold_partition, umatrix_boundaries
from .data_model import iris_path, load_csv, summarize, write_text_atomic
from .evaluate import render_map, render_report, report_to_dict, score
from .partition import load_partition, partition_som, save_partition
from .sensitivity import StabilityMap, SweepSpec, default_grid, stable_region, sweep
from .som import SomConfig, load_map, save_map, train


def _defaults(owner) -> dict:
    """The default of each parameter of a function or dataclass that has one."""
    return {name: p.default for name, p in inspect.signature(owner).parameters.items()
            if p.default is not p.empty}


_SOM = _defaults(SomConfig)
# range_rule, sigma_floor_frac and f_R are params_from_summary's, the rest CostParams'
_COST = _defaults(CostParams) | _defaults(params_from_summary)
_COST_KEYS = ("range_rule", "range_exponent", "sigma_const", "sigma_floor_frac", "f_R")
_GRID = _defaults(default_grid)

# The CLI owns the literal values; every other setting's default is its library owner's.
DEFAULTS = {
    "data": iris_path(),
    "label_col": "class",   # matches the bundled data; pass "" for unlabeled files
    "rows": 5,
    "cols": 5,
    "seed": 1,              # the train golden's seed, not SomConfig's 0
    "threshold": 0.55,
    **{key: _SOM[key] for key in ("epochs", "lr_start", "lr_end",
                                  "conscience_beta", "conscience_gamma")},
    "neighborhood": ",".join(f"{f:g}:{h}" for f, h in _SOM["neighborhood_schedule"]),
    **{key: _COST[key] for key in _COST_KEYS},
    "n_scale": n_scale_name(_COST["n_scale_rule"]),
    "sweep_points": _GRID["points"],
    "sweep_decades": _GRID["decades"],
}


class CliError(ValueError):
    pass


def parse_config_file(path) -> dict:
    """Flat `key = value` lines of UTF-8 text; '#' starts a comment, blanks ignored."""
    values = {}
    try:
        with open(path, encoding="utf-8-sig") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in DEFAULTS:
                    raise CliError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value
    except UnicodeDecodeError as e:
        raise CliError(f"{path}: malformed config file: {e}") from None
    return values


def _coerce(key: str, value: str):
    kind = type(DEFAULTS[key])
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise CliError(f"{key} must be {noun}, got {value!r}") from None


def resolve_settings(args: argparse.Namespace) -> dict:
    """The settings args has flags for: defaults < config file < explicit flags."""
    settings = {key: DEFAULTS[key] for key in DEFAULTS if hasattr(args, key)}
    if args.config:
        for key, value in parse_config_file(args.config).items():
            if key in settings:
                settings[key] = _coerce(key, value)
    for key in settings:
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = _coerce(key, flag)
    return settings


def parse_neighborhood(text: str) -> tuple:
    """Schedule syntax: "frac:halfwidth,frac:halfwidth,..." """
    pairs = []
    for item in text.split(","):
        frac, _, hw = item.partition(":")
        try:
            pairs.append((float(frac), int(hw)))
        except ValueError:
            raise CliError(f"neighborhood must be frac:halfwidth pairs (halfwidth an "
                           f"integer), got {item!r} in {text!r}") from None
    return tuple(pairs)


def som_config_from(settings: dict) -> SomConfig:
    """SomConfig's fields from the settings of their names; the schedule from neighborhood."""
    schedule = parse_neighborhood(settings["neighborhood"])
    return SomConfig(neighborhood_schedule=schedule, **{
        f.name: settings[f.name] for f in dataclasses.fields(SomConfig)
        if f.name != "neighborhood_schedule"})


def cost_params_from(settings: dict, dataset):
    if settings["n_scale"] not in N_SCALE_RULES:
        raise CliError(f"unknown n_scale rule {settings['n_scale']!r}")
    return params_from_summary(summarize(dataset), n_scale_rule=N_SCALE_RULES[settings["n_scale"]],
                               **{key: settings[key] for key in _COST_KEYS if key in settings})


def provenance(settings: dict, seed) -> dict:
    return {"version": __version__, "seed": seed, "config": dict(sorted(settings.items()))}


def _load_labeled(settings: dict, need_labels: bool):
    label_col = settings["label_col"] or None
    dataset = load_csv(settings["data"], label_col)
    if need_labels and dataset.labels is None:
        raise CliError("this command needs --label-col on a labeled dataset")
    return dataset


def _fitted_map(args, need_labels: bool = False):
    """The settings, the map of --map and the settings' data, which must fit the map."""
    settings = resolve_settings(args)
    som_map = load_map(args.map)
    dataset = _load_labeled(settings, need_labels)
    som_map.check_fits(dataset)
    return settings, som_map, dataset


def cmd_train(args) -> int:
    settings = resolve_settings(args)
    dataset = _load_labeled(settings, need_labels=False)
    som_map = train(dataset, som_config_from(settings))
    save_map(som_map, args.out)
    print(f"wrote {args.out} ({som_map.rows}x{som_map.cols}, seed {settings['seed']})")
    return 0


def cmd_partition(args) -> int:
    settings, som_map, dataset = _fitted_map(args)
    params = cost_params_from(settings, dataset)
    part = partition_som(som_map, params)
    save_partition(part, args.out, params_echo=params.echo(),
                   provenance=provenance(settings, som_map.config.seed))
    if args.render:
        write_text_atomic(args.render, render_map(som_map, part, dataset.labels))
    print(f"wrote {args.out} ({part.n_blocks} blocks, cost {part.cost:.6f})")
    return 0


def cmd_baseline(args) -> int:
    settings = resolve_settings(args)
    som_map = load_map(args.map)
    T = settings["threshold"]
    part = threshold_partition(som_map, T)
    save_partition(part, args.out, params_echo={"threshold": T},
                   provenance=provenance(settings, som_map.config.seed))
    bounds = umatrix_boundaries(som_map)
    lines = [f"# somblocks {__version__} boundary strengths",
             f"# threshold = {T!r}", "r,c,orientation,strength"]
    for orientation, strengths in (("h", bounds.h), ("v", bounds.v)):
        for (r, c), s in np.ndenumerate(strengths):
            lines.append(f"{r},{c},{orientation},{'' if np.isnan(s) else repr(float(s))}")
    write_text_atomic(args.boundaries_out, "\n".join(lines) + "\n")
    print(f"wrote {args.out} ({part.n_blocks} blocks at T={T}) and {args.boundaries_out}")
    return 0


def cmd_evaluate(args) -> int:
    _, som_map, dataset = _fitted_map(args, need_labels=True)
    part = load_partition(args.partition)
    report = score(part, som_map, dataset.labels)
    if args.format == "json":
        text = json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    else:
        text = render_report(report)
    if args.out:
        write_text_atomic(args.out, text)
        print(f"wrote {args.out} (accuracy {report.p_o:.4f}, kappa {report.kappa:.4f})")
    else:
        sys.stdout.write(text)
    return 0


def _stability_csv(stability: StabilityMap, spans) -> str:
    lines = [f"# somblocks {__version__} stability sweep",
             f"# stable spans: f_R {spans[0]!r}, f_sigma {spans[1]!r}",
             "f_R,f_sigma,equal_to_reference,signature_hash,n_blocks"]
    for i, f_R in enumerate(stability.f_R_grid):
        for j, f_sigma in enumerate(stability.f_sigma_grid):
            sig = stability.signatures[i][j]
            digest = hashlib.sha256(",".join(map(str, sig)).encode()).hexdigest()[:16]
            lines.append(f"{float(f_R)!r},{float(f_sigma)!r},"
                         f"{str(bool(stability.equal[i, j])).lower()},"
                         f"{digest},{int(stability.n_blocks[i, j])}")
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    settings, som_map, dataset = _fitted_map(args)
    params = cost_params_from(settings, dataset)     # sweep has no f_R: its grid scales R
    grid = default_grid(settings["sweep_points"], settings["sweep_decades"])
    stability = sweep(som_map, SweepSpec(base=params, f_R_grid=grid, f_sigma_grid=grid))
    spans = stable_region(stability)
    write_text_atomic(args.out, _stability_csv(stability, spans))
    print(f"wrote {args.out} (stable spans: f_R {spans[0]:.3g}x, f_sigma {spans[1]:.3g}x)")
    return 0


def _add_common(p: argparse.ArgumentParser, *keys: str) -> None:
    p.add_argument("--config", help="flat key = value settings file")
    for key in keys:
        flag = "--" + key.replace("_", "-")
        p.add_argument(flag, dest=key, default=None, metavar="V")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="somblocks")
    parser.add_argument("--version", action="version", version=f"somblocks {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a map and save it")
    _add_common(p, "data", "label_col", "rows", "cols", "epochs", "lr_start", "lr_end",
                "neighborhood", "conscience_beta", "conscience_gamma", "seed")
    p.add_argument("--out", default="map.json")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("partition", help="partition a trained map by block cost")
    p.add_argument("--map", required=True)
    _add_common(p, "data", "label_col", "range_rule", "range_exponent", "sigma_const",
                "sigma_floor_frac", "n_scale", "f_R")
    p.add_argument("--out", default="partition.json")
    p.add_argument("--render", default=None, help="also write an ASCII grid view")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("baseline", help="threshold partition plus boundary strengths")
    p.add_argument("--map", required=True)
    _add_common(p, "threshold")
    p.add_argument("--out", default="baseline_partition.json")
    p.add_argument("--boundaries-out", default="boundaries.csv")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evaluate", help="score a partition against labels")
    p.add_argument("--map", required=True)
    p.add_argument("--partition", required=True)
    _add_common(p, "data", "label_col")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="stability of the partition under f_R/f_sigma scaling")
    p.add_argument("--map", required=True)
    _add_common(p, "data", "label_col", "range_rule", "range_exponent", "sigma_const",
                "sigma_floor_frac", "n_scale", "sweep_points", "sweep_decades")
    p.add_argument("--out", default="stability.csv")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"somblocks: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
