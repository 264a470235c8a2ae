"""Command-line interface: fit, generate, predict, simulate, bench.

Exit codes: 0 success, 1 partial simulation failure, 2 usage/config errors,
3 data errors, 4 numerical errors.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
import sys

import click

from . import data_io, edge_sim, evaluation, fusion, gp_core
from .errors import MALFORMED, ConfigError, DataError, NumericalError, PartialFailure, read_settings


@click.group()
@click.option("--seed", type=click.IntRange(0), default=0, show_default=True,
              help="Seeds generate's series, fit's restarts and the synthetic data of simulate "
                   "and bench; a seed set in a settings file wins, and their fits use fit.seed.")
@click.pass_context
def cli(ctx, seed):
    """Gaussian-process temporal data fusion tools."""
    ctx.ensure_object(dict)
    ctx.obj["seed"] = seed


def _load_config(path, build):
    """Return `build(raw)` for the JSON settings file at `path`; malformed
    input, from the JSON text to a value `build` rejects, becomes one
    ConfigError that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return build(json.load(fh))
    except (ConfigError, *MALFORMED) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{path}: {detail}") from exc


def _column(ctx, param, value):
    """A column selector: an index when it reads as an integer, else a header name."""
    return int(value) if value is not None and value.removeprefix("-").isdecimal() else value


@cli.command()
@click.argument("csv_path", type=click.Path())
@click.option("--column", default="0", show_default=True, callback=_column,
              help="Value column, by index or header name.")
@click.option("--time-column", default=None, callback=_column,
              help="Optional time column (index or name).")
@click.option("--restarts", type=click.IntRange(1), default=None,
              help="Override the restart count.")
@click.option("--fit-config", "fit_config_path", type=click.Path(), default=None,
              help="JSON file with bounds, restarts, seed.")
@click.option("--no-normalize", is_flag=True, help="Fit the raw values without normalizing.")
@click.pass_context
def fit(ctx, csv_path, column, time_column, restarts, fit_config_path, no_normalize):
    """Fit the temporal feature triple of a CSV series; print it as JSON."""
    series = data_io.load_csv(csv_path, column=column, time_column=time_column)
    if not no_normalize:
        series, _ = data_io.normalize(series)

    def fit_config(raw):
        raw = {"seed": ctx.obj["seed"], **raw}
        if restarts is not None:
            raw["restarts"] = restarts
        return gp_core.FitConfig.from_dict(raw)

    config = _load_config(fit_config_path, fit_config) if fit_config_path else fit_config({})
    feature = gp_core.fit_hyperparameters(series, config)
    click.echo(json.dumps(feature.as_dict()))


@cli.command()
@click.option("--sigma-f", type=float, required=True)
@click.option("--sigma-l", type=float, required=True)
@click.option("--sigma-n", type=float, default=0.0, show_default=True)
@click.option("-n", "--length", type=click.IntRange(1, gp_core.MAX_SAMPLE_POINTS), required=True,
              help="Number of points.")
@click.option("--out", type=click.Path(), default=None, help="Write CSV here instead of stdout.")
@click.pass_context
def generate(ctx, sigma_f, sigma_l, sigma_n, length, out):
    """Generate a synthetic series from a feature triple; emit CSV (t,y)."""
    try:
        feature = gp_core.TemporalFeature(sigma_f, sigma_l, sigma_n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    series = data_io.generate_synthetic(feature, length, ctx.obj["seed"])
    target = open(out, "w", encoding="utf-8", newline="") if out else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(["t", "y"])
        for t, y in zip(series.timestamps, series.values):
            writer.writerow([repr(float(t)), repr(float(y))])
    finally:
        if out:
            target.close()


@cli.command()
@click.argument("stream_csv", type=click.Path())
@click.option("--features", "features_path", type=click.Path(), required=True,
              help="JSON file: list of {sigma_f, sigma_l, sigma_n} triples.")
@click.option("--column", default="0", show_default=True, callback=_column)
@click.option("--tau", type=click.IntRange(1, sys.maxsize), default=fusion.DEFAULT_TAU,
              show_default=True)
@click.option("--alpha", type=float, default=fusion.DEFAULT_ALPHA, show_default=True)
@click.option("--limit", type=click.IntRange(1), default=None,
              help="Use only the first M features.")
@click.option("--normalization", type=click.Choice(data_io.NORMALIZATION_MODES),
              default="online", show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="Write the prediction log here; '-' or none means stdout.")
def predict(stream_csv, features_path, column, tau, alpha, limit, normalization, out):
    """Run the online fusion loop over a CSV stream; emit the prediction log
    as line-delimited JSON."""
    if not 0.0 < alpha < 1.0:  # unlike click.FloatRange, also rejects NaN
        raise click.BadParameter(f"must lie in (0, 1), got {alpha}", param_hint="'--alpha'")
    # the settings file is checked before the data, as simulate and bench check theirs
    features = _load_config(features_path, lambda raw: read_settings(
        raw, [gp_core.TemporalFeature.from_dict], "feature list"))
    if not features:
        raise ConfigError(f"{features_path}: expected a nonempty JSON list of feature triples")
    stream = data_io.load_csv(stream_csv, column=column)
    state = fusion.ensemble_from_features(features[:limit], tau=tau, alpha=alpha)
    prepared = data_io.prepare_stream(stream, normalization)
    records = fusion.run_stream(state, prepared.series)
    with click.open_file(out or "-", "w", encoding="utf-8") as target:
        fusion.write_prediction_log(records, target)


@cli.command()
@click.argument("scenario_path", type=click.Path())
@click.option("--out-dir", type=click.Path(), required=True)
@click.pass_context
def simulate(ctx, scenario_path, out_dir):
    """Run a full edge/cloud scenario; write logs, metrics, and the registry
    dump into a result directory."""
    scenario = _load_config(scenario_path, lambda raw: edge_sim.Scenario.from_dict(
        {"seed": ctx.obj["seed"], **raw}))
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)  # an unusable directory fails before any node runs
    result = edge_sim.run_simulation(scenario)
    report = result.target_report

    nodes = [{"id": r.source_id, "role": "historical", **r.feature.as_dict(),
              "n_points": r.n_points, "fitted_at": r.fitted_at}
             for r in result.feature_records]
    files = {
        "registry.jsonl": "".join(edge_sim.encode_message(r.to_message()) + "\n"
                                  for r in result.feature_records),
        "metrics.json": json.dumps({
            "metrics": report.metrics if report else None,
            "bytes_by_node": result.bytes_by_node,
            "n_feature_records": len(result.feature_records),
        }, indent=2, sort_keys=True),
    }
    if report is not None:
        nodes.append({"id": report.node_id, "role": "target", "models": list(report.model_ids),
                      "used_fallback": report.used_fallback, "metrics": report.metrics})
        log = io.StringIO()
        fusion.write_prediction_log(report.records, log)
        files["predictions.jsonl"] = log.getvalue()
        row = evaluation.BenchmarkRow(method="GPTDF", **report.metrics)
        files["summary.csv"] = evaluation.BenchmarkReport(rows=(row,), series={}).to_csv()
    files["nodes.json"] = json.dumps(nodes, indent=2, sort_keys=True)
    if result.errors:
        files["errors.json"] = json.dumps([{"node": n, "error": e} for n, e in result.errors],
                                          indent=2, sort_keys=True)
    # the manifest lists every other file
    files["manifest.json"] = json.dumps({
        "files": sorted(files),
        "seed": scenario.seed,
        "scenario": scenario.as_dict(),
    }, indent=2, sort_keys=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")

    if result.errors:
        if report is None:
            raise DataError("; ".join(f"{n}: {e}" for n, e in result.errors))
        raise PartialFailure(f"{len(result.errors)} node(s) failed; partial results in {out}")
    click.echo(f"simulation complete: {out}")


@cli.command()
@click.argument("config_path", type=click.Path())
@click.option("--out-dir", type=click.Path(), default=None,
              help="Also write per-step series CSVs here.")
@click.pass_context
def bench(ctx, config_path, out_dir):
    """Run a benchmark config; print the comparison table as CSV."""
    config = _load_config(config_path, lambda raw: evaluation.BenchmarkConfig.from_dict(
        raw, fallback_seed=ctx.obj["seed"]))
    if out_dir is not None:  # an unusable directory or file name fails before any method runs
        owners = {}  # series file name -> the method that writes it
        for method in config.methods:
            name = evaluation.series_file_name(method.name)
            if name in owners:
                raise ConfigError(f"{config_path}: methods {owners[name]!r} and "
                                  f"{method.name!r} would both write {name}")
            owners[name] = method.name
        pathlib.Path(out_dir).mkdir(parents=True, exist_ok=True)
    report = evaluation.run_benchmark(config)
    if out_dir is not None:
        report.write_series_csvs(out_dir)
    click.echo(report.to_csv(), nl=False)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False, obj={})
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 130
    except click.UsageError as exc:
        exc.show()
        return 2
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except (ConfigError, OSError) as exc:  # OSError: a path that cannot be read or written
        click.echo(f"error: {exc}", err=True)
        return 2
    except DataError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except NumericalError as exc:
        click.echo(f"error: {exc}", err=True)
        return 4
    except PartialFailure as exc:
        click.echo(f"warning: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
