"""Command-line front end.

Subcommands: convert (itemsets | clustering | margins | density),
distance, distance-matrix, redescribe, rank, model dump. Exit status is
0 on success, 2 on input errors, 3 on numerical failures; any other
error is a bug and surfaces as a traceback.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .convert import (
    BACKGROUND_PRESETS,
    background_tiles,
    clustering_to_tiles,
    density_tile,
    itemsets_to_tiles,
    margin_tiles,
)
from .core import BinaryDataset, TileSet
from .divergence import distance, distance_matrix
from .errors import InputError, InputFormatError, TilediveError
from .io import read_clustering, read_dataset, read_itemsets, read_tileset
from .io import tile_record, tileset_to_lines
from .maxent import FitOptions, fit
from .rank import fitamin
from .redescribe import fruits

EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

_INPUT_ERRORS = (InputError, OSError)


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        click.echo(text, nl=False)


def _load_background(spec: str, data: BinaryDataset) -> TileSet:
    if spec in BACKGROUND_PRESETS:
        return background_tiles(spec, data)
    if Path(spec).exists():
        return read_tileset(spec, data=data)
    raise InputFormatError(
        f"background {spec!r} is neither a preset ({', '.join(BACKGROUND_PRESETS)}) "
        f"nor an existing tile file"
    )


class _Cli(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _INPUT_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT_ERROR)
        except TilediveError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL_ERROR)


@click.group(cls=_Cli)
def main():
    """Measure, redescribe, and rank binary-data mining results as noisy tiles."""


fit_options = click.option(
    "--tolerance", type=float, default=1e-6, show_default=True,
    help="Max per-tile frequency residual, in (0, 1).",
)


@main.group()
def convert():
    """Convert mining results into tile-set files."""


@convert.command("itemsets")
@click.argument("input_file", type=click.Path(exists=True))
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--output", type=click.Path(), default=None)
def convert_itemsets(input_file, data, output):
    """Convert itemsets (one per line, column ids) into exact tiles."""
    ds = read_dataset(data)
    result = itemsets_to_tiles(read_itemsets(input_file), ds)
    if result.skipped:
        click.echo(f"warning: skipped {result.skipped} itemset(s) with empty support", err=True)
    _emit(tileset_to_lines(result.tiles), output)


@convert.command("clustering")
@click.argument("input_file", type=click.Path(exists=True))
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["single-tile", "per-column"]), default="per-column", show_default=True)
@click.option("--output", type=click.Path(), default=None)
def convert_clustering(input_file, data, mode, output):
    """Convert a clustering ("row cluster" pairs, one per line) into tiles."""
    ts = clustering_to_tiles(read_clustering(input_file), read_dataset(data), mode)
    _emit(tileset_to_lines(ts), output)


@convert.command("margins")
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--axis", type=click.Choice(["columns", "rows"]), default="columns", show_default=True)
@click.option("--output", type=click.Path(), default=None)
def convert_margins(data, axis, output):
    """Emit one margin tile per column (or row)."""
    ds = read_dataset(data)
    _emit(tileset_to_lines(margin_tiles(ds, axis)), output)


@convert.command("density")
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--output", type=click.Path(), default=None)
def convert_density(data, output):
    """Emit a single whole-data tile at the global density."""
    ds = read_dataset(data)
    _emit(tileset_to_lines(density_tile(ds)), output)


@main.command("distance")
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--left", required=True, type=click.Path(exists=True))
@click.option("--right", required=True, type=click.Path(exists=True))
@click.option("--background", default="none", show_default=True,
              help="Preset name or tile-set file.")
@fit_options
@click.option("--format", "fmt", type=click.Choice(["tsv", "jsonl"]), default="tsv", show_default=True)
@click.option("--output", type=click.Path(), default=None)
def distance_cmd(data, left, right, background, tolerance, fmt, output):
    """Distance between two tile-set files given background knowledge."""
    ds = read_dataset(data)
    t = read_tileset(left, data=ds)
    u = read_tileset(right, data=ds)
    b = _load_background(background, ds)
    report = distance(t, u, b, FitOptions(tolerance=tolerance))
    if fmt == "jsonl":
        _emit([json.dumps({
            "distance": report.value,
            "kl_joint_left": report.kl_m_t,
            "kl_joint_right": report.kl_m_u,
            "kl_joint_background": report.kl_m_b,
            "used_jaccard_path": report.used_jaccard_path,
        })], output)
    else:
        _emit([f"{report.value:.6f}"], output)


@main.command("distance-matrix")
@click.argument("tile_files", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--background", default="none", show_default=True)
@fit_options
@click.option("--output", type=click.Path(), default=None)
def distance_matrix_cmd(tile_files, data, background, tolerance, output):
    """Pairwise distance matrix over tile-set files, as TSV."""
    ds = read_dataset(data)
    sets = [read_tileset(f, data=ds) for f in tile_files]
    b = _load_background(background, ds)
    values = distance_matrix(sets, b, FitOptions(tolerance=tolerance))
    names = [Path(f).name for f in tile_files]
    lines = ["\t".join([""] + names)]
    for name, row in zip(names, values):
        lines.append("\t".join([name] + [f"{v:.17g}" for v in row]))
    _emit(lines, output)


@main.command("redescribe")
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--target", required=True, type=click.Path(exists=True))
@click.option("--candidates", required=True, type=click.Path(exists=True))
@click.option("--background", default="none", show_default=True)
@fit_options
@click.option("--output", type=click.Path(), default=None)
def redescribe_cmd(data, target, candidates, background, tolerance, output):
    """Greedily pick candidate tiles that redescribe the target set."""
    ds = read_dataset(data)
    t = read_tileset(target, data=ds)
    c = read_tileset(candidates, data=ds)
    b = _load_background(background, ds)
    result = fruits(t, c, b, FitOptions(tolerance=tolerance))
    lines = [
        json.dumps({"step": i + 1, "tile": tile_record(ft), "distance": d})
        for i, (ft, d) in enumerate(zip(result.selected, result.trace))
    ]
    _emit(lines if lines else [json.dumps({"step": 0, "tile": None, "distance": result.final_distance})], output)


@main.command("rank")
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--tiles", required=True, type=click.Path(exists=True))
@click.option("--background", default="none", show_default=True)
@click.option("--mode", type=click.Choice(["exact", "heuristic"]), default="exact", show_default=True)
@fit_options
@click.option("--output", type=click.Path(), default=None)
def rank_cmd(data, tiles, background, mode, tolerance, output):
    """Order tiles so each adds maximal novel information."""
    ds = read_dataset(data)
    ts = read_tileset(tiles, data=ds)
    b = _load_background(background, ds)
    ranking = fitamin(ts, b, mode, FitOptions(tolerance=tolerance))
    lines = [
        json.dumps({"step": i + 1, "tile": tile_record(ft), "distance_after": d, "gain": g})
        for i, (ft, d, g) in enumerate(zip(ranking.order, ranking.trace, ranking.gains))
    ]
    _emit(lines, output)


@main.group()
def model():
    """Inspect fitted maximum-entropy models."""


@model.command("dump")
@click.option("--data", required=True, type=click.Path(exists=True))
@click.option("--tiles", required=True, type=click.Path(exists=True))
@click.option("--background", default="none", show_default=True)
@fit_options
@click.option("--output", type=click.Path(), default=None)
def model_dump(data, tiles, background, tolerance, output):
    """Fit the model for a tile set and dump its probability matrix as TSV."""
    ds = read_dataset(data)
    ts = read_tileset(tiles, data=ds)
    b = _load_background(background, ds)
    m = fit(ts.union(b), FitOptions(tolerance=tolerance))
    lines = ["\t".join(f"{v:.17g}" for v in row) for row in m.p]
    _emit(lines, output)


if __name__ == "__main__":
    main()
