"""Command-line front end.

Subcommands: convert (itemsets | clustering | margins | density),
distance, distance-matrix, redescribe, rank, model dump. Every command
takes `--data` and `--output`; the fitting commands also take
`--background` and `--tolerance`. Exit status is 0 on success, 2 on
input errors, 3 on numerical failures; any other error is a bug and
surfaces as a traceback.
"""

from __future__ import annotations

import functools
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
from .divergence import distance, distance_matrix
from .errors import InputError, InputFormatError, TilediveError
from .io import read_clustering, read_dataset, read_itemsets, read_tileset
from .io import tile_record, tileset_to_lines
from .maxent import FitOptions, fit
from .rank import fitamin
from .redescribe import fruits

EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


def _on_data(command):
    """Add --data and --output. The command gets the dataset in place of
    the --data path and returns its output lines, written to --output or
    stdout with a newline after each. `functools.wraps` keeps the
    command's docstring and the options click stored in its `__dict__`."""
    @click.option("--data", required=True, type=click.Path(exists=True))
    @click.option("--output", type=click.Path(), default=None)
    @functools.wraps(command)
    def run(data, output, **kwargs):
        text = "".join(line + "\n" for line in command(read_dataset(data), **kwargs))
        if output:
            Path(output).write_text(text)
        else:  # click.echo's stream cache would keep each redirected stream alive
            sys.stdout.write(text)
    return run


def _fitting(command):
    """Add --background and --tolerance. The command gets the background
    tile set `b` and the fit options `opts` after the dataset."""
    @click.option("--background", default="none", show_default=True,
                  help="Preset name or tile-set file.")
    @click.option("--tolerance", type=float, default=1e-6, show_default=True,
                  help="Max per-tile frequency residual, in (0, 1).")
    @functools.wraps(command)
    def run(ds, background, tolerance, **kwargs):
        if background in BACKGROUND_PRESETS:
            b = background_tiles(background, ds)
        elif Path(background).exists():
            b = read_tileset(background, data=ds)
        else:
            raise InputFormatError(
                f"background {background!r} is neither a preset ({', '.join(BACKGROUND_PRESETS)}) "
                f"nor an existing tile file"
            )
        return command(ds, b, FitOptions(tolerance=tolerance), **kwargs)
    return run


class _Cli(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (InputError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(EXIT_INPUT_ERROR)
        except TilediveError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            sys.exit(EXIT_NUMERICAL_ERROR)


@click.group(cls=_Cli)
def main():
    """Measure, redescribe, and rank binary-data mining results as noisy tiles."""


@main.group()
def convert():
    """Convert mining results into tile-set files."""


@convert.command("itemsets")
@click.argument("input_file", type=click.Path(exists=True))
@_on_data
def convert_itemsets(ds, input_file):
    """Convert itemsets (one per line, column ids) into exact tiles."""
    result = itemsets_to_tiles(read_itemsets(input_file, ds), ds)
    if result.skipped:
        print(f"warning: skipped {result.skipped} itemset(s) with empty support", file=sys.stderr)
    return tileset_to_lines(result.tiles)


@convert.command("clustering")
@click.argument("input_file", type=click.Path(exists=True))
@_on_data
@click.option("--mode", type=click.Choice(["single-tile", "per-column"]), default="per-column", show_default=True)
def convert_clustering(ds, input_file, mode):
    """Convert a clustering ("row cluster" pairs, one per line) into tiles."""
    return tileset_to_lines(clustering_to_tiles(read_clustering(input_file, ds), ds, mode))


@convert.command("margins")
@_on_data
@click.option("--axis", type=click.Choice(["columns", "rows"]), default="columns", show_default=True)
def convert_margins(ds, axis):
    """Emit one margin tile per column (or row)."""
    return tileset_to_lines(margin_tiles(ds, axis))


@convert.command("density")
@_on_data
def convert_density(ds):
    """Emit a single whole-data tile at the global density."""
    return tileset_to_lines(density_tile(ds))


@main.command("distance")
@_on_data
@click.option("--left", required=True, type=click.Path(exists=True))
@click.option("--right", required=True, type=click.Path(exists=True))
@_fitting
@click.option("--format", "fmt", type=click.Choice(["tsv", "jsonl"]), default="tsv", show_default=True)
def distance_cmd(ds, b, opts, left, right, fmt):
    """Distance between two tile-set files given background knowledge."""
    report = distance(read_tileset(left, data=ds), read_tileset(right, data=ds), b, opts)
    if fmt == "tsv":
        return [f"{report.value:.6f}"]
    return [json.dumps({
        "distance": report.value,
        "kl_joint_left": report.kl_m_t,
        "kl_joint_right": report.kl_m_u,
        "kl_joint_background": report.kl_m_b,
        "used_jaccard_path": report.used_jaccard_path,
    })]


@main.command("distance-matrix")
@click.argument("tile_files", nargs=-1, required=True, type=click.Path(exists=True))
@_on_data
@_fitting
def distance_matrix_cmd(ds, b, opts, tile_files):
    """Pairwise distance matrix over tile-set files, as TSV."""
    values = distance_matrix([read_tileset(f, data=ds) for f in tile_files], b, opts)
    names = [Path(f).name for f in tile_files]
    return ["\t".join([""] + names)] + [
        "\t".join([name] + [f"{v:.17g}" for v in row]) for name, row in zip(names, values)
    ]


@main.command("redescribe")
@_on_data
@click.option("--target", required=True, type=click.Path(exists=True))
@click.option("--candidates", required=True, type=click.Path(exists=True))
@_fitting
def redescribe_cmd(ds, b, opts, target, candidates):
    """Greedily pick candidate tiles that redescribe the target set."""
    result = fruits(read_tileset(target, data=ds), read_tileset(candidates, data=ds), b, opts)
    if not result.selected:
        return [json.dumps({"step": 0, "tile": None, "distance": result.final_distance})]
    return [
        json.dumps({"step": i + 1, "tile": tile_record(ft), "distance": d})
        for i, (ft, d) in enumerate(zip(result.selected, result.trace))
    ]


@main.command("rank")
@_on_data
@click.option("--tiles", required=True, type=click.Path(exists=True))
@_fitting
@click.option("--mode", type=click.Choice(["exact", "heuristic"]), default="exact", show_default=True)
def rank_cmd(ds, b, opts, tiles, mode):
    """Order tiles so each adds maximal novel information."""
    ranking = fitamin(read_tileset(tiles, data=ds), b, mode, opts)
    return [
        json.dumps({"step": i + 1, "tile": tile_record(ft), "distance_after": d, "gain": g})
        for i, (ft, d, g) in enumerate(zip(ranking.order, ranking.trace, ranking.gains))
    ]


@main.group()
def model():
    """Inspect fitted maximum-entropy models."""


@model.command("dump")
@_on_data
@click.option("--tiles", required=True, type=click.Path(exists=True))
@_fitting
def model_dump(ds, b, opts, tiles):
    """Fit the model for a tile set and dump its probability matrix as TSV."""
    m = fit(read_tileset(tiles, data=ds).union(b), opts)
    return ["\t".join(f"{v:.17g}" for v in row) for row in m.p]


if __name__ == "__main__":
    main()
