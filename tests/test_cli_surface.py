"""The CLI's command tree, options and defaults, and its output framing."""

import click
import click.core
import pytest
from click.testing import CliRunner

from tiledive.cli import main

# click >= 8.3 marks an option without a default with a sentinel, older
# releases with None.
_NO_DEFAULT = getattr(click.core, "UNSET", None)

_FIT = {("background", "none", False), ("tolerance", 1e-6, False)}
_DATA = {("data", None, True), ("output", None, False)}

# (parameter name, default, required) of every subcommand.
SURFACE = {
    ("convert", "itemsets"): _DATA | {("input_file", None, True)},
    ("convert", "clustering"): _DATA | {("input_file", None, True), ("mode", "per-column", False)},
    ("convert", "margins"): _DATA | {("axis", "columns", False)},
    ("convert", "density"): _DATA,
    ("distance",): _DATA | _FIT | {
        ("left", None, True), ("right", None, True), ("fmt", "tsv", False)},
    ("distance-matrix",): _DATA | _FIT | {("tile_files", None, True)},
    ("redescribe",): _DATA | _FIT | {("target", None, True), ("candidates", None, True)},
    ("rank",): _DATA | _FIT | {("tiles", None, True), ("mode", "exact", False)},
    ("model", "dump"): _DATA | _FIT | {("tiles", None, True)},
}


def _commands(cmd, path=()):
    if isinstance(cmd, click.Group):
        for name, sub in cmd.commands.items():
            yield from _commands(sub, path + (name,))
    else:
        yield path, cmd


def _surface(cmd) -> set:
    return {(p.name, None if p.default is _NO_DEFAULT else p.default, p.required)
            for p in cmd.params}


def test_every_subcommand_keeps_its_parameters():
    assert {path: _surface(cmd) for path, cmd in _commands(main)} == SURFACE


@pytest.mark.parametrize("path", [(), ("convert",), ("model",), *SURFACE],
                         ids=lambda path: " ".join(path) or "main")
def test_help_exits_zero(path):
    result = CliRunner().invoke(main, [*path, "--help"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("Usage:")


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.txt").write_text("5 5\n1-2 5\n1-2\n4-5\n3-5\n3-5\n")
    return tmp_path


def test_empty_output_is_zero_lines(workdir):
    (workdir / "empty.tiles").write_text("")
    result = CliRunner().invoke(main, ["rank", "--data", "data.txt", "--tiles", "empty.tiles"])
    assert result.exit_code == 0
    assert result.output == ""


def test_every_itemset_skipped_writes_an_empty_file(workdir):
    (workdir / "sets.txt").write_text("1 4\n")  # no row holds both columns
    result = CliRunner().invoke(
        main, ["convert", "itemsets", "sets.txt", "--data", "data.txt", "--output", "out.tiles"]
    )
    assert result.exit_code == 0
    assert "skipped 1 itemset(s)" in result.output
    assert (workdir / "out.tiles").read_bytes() == b""
