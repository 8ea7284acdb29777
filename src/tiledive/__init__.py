"""Compare exploratory-mining results on binary data as sets of noisy tiles."""

from .core import (
    BinaryDataset,
    FreqTile,
    Tile,
    TileSet,
    annotate,
    empirical_frequency,
)
from .convert import (
    BACKGROUND_PRESETS,
    ClusteringResult,
    ConversionResult,
    ItemsetResult,
    background_tiles,
    clustering_to_tiles,
    density_tile,
    itemsets_to_tiles,
    margin_tiles,
)
from .divergence import DistanceReport, distance, distance_matrix, jaccard_distance, kl
from .io import read_dataset, read_tileset, write_dataset, write_tileset
from .maxent import (
    EntryModel,
    FitOptions,
    exact_fastpath,
    fit,
    model_frequency,
)
from .rank import Ranking, fitamin, surprise_score
from .redescribe import Redescription, fruits

__all__ = [
    "BACKGROUND_PRESETS",
    "BinaryDataset",
    "ClusteringResult",
    "ConversionResult",
    "DistanceReport",
    "EntryModel",
    "FitOptions",
    "FreqTile",
    "ItemsetResult",
    "Ranking",
    "Redescription",
    "Tile",
    "TileSet",
    "annotate",
    "background_tiles",
    "clustering_to_tiles",
    "density_tile",
    "distance",
    "distance_matrix",
    "empirical_frequency",
    "exact_fastpath",
    "fit",
    "fitamin",
    "fruits",
    "itemsets_to_tiles",
    "jaccard_distance",
    "kl",
    "margin_tiles",
    "model_frequency",
    "read_dataset",
    "read_tileset",
    "surprise_score",
    "write_dataset",
    "write_tileset",
]

__version__ = "0.1.0"
