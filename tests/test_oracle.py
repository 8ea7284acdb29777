"""Cross-checks between the brute-force joint model and the entry model.

These are the tests that justify trusting the closed entrywise form:
IPF over the explicit dataset space knows nothing about factorization,
so agreement here is independent evidence.
"""

import math

import numpy as np
import pytest

from tiledive import (
    BinaryDataset,
    FreqTile,
    Tile,
    TileSet,
    background_tiles,
    fit,
    kl,
)
from tiledive.maxent import FitOptions, _fold

from conftest import make_set, random_annotated_set, random_dataset
from oracle import JointDistribution, SizeLimit, entropy, ipf_maxent, joint_kl

TIGHT = FitOptions(tolerance=1e-12)


def joint_entropy(joint: JointDistribution) -> float:
    w = joint.weights[joint.weights > 0.0]
    return float(-(w * np.log(w)).sum())


class TestIpfBasics:
    def test_empty_set_is_uniform(self):
        joint = ipf_maxent(TileSet((2, 3)))
        assert np.allclose(joint.weights, 1.0 / 64)
        assert np.allclose(joint.entry_marginals(), 0.5)

    def test_size_cap(self):
        with pytest.raises(SizeLimit):
            ipf_maxent(TileSet((5, 4)))

    def test_exact_tile_support(self):
        ts = TileSet((2, 2), (FreqTile(Tile([1], [1, 2]), 1.0),))
        joint = ipf_maxent(ts)
        # datasets whose first row is not (1, 1) must carry zero mass
        marg = joint.entry_marginals()
        assert marg[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert marg[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert marg[1, 0] == pytest.approx(0.5, abs=1e-10)

    def test_single_noisy_tile_marginals(self):
        ts = TileSet((2, 2), (FreqTile(Tile([1, 2], [1, 2]), 0.25),))
        joint = ipf_maxent(ts)
        assert np.allclose(joint.entry_marginals(), 0.25, atol=1e-9)


class TestAgreementWithEntryModel:
    def test_random_marginals_match(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            data = random_dataset(rng, 4, 4)
            ts = random_annotated_set(rng, data, 3)
            joint = ipf_maxent(ts)
            model = fit(ts, TIGHT)
            assert np.allclose(joint.entry_marginals(), model.p, atol=1e-7)

    def test_joint_factorizes_into_entries(self):
        rng = np.random.default_rng(42)
        data = random_dataset(rng, 3, 4)
        ts = random_annotated_set(rng, data, 3)
        joint = ipf_maxent(ts)
        marg = joint.entry_marginals().ravel()
        idx = np.arange(len(joint.weights))
        product = np.ones_like(joint.weights)
        for bit, q in enumerate(marg):
            on = ((idx >> bit) & 1) == 1
            product *= np.where(on, q, 1.0 - q)
        assert np.allclose(joint.weights, product, atol=1e-8)

    def test_entropy_matches(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            data = random_dataset(rng, 4, 4)
            ts = random_annotated_set(rng, data, 3)
            assert joint_entropy(ipf_maxent(ts)) == pytest.approx(
                entropy(fit(ts, TIGHT)), abs=1e-6
            )

    def test_kl_matches(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            data = random_dataset(rng, 4, 4)
            big = random_annotated_set(rng, data, 4)
            small = TileSet(big.dims, big.tiles[:2])
            oracle_value = joint_kl(ipf_maxent(big), ipf_maxent(small))
            model_value = kl(fit(big, TIGHT), fit(small, TIGHT))
            assert oracle_value == pytest.approx(model_value, abs=1e-5)


class TestDerivedGoldens:
    def test_density_of_reference_grid(self, toy_data):
        # whole-grid density tile fitted both ways: 13 ones out of 25
        ones = int(toy_data.entries.sum())
        assert ones == 13
        data4 = BinaryDataset(toy_data.entries[:4, :4])
        ts = make_set(data4, Tile(range(1, 5), range(1, 5)))
        joint = ipf_maxent(ts)
        expected = float(data4.entries.mean())
        assert np.allclose(joint.entry_marginals(), expected, atol=1e-9)
        assert np.allclose(fit(ts, TIGHT).p, expected, atol=1e-9)

    def test_kl_of_column_margins(self, toy_data):
        data4 = BinaryDataset(toy_data.entries[:4, :4])
        cols = make_set(
            data4, *(Tile(range(1, 5), [j]) for j in range(1, 5))
        )
        empty = TileSet(data4.dims)
        oracle_value = joint_kl(ipf_maxent(cols), ipf_maxent(empty))
        assert kl(fit(cols, TIGHT), fit(empty, TIGHT)) == pytest.approx(
            oracle_value, abs=1e-6
        )


class TestFoldedFits:
    """Fits whose rows or columns fold into groups, and whose margin
    tiles merge, against the brute-force joint."""

    # rows 1 and 2 have equal sums, as have columns 1 and 2; row 4 and
    # column 4 are all zeros
    REPEATED = BinaryDataset([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]])

    @pytest.mark.parametrize("background", ["rows", "columns", "columns+rows"])
    def test_margin_fit_matches_the_oracle(self, background):
        ts = background_tiles(background, self.REPEATED)
        assert len(_fold(ts).parts) < len(ts)
        np.testing.assert_allclose(fit(ts, TIGHT).p, ipf_maxent(ts).entry_marginals(),
                                   rtol=0, atol=1e-9)

    def test_merged_single_entry_tiles_match_the_oracle(self):
        # four single-entry tiles at one frequency fold rows 1-2 and
        # columns 1-2 into one cell, which they fill as one merged tile
        cells = TileSet((4, 4), tuple(FreqTile(Tile([i], [j]), 0.25)
                                      for i in (1, 2) for j in (1, 2)))
        ts = cells.union(make_set(self.REPEATED, Tile([1, 2, 3], [1, 2, 3])))
        assert len(_fold(ts).parts) == 2
        np.testing.assert_allclose(fit(ts, TIGHT).p, ipf_maxent(ts).entry_marginals(),
                                   rtol=0, atol=1e-9)

    def test_random_folded_fits_match_the_oracle(self):
        rng = np.random.default_rng(45)
        for _ in range(6):
            data = random_dataset(rng, 4, 4)
            ts = random_annotated_set(rng, data, 1).union(
                background_tiles("columns+rows", data))
            np.testing.assert_allclose(fit(ts, TIGHT).p, ipf_maxent(ts).entry_marginals(),
                                       rtol=0, atol=1e-9)
