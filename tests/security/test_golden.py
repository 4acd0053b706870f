"""Golden regression: the engine must reproduce the committed tables.

The fixture pins actual numbers (not just shapes or invariants) for a
fixed-seed mini experiment, so silent numerical drift in the Parzen
scoring, the RNG derivation, or the engine assembly fails loudly.
Intentional changes regenerate it with
``PYTHONPATH=src python -m tests.security.golden --regen``.
"""

import numpy as np
import pytest

from tests.security.golden import (
    FIXTURE_PATH,
    GOLDEN_G_SIZE,
    GOLDEN_H_VALUES,
    GOLDEN_ROOT_ENTROPY,
    compute_golden,
    compute_golden_sweep,
    load_fixture,
)


@pytest.fixture(scope="module")
def fresh():
    return compute_golden()


@pytest.fixture(scope="module")
def sweep():
    return compute_golden_sweep()


@pytest.fixture(scope="module")
def pinned():
    assert FIXTURE_PATH.exists(), (
        "missing golden fixture; run "
        "PYTHONPATH=src python -m tests.security.golden --regen"
    )
    return load_fixture()


class TestGoldenFixture:
    def test_metadata_matches(self, pinned):
        assert pinned["root_entropy"] == GOLDEN_ROOT_ENTROPY
        assert pinned["g_size"] == GOLDEN_G_SIZE
        assert set(pinned["tables"]) == {repr(float(h)) for h in GOLDEN_H_VALUES}

    @pytest.mark.parametrize("h", [repr(float(h)) for h in GOLDEN_H_VALUES])
    @pytest.mark.parametrize("table", ["avg_correct", "avg_incorrect"])
    def test_tables_match(self, fresh, pinned, h, table):
        got = np.asarray(fresh["tables"][h][table])
        want = np.asarray(pinned["tables"][h][table])
        # rtol absorbs libm/BLAS variation across platforms; any real
        # change to scoring or seeding is orders of magnitude larger.
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("h", [repr(float(h)) for h in GOLDEN_H_VALUES])
    @pytest.mark.parametrize("table", ["avg_correct", "avg_incorrect"])
    def test_h_sweep_reproduces_the_fixture(self, fresh, sweep, pinned, h, table):
        # One sweep pass is bitwise the per-h calls the fixture pins,
        # and so matches the fixture exactly as closely as they do.
        np.testing.assert_array_equal(sweep[h][table], fresh["tables"][h][table])
        np.testing.assert_allclose(
            sweep[h][table], pinned["tables"][h][table], rtol=1e-9, atol=1e-12
        )

    def test_correct_dominates_incorrect(self, fresh):
        # Sanity on the fixture's physics: the generator is sharply
        # condition-separated, so Cor likelihood must beat Inc per row.
        for tables in fresh["tables"].values():
            cor = np.asarray(tables["avg_correct"])
            inc = np.asarray(tables["avg_incorrect"])
            assert np.all(cor > inc)
