"""Unit tests for feature extraction and normalization (paper Fig 4)."""

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree

from repro.core import FeatureExtractor, Normalizer
from repro.core.features import TIE_BREAK_PAD, nearest_samples, sample_tree
from repro.datasets.base import TimestepField
from repro.grid import UniformGrid, field_gradients
from repro.obs import RunRecorder, load_run


def _load_benchmark_oracles():
    """``perfbench/oracles.py``, the benchmark's independent references, by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("_perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


brute_force_neighbours = _load_benchmark_oracles().brute_force_neighbours


@pytest.fixture
def extractor():
    return FeatureExtractor(num_neighbors=5)


@pytest.fixture
def normalizer(sample, hurricane_field):
    return FeatureExtractor().fit_normalizer(sample, field=hurricane_field)


class TestNormalizer:
    def test_coords_map_to_unit_cube(self, grid):
        n = Normalizer.fit(grid, np.array([1.0, 2.0]))
        corners = np.array([
            [grid.origin[0], grid.origin[1], grid.origin[2]],
            [grid.extent[0][1], grid.extent[1][1], grid.extent[2][1]],
        ])
        u = n.normalize_coords(corners)
        np.testing.assert_allclose(u[0], [0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(u[1], [1, 1, 1], atol=1e-12)

    def test_outside_domain_allowed(self, grid):
        n = Normalizer.fit(grid, np.array([1.0, 2.0]))
        u = n.normalize_coords(np.array([[1e6, 0.0, 0.0]]))
        assert u[0, 0] > 1.0  # no clamping — Fig 13 relies on this

    def test_value_roundtrip(self, grid, rng):
        values = rng.normal(loc=100, scale=30, size=500)
        n = Normalizer.fit(grid, values)
        z = n.normalize_values(values)
        assert abs(z.mean()) < 1e-9 and z.std() == pytest.approx(1.0)
        np.testing.assert_allclose(n.denormalize_values(z), values)

    def test_constant_values_no_divzero(self, grid):
        n = Normalizer.fit(grid, np.full(10, 7.0))
        assert n.value_std == 1.0
        np.testing.assert_allclose(n.normalize_values(np.array([7.0])), [0.0])

    def test_gradient_roundtrip(self, grid, rng):
        grads = rng.normal(size=(100, 3)) * [1.0, 10.0, 0.1]
        n = Normalizer.fit(grid, rng.normal(size=100), gradients=grads)
        np.testing.assert_allclose(n.denormalize_gradients(n.normalize_gradients(grads)), grads)

    def test_gradient_scale_shared_across_axes(self, grid, rng):
        grads = rng.normal(size=(100, 3)) * [1.0, 10.0, 0.1]
        n = Normalizer.fit(grid, rng.normal(size=100), gradients=grads)
        assert n.gradient_std[0] == n.gradient_std[1] == n.gradient_std[2]

    def test_dict_roundtrip(self, grid, rng):
        n = Normalizer.fit(grid, rng.normal(size=50), gradients=rng.normal(size=(50, 3)))
        n2 = Normalizer.from_dict(n.as_dict())
        np.testing.assert_allclose(n2.origin, n.origin)
        np.testing.assert_allclose(n2.span, n.span)
        assert n2.value_mean == n.value_mean and n2.value_std == n.value_std
        np.testing.assert_allclose(n2.gradient_std, n.gradient_std)


class TestFeatureVector:
    def test_paper_dimensions(self, extractor):
        # 5 neighbors x (x, y, z, value) + void (x, y, z) = 23 (Sec III-D).
        assert extractor.feature_size == 23
        assert extractor.target_size == 4

    def test_no_gradient_target_size(self):
        assert FeatureExtractor(include_gradients=False).target_size == 1

    def test_features_shape(self, extractor, sample, normalizer):
        q = sample.void_points()[:50]
        x = extractor.features(sample, q, normalizer)
        assert x.shape == (50, 23)

    def test_feature_layout(self, sample, normalizer):
        # The last 3 entries are the void location's own coordinates.
        extractor = FeatureExtractor(num_neighbors=5)
        q = sample.void_points()[:10]
        x = extractor.features(sample, q, normalizer)
        np.testing.assert_allclose(x[:, 20:], normalizer.normalize_coords(q))

    def test_neighbors_are_nearest(self, sample, normalizer):
        from scipy.spatial import cKDTree

        extractor = FeatureExtractor(num_neighbors=5)
        q = sample.void_points()[:20]
        x = extractor.features(sample, q, normalizer)
        tree = cKDTree(sample.points)
        _, idx = tree.query(q, k=5)
        expected = normalizer.normalize_coords(sample.points[idx[:, 0]])
        np.testing.assert_allclose(x[:, 0:3], expected)

    def test_neighbor_values_standardized(self, sample, normalizer):
        extractor = FeatureExtractor(num_neighbors=5)
        q = sample.void_points()[:1000]
        x = extractor.features(sample, q, normalizer)
        vals = x[:, 3::4][:, :5]  # value slots of the 5 neighbors
        assert np.abs(vals.mean()) < 1.0  # standardized scale

    def test_fewer_samples_than_k_pads(self, grid, hurricane_field, normalizer):
        from repro.sampling.base import SampledField

        tiny = SampledField(
            grid, np.array([0, 50, 100]), hurricane_field.flat[[0, 50, 100]], 0.01
        )
        extractor = FeatureExtractor(num_neighbors=5)
        x = extractor.features(tiny, grid.points()[:10], normalizer)
        assert x.shape == (10, 23)
        assert np.isfinite(x).all()

    def test_k_validation(self):
        with pytest.raises(ValueError):
            FeatureExtractor(num_neighbors=0)


class TestTargets:
    def test_targets_with_gradients(self, extractor, hurricane_field, sample, normalizer):
        void = sample.void_indices()[:40]
        y = extractor.targets(hurricane_field, void, normalizer)
        assert y.shape == (40, 4)
        expected_scalar = normalizer.normalize_values(hurricane_field.flat[void])
        np.testing.assert_allclose(y[:, 0], expected_scalar)

    def test_targets_gradient_columns(self, extractor, hurricane_field, sample, normalizer):
        void = sample.void_indices()[:40]
        y = extractor.targets(hurricane_field, void, normalizer)
        grads = field_gradients(hurricane_field.grid, hurricane_field.values)[void]
        np.testing.assert_allclose(y[:, 1:], normalizer.normalize_gradients(grads))

    def test_training_data_covers_voids(self, extractor, hurricane_field, sample, normalizer):
        x, y = extractor.training_data(hurricane_field, sample, normalizer)
        n_void = sample.void_indices().size
        assert x.shape == (n_void, 23) and y.shape == (n_void, 4)

    def test_training_data_grid_mismatch(self, extractor, hurricane_field, normalizer):
        from repro.datasets import HurricaneDataset
        from repro.sampling import RandomSampler

        other_grid = UniformGrid((6, 6, 6))
        other_field = HurricaneDataset(grid=other_grid).field(0)
        other_sample = RandomSampler(seed=0).sample(other_field, 0.2)
        with pytest.raises(ValueError):
            extractor.training_data(hurricane_field, other_sample, normalizer)

    def test_fit_normalizer_without_field(self, extractor, sample):
        n = extractor.fit_normalizer(sample)
        assert n.value_std > 0


# ---------------------------------------------------------------------------
# canonical neighbor selection


def padded_lexsort_oracle(tree: cKDTree, query_points: np.ndarray, num_neighbors: int):
    """The padded-query selection ``nearest_samples`` must reproduce row for row.

    Fetch ``k + TIE_BREAK_PAD`` candidates for every query, order them by
    ``(row, distance, index)`` with one global 3-key lexsort and keep the
    first ``k`` of each row; repeat the farthest when ``k`` exceeds the
    sample count.
    """
    k = min(num_neighbors, tree.n)
    kq = min(k + TIE_BREAK_PAD, tree.n)
    dist, idx = tree.query(query_points, k=kq)
    if kq == 1:
        dist, idx = dist[:, None], idx[:, None]
    q = len(idx)
    if kq > 1:
        rows = np.repeat(np.arange(q), kq)
        perm = np.lexsort((idx.ravel(), dist.ravel(), rows)).reshape(q, kq)
        perm -= np.arange(q)[:, None] * kq
        idx = np.take_along_axis(idx, perm[:, :k], axis=1)
    else:
        idx = idx[:, :k]
    if k < num_neighbors:
        idx = np.concatenate([idx, np.repeat(idx[:, -1:], num_neighbors - k, axis=1)], axis=1)
    return idx


@dataclass(frozen=True)
class Cloud:
    """Sample positions, query positions and the neighbor count to select."""

    samples: np.ndarray
    queries: np.ndarray
    k: int


def _lattice_cloud(dims, spacing, indices, k) -> Cloud:
    """Samples at ``indices`` of a lattice; queries at every other lattice point."""
    grid = UniformGrid(dims, spacing=spacing)
    positions = grid.points()
    void = np.ones(grid.num_points, dtype=bool)
    void[indices] = False
    return Cloud(positions[indices], positions[void], k)


@st.composite
def lattice_clouds(draw) -> Cloud:
    """Integer lattices with 1-wide axes allowed, sampled randomly or at a stride."""
    dims = tuple(draw(st.integers(1, 8)) for _ in range(3))
    spacing = tuple(draw(st.sampled_from([0.5, 1.0, 1.5])) for _ in range(3))
    n = int(np.prod(dims))
    if draw(st.booleans()):
        stride = draw(st.integers(2, 4))
        indices = np.arange(draw(st.integers(0, stride - 1)) % n, n, stride)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        indices = np.sort(rng.choice(n, size=draw(st.integers(1, n)), replace=False))
    return _lattice_cloud(dims, spacing, indices, draw(st.integers(1, 8)))


@st.composite
def float_clouds(draw) -> Cloud:
    """Random float positions, optionally snapped to a coarse grid to force ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    samples = rng.random((draw(st.integers(1, 60)), 3))
    queries = rng.random((draw(st.integers(0, 40)), 3))
    if draw(st.booleans()):
        samples, queries = np.round(samples * 4) / 4, np.round(queries * 4) / 4
    return Cloud(samples, queries, draw(st.integers(1, 8)))


STRIDE_LATTICES = [
    _lattice_cloud((10, 10, 7), (1.0, 1.0, 1.0), np.arange(0, 700, stride), 5)
    for stride in (2, 3, 4)
]
ONE_SAMPLE = Cloud(np.zeros((1, 3)), np.random.default_rng(1).random((7, 3)), 5)
K_EQUALS_N = Cloud(np.eye(3) * [1.0, 2.0, 3.0], np.random.default_rng(2).random((9, 3)), 3)
K_PLUS_ONE_EQUALS_N = _lattice_cloud((2, 2, 2), (1.0, 1.0, 1.0), np.arange(0, 8, 2), 3)
K_ABOVE_N = _lattice_cloud((3, 3, 1), (1.0, 1.0, 1.0), np.array([0, 4, 8]), 6)
NO_QUERIES = Cloud(np.random.default_rng(3).random((10, 3)), np.empty((0, 3)), 5)
ONE_WIDE_AXES = _lattice_cloud((9, 1, 1), (1.0, 1.0, 1.0), np.array([0, 2, 4, 6, 8]), 2)


def _check_selection(cloud: Cloud) -> None:
    tree = sample_tree(cloud.samples)
    got = nearest_samples(tree, cloud.queries, cloud.k)
    want = padded_lexsort_oracle(tree, cloud.queries, cloud.k)
    assert got.shape == want.shape == (len(cloud.queries), cloud.k)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)

    # Per-row purity: chunk and shard slabs query row subsets.
    rows = np.random.default_rng(len(cloud.queries)).permutation(len(cloud.queries))
    rows = rows[: (len(rows) + 1) // 2]
    np.testing.assert_array_equal(nearest_samples(tree, cloud.queries[rows], cloud.k), got[rows])

    # Where the tie group at the cut closes inside the padded list, the
    # selection is the (distance, index) order over *all* samples.
    k = min(cloud.k, tree.n)
    kq = min(k + TIE_BREAK_PAD, tree.n)
    if len(cloud.queries) == 0:
        return
    dist, _ = tree.query(cloud.queries, k=kq)
    dist = dist.reshape(len(cloud.queries), kq)
    closed = (kq == tree.n) | (dist[:, k - 1] < dist[:, -1])
    brute = brute_force_neighbours(cloud.samples, cloud.queries[closed], k)
    np.testing.assert_array_equal(got[closed, :k], brute)


class TestCanonicalSelection:
    """``nearest_samples`` equals the padded query + 3-key lexsort, row for row."""

    @settings(max_examples=150, deadline=None)
    @given(cloud=lattice_clouds())
    @example(cloud=STRIDE_LATTICES[0])
    @example(cloud=STRIDE_LATTICES[1])
    @example(cloud=STRIDE_LATTICES[2])
    @example(cloud=K_PLUS_ONE_EQUALS_N)
    @example(cloud=K_ABOVE_N)
    @example(cloud=ONE_WIDE_AXES)
    def test_lattices_match_the_padded_lexsort(self, cloud):
        _check_selection(cloud)

    @settings(max_examples=100, deadline=None)
    @given(cloud=float_clouds())
    @example(cloud=ONE_SAMPLE)
    @example(cloud=K_EQUALS_N)
    @example(cloud=NO_QUERIES)
    def test_float_clouds_match_the_padded_lexsort(self, cloud):
        _check_selection(cloud)

    def test_stride_lattices_take_the_requery_path(self, tmp_path):
        """Most voids of a regular lattice are tied at the cut and re-queried."""
        for i, cloud in enumerate(STRIDE_LATTICES):
            with RunRecorder(tmp_path / str(i)):
                nearest_samples(sample_tree(cloud.samples), cloud.queries, cloud.k)
            counters = load_run(tmp_path / str(i)).metrics["counters"]
            assert counters["features.canonical.rows"] == len(cloud.queries)
            assert counters["features.canonical.requeried"] > len(cloud.queries) // 2

    def test_untied_float_cloud_is_never_requeried(self, tmp_path):
        rng = np.random.default_rng(4)
        samples, queries = rng.random((500, 3)), rng.random((2000, 3))
        with RunRecorder(tmp_path / "run"):
            nearest_samples(sample_tree(samples), queries, 5)
        record = load_run(tmp_path / "run")
        assert record.metrics["counters"]["features.canonical.rows"] == 2000
        assert record.metrics["counters"]["features.canonical.requeried"] == 0
        names = {r.name for r in record.roots}
        assert {"features.kd_query", "features.tie_break"} <= names
