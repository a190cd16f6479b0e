"""Micro-benchmarks of the library's hot kernels.

Unlike the figure/table benches (one-shot experiment regeneration), these
use pytest-benchmark's normal multi-round timing to track the cost of the
individual building blocks: sampler draws, feature extraction, NN
forward/backward, canonical neighbor selection, and each interpolator's
void fill.
"""

import numpy as np
import pytest

from repro.core import FCNNReconstructor, FeatureExtractor
from repro.core.features import nearest_samples, sample_tree
from repro.datasets import HurricaneDataset
from repro.datasets.registry import make_dataset
from repro.interpolation import make_interpolator
from repro.nn import Adam, MSELoss, mlp
from repro.sampling import MultiCriteriaSampler, RandomSampler


@pytest.fixture(scope="module")
def field():
    grid = HurricaneDataset.default_grid().with_resolution((30, 30, 10))
    return HurricaneDataset(grid=grid).field(t=0)


@pytest.fixture(scope="module")
def sample(field):
    return MultiCriteriaSampler(seed=0).sample(field, 0.02)


class TestSamplerKernels:
    def test_random_sampler(self, benchmark, field):
        sampler = RandomSampler(seed=0)
        benchmark(sampler.sample, field, 0.02)

    def test_multicriteria_sampler(self, benchmark, field):
        sampler = MultiCriteriaSampler(seed=0)
        benchmark(sampler.sample, field, 0.02)


class TestFeatureKernels:
    def test_feature_extraction(self, benchmark, field, sample):
        extractor = FeatureExtractor()
        normalizer = extractor.fit_normalizer(sample, field=field)
        query = sample.void_points()
        benchmark(extractor.features, sample, query, normalizer)

    def test_training_data_assembly(self, benchmark, field, sample):
        extractor = FeatureExtractor()
        normalizer = extractor.fit_normalizer(sample, field=field)
        benchmark(extractor.training_data, field, sample, normalizer)


class TestNeighborSelection:
    @pytest.fixture(scope="class")
    def cold_geometry(self, bench_profile):
        """A never-seen 1% draw of the cold-reconstruct shape (ionization, k=5).

        64x64x32 grid; 32x32x16 under ``--bench-profile=quick``.
        """
        dims = (32, 32, 16) if bench_profile == "quick" else (64, 64, 32)
        field = make_dataset("ionization", dims=dims, seed=0).field(0)
        sample = MultiCriteriaSampler(seed=17).sample(field, 0.01)
        return sample_tree(sample.points), sample.void_points()

    def test_nearest_samples_canonical(self, benchmark, cold_geometry):
        tree, query = cold_geometry
        benchmark(nearest_samples, tree, query, 5)


class TestNNKernels:
    @pytest.fixture(scope="class")
    def batch(self):
        rng = np.random.default_rng(0)
        return rng.normal(size=(4096, 23)), rng.normal(size=(4096, 4))

    def test_forward(self, benchmark, batch):
        model = mlp(23, [128, 64, 32, 16], 4, seed=0)
        x, _ = batch
        benchmark(model.forward, x)

    def test_train_step(self, benchmark, batch):
        model = mlp(23, [128, 64, 32, 16], 4, seed=0)
        loss = MSELoss()
        opt = Adam(model.parameters())
        x, y = batch

        def step():
            pred = model.forward(x)
            opt.zero_grad()
            model.backward(loss.gradient(pred, y))
            opt.step()

        benchmark(step)


class TestInterpolatorKernels:
    @pytest.mark.parametrize("name", ["nearest", "shepard", "linear", "natural"])
    def test_reconstruct(self, benchmark, name, sample):
        method = make_interpolator(name)
        benchmark.pedantic(method.reconstruct, args=(sample,), rounds=3, iterations=1)


class TestFCNNInference:
    def test_fcnn_reconstruct(self, benchmark, field, sample):
        model = FCNNReconstructor(hidden_layers=(64, 32, 16), batch_size=4096, seed=0)
        model.train(field, sample, epochs=3)
        benchmark.pedantic(model.reconstruct, args=(sample,), rounds=3, iterations=1)
