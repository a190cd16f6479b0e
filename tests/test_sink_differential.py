"""Differential harness: every reconstruction sink against one serial oracle.

The oracle is :meth:`FCNNReconstructor.reconstruct` on a plain
:class:`SampledField`.  The in-process :class:`LocalReconstructionSink`
and the shared-memory :class:`WarmReconstructionPool` must reproduce it
bit for bit on an unsharded geometry (bound as a 1x1x1 shard plan with
halo 0) and on every sharded geometry whose
:meth:`ShardedCampaignGeometry.seam_check` is exact.  Where the seams are
not provably exact the sinks must still agree with each other, keep the
published sample values and leave no void unfilled.

Hypothesis draws grids, sampling layouts (random and tie-heavy lattices),
shard counts, halos and neighbor counts; the degenerate inputs (zero
voids, k > samples, a single sample, a tied lattice, a 1-wide axis) are
pinned as explicit examples.  One persistent executor serves every pool
in the module, so the pooled path costs one worker start-up in total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.spatial import cKDTree

from repro.core import FCNNReconstructor, Normalizer
from repro.grid import UniformGrid
from repro.parallel import ParallelExecutor
from repro.perf.campaign import (
    CampaignGeometry,
    LocalReconstructionSink,
    WarmReconstructionPool,
)
from repro.perf.weights import restore_weights, snapshot_weights
from repro.sampling.base import SampledField
from repro.shard import ShardPlan, ShardedCampaignGeometry

#: Three publishes through two slots: the ring wraps once per example.
TIMESTEPS = (0, 1, 2)


@dataclass(frozen=True)
class Case:
    dims: tuple[int, int, int]
    indices: tuple[int, ...]
    counts: tuple[int, int, int]
    halo: int
    k: int
    seed: int


@st.composite
def cases(draw) -> Case:
    dims = tuple(draw(st.integers(1, 7)) for _ in range(3))
    n = int(np.prod(dims))
    if draw(st.booleans()):
        # A regular lattice: equidistant neighbors everywhere, so the
        # canonical (distance, index) tie-break decides most selections.
        stride = draw(st.integers(1, 4))
        indices = tuple(range(draw(st.integers(0, stride - 1)) % n, n, stride))
    else:
        count = draw(st.integers(1, n))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        indices = tuple(int(i) for i in np.sort(rng.choice(n, size=count, replace=False)))
    counts = tuple(draw(st.integers(1, min(3, d))) for d in dims)
    return Case(
        dims=dims,
        indices=indices,
        counts=counts,
        halo=draw(st.integers(0, 7)),
        k=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 1000)),
    )


ZERO_VOIDS = Case((3, 3, 2), tuple(range(18)), (2, 1, 1), 2, 5, 1)
K_ABOVE_SAMPLES = Case((4, 4, 3), (0, 17, 40), (2, 1, 1), 4, 5, 2)
SINGLE_SAMPLE = Case((4, 3, 2), (7,), (1, 1, 1), 0, 5, 3)
TIED_LATTICE = Case((6, 6, 4), tuple(range(0, 144, 2)), (2, 2, 1), 6, 5, 4)
ONE_WIDE_AXIS = Case((8, 1, 5), (0, 3, 9, 14, 22, 27, 31, 38), (2, 1, 1), 8, 3, 5)
STRIDE2_LATTICE = Case((10, 10, 7), tuple(range(0, 700, 2)), (2, 2, 1), 3, 5, 6)


@pytest.fixture(scope="module")
def executor():
    pool = ParallelExecutor(max_workers=2, retries=1, persistent=True)
    yield pool
    pool.close()


def _base_model(case: Case, grid: UniformGrid, values: np.ndarray) -> FCNNReconstructor:
    """An untrained but usable reconstructor: seeded weights + a fitted normalizer."""
    model = FCNNReconstructor(
        hidden_layers=(8, 4), num_neighbors=case.k, batch_size=64, seed=case.seed
    )
    model.model = model._build_model()
    model.normalizer = Normalizer.fit(grid, values)
    return model


def _timesteps(case: Case, base: FCNNReconstructor):
    """Per-timestep ``(timestep, sample values, flat weights)`` to publish."""
    rng = np.random.default_rng(case.seed)
    flat0 = snapshot_weights(base.model).data
    for t in TIMESTEPS:
        values = rng.standard_normal(len(case.indices))
        yield t, values, flat0 * (1.0 + 0.01 * t) + 0.001 * t


def _oracle(case: Case, grid: UniformGrid, base: FCNNReconstructor, steps) -> list[bytes]:
    model = base.clone()
    out = []
    for t, values, flat in steps:
        restore_weights(model.model, flat)
        sample = SampledField(
            grid=grid,
            indices=np.asarray(case.indices, dtype=np.int64),
            values=values,
            fraction=len(case.indices) / grid.num_points,
            timestep=t,
        )
        out.append(model.reconstruct(sample).tobytes())
    return out


def _drive(sink, geometry, base, steps) -> list[np.ndarray]:
    with sink:
        sink.bind(geometry, {"fcnn": base})
        out = []
        for t, values, flat in steps:
            slot = sink.publish(t, values, {"fcnn": flat})
            volume, report = sink.reconstruct(slot, "fcnn")
            assert report.ok
            out.append(volume)
        return out


def _check(case: Case, executor) -> None:
    grid = UniformGrid(case.dims)
    geometry = CampaignGeometry(grid, np.asarray(case.indices), len(case.indices) / grid.num_points)
    rng = np.random.default_rng(case.seed)
    base = _base_model(case, grid, rng.standard_normal(len(case.indices)))
    steps = list(_timesteps(case, base))
    expected = _oracle(case, grid, base, steps)

    # Unsharded: always bit-identical, in-process and pooled.
    for sink in (
        LocalReconstructionSink(slots=2),
        WarmReconstructionPool(executor=executor, slots=2),
    ):
        got = _drive(sink, geometry, base, steps)
        assert [v.tobytes() for v in got] == expected, type(sink).__name__

    try:
        sharded = ShardedCampaignGeometry(ShardPlan.create(grid, case.counts, case.halo), geometry)
    except ValueError:
        return  # a shard sees no samples: the decomposition itself is refused
    local = _drive(LocalReconstructionSink(slots=2), sharded, base, steps)
    pooled = _drive(WarmReconstructionPool(executor=executor, slots=2), sharded, base, steps)
    assert [v.tobytes() for v in pooled] == [v.tobytes() for v in local]
    if sharded.seam_check(case.k).exact:
        assert [v.tobytes() for v in local] == expected
    for volume, (_, values, _) in zip(local, steps):
        assert volume.ravel()[geometry.indices].tobytes() == values.tobytes()
        assert np.isfinite(volume).all()


@settings(max_examples=25, deadline=None)
@given(case=cases())
@example(case=ZERO_VOIDS)
@example(case=K_ABOVE_SAMPLES)
@example(case=SINGLE_SAMPLE)
@example(case=TIED_LATTICE)
@example(case=ONE_WIDE_AXIS)
def test_sinks_match_the_serial_oracle(case, executor):
    assume(len(case.indices) >= 1)
    _check(case, executor)


def test_exact_seams_are_reached_by_the_harness(executor):
    """The pinned tied lattice has a provably exact 2x2x1 decomposition."""
    grid = UniformGrid(TIED_LATTICE.dims)
    geometry = CampaignGeometry(grid, np.asarray(TIED_LATTICE.indices), 0.5)
    plan = ShardPlan.create(grid, TIED_LATTICE.counts, TIED_LATTICE.halo)
    assert ShardedCampaignGeometry(plan, geometry).seam_check(TIED_LATTICE.k).exact


def test_multi_chunk_pool_matches_the_oracle(executor):
    """More voids than one predict block: the pool fans several chunks out.

    16385 voids leave a one-row tail block in the serial schedule; the
    unsharded pool must reproduce that schedule exactly.
    """
    dims = (20, 20, 42)
    n = int(np.prod(dims))
    rng = np.random.default_rng(11)
    indices = tuple(int(i) for i in np.sort(rng.choice(n, size=n - 16385, replace=False)))
    case = Case(dims, indices, (1, 1, 1), 0, 5, 11)
    grid = UniformGrid(dims)
    geometry = CampaignGeometry(grid, np.asarray(indices), len(indices) / n)
    base = _base_model(case, grid, rng.standard_normal(len(indices)))
    steps = list(_timesteps(case, base))[:2]
    expected = _oracle(case, grid, base, steps)
    pool = WarmReconstructionPool(executor=executor, num_chunks=3, slots=2)
    got = _drive(pool, geometry, base, steps)
    assert [v.tobytes() for v in got] == expected


def test_requeried_lattice_matches_the_oracle_through_every_sink(executor):
    """A stride-2 lattice: nearly every void ties at its k-th neighbor.

    Those voids take ``nearest_samples``' padded re-query, on the global
    tree in the unsharded sinks and on each shard's halo-subset tree in
    the sharded ones; every sink must still reproduce the serial oracle.
    """
    case = STRIDE2_LATTICE
    grid = UniformGrid(case.dims)
    points = grid.points()
    void = np.setdiff1d(np.arange(grid.num_points), case.indices)
    dist, _ = cKDTree(points[list(case.indices)]).query(points[void], k=case.k + 1)
    assert np.mean(dist[:, case.k - 1] == dist[:, case.k]) > 0.89
    geometry = CampaignGeometry(grid, np.asarray(case.indices), 0.5)
    plan = ShardPlan.create(grid, case.counts, case.halo)
    assert ShardedCampaignGeometry(plan, geometry).seam_check(case.k).exact
    _check(case, executor)
