"""Property tests for :mod:`repro.shard` plans, index maps and seam proofs.

The load-bearing invariants of the spatial decomposition:

* shard interiors are a **partition of unity** over the grid (the
  stitcher's correctness precondition);
* extended boxes contain their interiors and stay inside the grid, with
  the halo clipped only at grid edges;
* the global<->local index maps are strictly increasing bijections over
  the extended box (canonical kNN tie-breaking relies on order
  preservation);
* :meth:`ShardedCampaignGeometry.seam_check` is exact for
  stencil-covering halos and monotone in the halo width.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import TIE_BREAK_PAD
from repro.grid import UniformGrid
from repro.perf.campaign import CampaignGeometry
from repro.shard import (
    ShardPlan,
    ShardedCampaignGeometry,
    parse_shards,
    suggest_halo,
)

dims_st = st.tuples(st.integers(2, 9), st.integers(2, 8), st.integers(1, 6))
counts_st = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2))
halo_st = st.integers(0, 4)


def make_plan(dims, counts, halo):
    counts = tuple(min(c, d) for c, d in zip(counts, dims))
    grid = UniformGrid(dims=dims, spacing=(0.5, 1.0, 2.0), origin=(-1.0, 0.0, 3.0))
    return ShardPlan.create(grid, counts, halo)


# ------------------------------------------------------------------ parsing
class TestParseShards:
    def test_axbxc_and_single_count(self):
        assert parse_shards("2x3x1") == (2, 3, 1)
        assert parse_shards("4") == (4, 1, 1)
        assert parse_shards(4) == (4, 1, 1)

    def test_sequences_pass_through(self):
        assert parse_shards((1, 2, 3)) == (1, 2, 3)
        assert parse_shards([2, 2, 1]) == (2, 2, 1)
        assert parse_shards((5,)) == (5, 1, 1)

    def test_unicode_times_sign(self):
        assert parse_shards("2×2×1") == (2, 2, 1)

    @pytest.mark.parametrize("bad", ["axb", "2x2x2x2", "0x1x1", "", (0, 1, 1), (1, 2)])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_shards(bad)


class TestSuggestHalo:
    def test_positive_and_monotone(self):
        halos = [suggest_halo(5, f) for f in (0.01, 0.03, 0.05, 0.2)]
        assert all(h >= 1 for h in halos)
        assert halos == sorted(halos, reverse=True)  # denser sampling, thinner halo
        assert suggest_halo(10, 0.05) >= suggest_halo(2, 0.05)

    def test_covers_padded_stencil_on_uniform_grid(self):
        # A halo ball of the suggested radius must hold k + pad samples at
        # the assumed density (the safety factor makes this comfortably so).
        k, fraction = 5, 0.05
        r = suggest_halo(k, fraction)
        assert fraction * 4.0 / 3.0 * np.pi * r**3 >= k + TIE_BREAK_PAD

    def test_validation(self):
        with pytest.raises(ValueError, match="num_neighbors"):
            suggest_halo(0, 0.05)
        with pytest.raises(ValueError, match="fraction"):
            suggest_halo(5, 0.0)


# ----------------------------------------------------------- plan invariants
class TestShardPlanProperties:
    @given(dims=dims_st, counts=counts_st, halo=halo_st)
    @settings(max_examples=60, deadline=None)
    def test_interiors_are_partition_of_unity(self, dims, counts, halo):
        plan = make_plan(dims, counts, halo)
        all_interior = np.concatenate([s.interior_indices for s in plan.shards])
        assert np.array_equal(
            np.sort(all_interior), np.arange(plan.grid.num_points, dtype=np.int64)
        )

    @given(dims=dims_st, counts=counts_st, halo=halo_st)
    @settings(max_examples=60, deadline=None)
    def test_halo_containment(self, dims, counts, halo):
        plan = make_plan(dims, counts, halo)
        for s in plan.shards:
            for axis in range(3):
                assert 0 <= s.ext_lo[axis] <= s.lo[axis]
                assert s.hi[axis] <= s.ext_hi[axis] <= dims[axis]
                # The halo is exactly `halo` wide unless clipped by the edge.
                assert s.lo[axis] - s.ext_lo[axis] == min(halo, s.lo[axis])
                assert s.ext_hi[axis] - s.hi[axis] == min(halo, dims[axis] - s.hi[axis])
            interior = set(map(int, s.interior_indices))
            assert interior <= set(map(int, s.ext_indices))

    @given(dims=dims_st, counts=counts_st, halo=halo_st)
    @settings(max_examples=40, deadline=None)
    def test_index_maps_are_increasing_bijections(self, dims, counts, halo):
        plan = make_plan(dims, counts, halo)
        for s in plan.shards:
            ext = s.ext_indices
            assert np.all(np.diff(ext) > 0)
            local = s.global_to_local(ext)
            # C-order enumeration of the box in its own frame: 0..num_ext-1
            assert np.array_equal(local, np.arange(s.num_ext, dtype=np.int64))
            assert np.array_equal(s.local_to_global(local), ext)
            # Strictly increasing on any sorted subset.
            subset = ext[::3]
            assert np.all(np.diff(s.global_to_local(subset)) > 0)

    @given(dims=dims_st, counts=counts_st)
    @settings(max_examples=40, deadline=None)
    def test_shard_of_matches_interior_membership(self, dims, counts):
        plan = make_plan(dims, counts, 1)
        owner = plan.shard_of(np.arange(plan.grid.num_points))
        for s in plan.shards:
            assert np.all(owner[s.interior_indices] == s.index)

    def test_index_map_rejects_outside_indices(self):
        plan = make_plan((6, 6, 4), (2, 1, 1), 0)
        with pytest.raises(ValueError, match="extended box"):
            plan.shards[0].global_to_local(plan.shards[1].interior_indices[-1:])
        with pytest.raises(ValueError, match="out of range"):
            plan.shards[0].local_to_global(np.array([plan.shards[0].num_ext]))

    def test_neighbors_symmetric_and_irreflexive(self):
        plan = make_plan((8, 8, 4), (2, 2, 2), 1)
        for s in plan.shards:
            nbrs = plan.neighbors(s.index)
            assert s.index not in nbrs
            for other in nbrs:
                assert s.index in plan.neighbors(other)
        # 2x2x2 lattice: every shard touches every other one.
        assert all(len(plan.neighbors(i)) == 7 for i in range(plan.num_shards))

    def test_open_faces_and_margin(self):
        plan = make_plan((8, 4, 4), (2, 1, 1), 1)
        left, right = plan.shards
        # Only the seam faces are open; grid-edge faces are closed.
        assert left.open_faces == ((0, +1),)
        assert right.open_faces == ((0, -1),)
        # One shard covering everything has no open face: infinite margin.
        whole = make_plan((4, 4, 4), (1, 1, 1), 0).shards[0]
        assert whole.open_faces == ()
        assert np.isinf(whole.margin(np.zeros((3, 3)))).all()
        # Margin is the distance to the first *excluded* plane.
        grid = plan.grid
        pts = grid.index_to_position(grid.flat_to_multi(left.interior_indices))
        excluded_plane = grid.origin[0] + left.ext_hi[0] * grid.spacing[0]
        assert np.allclose(left.margin(pts), excluded_plane - pts[:, 0])

    def test_create_validation(self):
        grid = UniformGrid(dims=(4, 4, 2), spacing=(1, 1, 1), origin=(0, 0, 0))
        with pytest.raises(ValueError, match="halo"):
            ShardPlan.create(grid, (2, 1, 1), -1)
        with pytest.raises(ValueError, match="axis 2"):
            ShardPlan.create(grid, (1, 1, 3), 0)


# ----------------------------------------------------------- chunking guard
def _inference_net(workspace: bool):
    from repro.nn import mlp
    from repro.perf import Workspace

    net = mlp(23, [16, 8], 4, activation="ReLU", seed=3)
    net.set_training(False)
    if workspace:
        net.attach_workspace(Workspace())
    return net


class TestChunkingIsRowwise:
    """Shard chunk boundaries cannot change predicted bits.

    A shard's chunks are an arbitrary row partition of its owned voids —
    including one-row pieces, which BLAS would route through gemv — so
    inference must be a pure per-row function of its input.
    """

    @given(
        n=st.integers(1, 120),
        cuts=st.lists(st.integers(1, 119), max_size=6),
        workspace=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_row_partition_predicts_the_same_bits(self, n, cuts, workspace):
        net = _inference_net(workspace)
        x = np.random.default_rng(n).standard_normal((n, 23))
        whole = np.array(net.forward(x), copy=True)
        bounds = [0, *sorted({c for c in cuts if c < n}), n]
        pieces = [
            np.array(net.forward(x[lo:hi]), copy=True)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()

    def test_one_row_block_matches_its_row_in_a_larger_block(self):
        x = np.random.default_rng(0).standard_normal((9, 23))
        for workspace in (False, True):
            net = _inference_net(workspace)
            whole = np.array(net.forward(x), copy=True)
            for i in range(len(x)):
                assert net.forward(x[i : i + 1]).tobytes() == whole[i : i + 1].tobytes()


# ------------------------------------------------------- geometry + seams
def _geometry(dims=(12, 10, 8), fraction=0.12, seed=0):
    rng = np.random.default_rng(seed)
    grid = UniformGrid(dims=dims, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0))
    n = max(8, int(fraction * grid.num_points))
    indices = np.sort(rng.choice(grid.num_points, size=n, replace=False))
    return CampaignGeometry(grid, indices.astype(np.int64), fraction)


class TestShardedCampaignGeometry:
    def test_void_order_is_permutation_and_offsets_consistent(self):
        geometry = _geometry()
        plan = ShardPlan.create(geometry.grid, (2, 2, 1), 2)
        sharded = ShardedCampaignGeometry(plan, geometry)
        assert np.array_equal(
            np.sort(sharded.void_order), np.arange(geometry.num_voids)
        )
        for s, sg in enumerate(sharded.shards):
            lo, hi = sharded.void_offsets[s], sharded.void_offsets[s + 1]
            assert hi - lo == sg.num_voids
            lo, hi = sharded.sample_offsets[s], sharded.sample_offsets[s + 1]
            segment = sharded.sample_order[lo:hi]
            assert np.array_equal(segment, sg.sample_sel)
            assert np.all(np.diff(segment) > 0)  # ascending: order-preserving

    def test_halo_imports_counted(self):
        geometry = _geometry()
        plan = ShardPlan.create(geometry.grid, (2, 1, 1), 3)
        sharded = ShardedCampaignGeometry(plan, geometry)
        imports = sharded.halo_imports()
        assert len(imports) == 2 and all(i > 0 for i in imports)
        # halo=0 imports nothing.
        bare = ShardedCampaignGeometry(
            ShardPlan.create(geometry.grid, (2, 1, 1), 0), geometry
        )
        assert bare.halo_imports() == [0, 0]

    def test_empty_shard_rejected(self):
        grid = UniformGrid(dims=(8, 4, 4), spacing=(1, 1, 1), origin=(0, 0, 0))
        # Every sample in the left half: the right shard sees none.
        indices = np.arange(8, dtype=np.int64)
        geometry = CampaignGeometry(grid, indices, 0.05)
        plan = ShardPlan.create(grid, (2, 1, 1), 0)
        with pytest.raises(ValueError, match="no samples"):
            ShardedCampaignGeometry(plan, geometry)

    def test_grid_mismatch_rejected(self):
        geometry = _geometry()
        other = UniformGrid(dims=(6, 6, 6), spacing=(1, 1, 1), origin=(0, 0, 0))
        plan = ShardPlan.create(other, (2, 1, 1), 1)
        with pytest.raises(ValueError, match="grid"):
            ShardedCampaignGeometry(plan, geometry)

    def test_seam_check_exact_when_halo_covers_stencil(self):
        geometry = _geometry()
        plan = ShardPlan.create(geometry.grid, (2, 2, 1), 8)
        report = ShardedCampaignGeometry(plan, geometry).seam_check(num_neighbors=5)
        assert report.exact
        assert report.total_unsafe == 0
        assert report.total_queries == geometry.num_voids
        assert "exact" in report.summary()

    def test_seam_check_monotone_in_halo(self):
        geometry = _geometry()
        unsafe = []
        for halo in (0, 1, 2, 4, 8):
            plan = ShardPlan.create(geometry.grid, (2, 2, 1), halo)
            report = ShardedCampaignGeometry(plan, geometry).seam_check(5)
            unsafe.append(report.total_unsafe)
            assert report.halo == halo
        assert unsafe == sorted(unsafe, reverse=True)
        assert unsafe[0] > 0  # halo=0 cannot be provably exact here
        assert unsafe[-1] == 0

    def test_seam_check_flags_undersized_candidate_lists(self):
        # A shard whose extended box holds fewer than k + pad samples
        # cannot materialize the global candidate list: all unsafe.
        grid = UniformGrid(dims=(10, 4, 4), spacing=(1, 1, 1), origin=(0, 0, 0))
        rng = np.random.default_rng(3)
        indices = np.sort(rng.choice(grid.num_points, size=30, replace=False))
        geometry = CampaignGeometry(grid, indices.astype(np.int64), 0.2)
        plan = ShardPlan.create(grid, (2, 1, 1), 0)
        report = ShardedCampaignGeometry(plan, geometry).seam_check(5)
        assert not report.exact
        assert "may cross" in report.summary()
