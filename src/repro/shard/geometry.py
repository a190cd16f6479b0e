"""Per-shard views of a campaign's sampled-location geometry.

:class:`ShardGeometry` restricts one :class:`~repro.perf.CampaignGeometry`
to one shard: the sample positions inside the shard's halo-extended box
(what a shard-local kNN query may see — interior-owned samples plus the
halo samples imported from neighbors) and the void positions inside its
interior (what the shard is responsible for predicting).
:class:`ShardedCampaignGeometry` builds all of them at once, proves the
interiors' void sets are a partition of unity over the global void set
(the stitcher's correctness precondition), and offers
:meth:`~ShardedCampaignGeometry.seam_check` — a per-query proof of when
shard-local canonical kNN selection matches the global one, which is the
condition for sharded reconstruction to be bit-identical to unsharded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.features import TIE_BREAK_PAD
from repro.obs import record_event
from repro.perf.campaign import CampaignGeometry
from repro.shard.plan import Shard, ShardPlan

__all__ = ["ShardGeometry", "ShardedCampaignGeometry", "SeamReport", "ShardSeamStats"]


class ShardGeometry:
    """One shard's selections into a :class:`CampaignGeometry`.

    ``sample_sel`` / ``void_sel`` index into the campaign geometry's
    (sorted) sample/void arrays; both are ascending, so the local subsets
    inherit the global ordering — the property canonical kNN tie-breaking
    needs to reproduce global neighbor selection shard-locally.
    """

    def __init__(
        self,
        shard: Shard,
        geometry: CampaignGeometry,
        sample_multi: np.ndarray,
        void_multi: np.ndarray,
    ) -> None:
        self.shard = shard
        self.geometry = geometry
        self.sample_sel = np.flatnonzero(shard.contains(sample_multi, interior=False))
        interior = shard.contains(sample_multi[self.sample_sel], interior=True)
        self.interior_sample_count = int(interior.sum())
        self.void_sel = np.flatnonzero(shard.contains(void_multi, interior=True))

    # ----------------------------------------------------------------- sizes
    @property
    def num_samples(self) -> int:
        """Samples visible to this shard (interior + imported halo)."""
        return int(self.sample_sel.size)

    @property
    def halo_sample_count(self) -> int:
        """Samples imported from neighboring interiors via the halo."""
        return self.num_samples - self.interior_sample_count

    @property
    def num_voids(self) -> int:
        """Void locations this shard owns (strictly interior)."""
        return int(self.void_sel.size)

    # ------------------------------------------------------------- positions
    @property
    def points(self) -> np.ndarray:
        """Global physical positions of the shard's visible samples."""
        return self.geometry.points[self.sample_sel]

    @property
    def void_points(self) -> np.ndarray:
        """Global physical positions of the shard's owned voids."""
        return self.geometry.void_points[self.void_sel]

    @property
    def global_sample_indices(self) -> np.ndarray:
        return self.geometry.indices[self.sample_sel]

    @property
    def global_void_indices(self) -> np.ndarray:
        return self.geometry.void_indices[self.void_sel]


@dataclass(frozen=True)
class ShardSeamStats:
    """Seam-exactness accounting for one shard."""

    shard: int
    queries: int          # owned void queries checked
    unsafe: int           # queries whose kNN selection is not provably global
    halo_samples: int     # samples imported through the halo
    margin_min: float     # tightest open-face margin over all queries
    kth_dist_max: float   # largest padded-candidate distance over all queries


@dataclass(frozen=True)
class SeamReport:
    """Result of :meth:`ShardedCampaignGeometry.seam_check`."""

    num_neighbors: int
    halo: int
    shards: tuple[ShardSeamStats, ...]

    @property
    def exact(self) -> bool:
        """True when every query's shard-local kNN provably equals global."""
        return all(s.unsafe == 0 for s in self.shards)

    @property
    def total_unsafe(self) -> int:
        return sum(s.unsafe for s in self.shards)

    @property
    def total_queries(self) -> int:
        return sum(s.queries for s in self.shards)

    def summary(self) -> str:
        if self.exact:
            return (
                f"seams exact: {self.total_queries} queries across "
                f"{len(self.shards)} shards all resolve inside halo={self.halo}"
            )
        return (
            f"{self.total_unsafe}/{self.total_queries} queries may cross "
            f"shard seams (halo={self.halo} too small for k={self.num_neighbors}"
            f"+{TIE_BREAK_PAD} stencil)"
        )


class ShardedCampaignGeometry:
    """All shards' views of one campaign geometry, with partition checks.

    Raises ``ValueError`` when the decomposition is unusable: a shard with
    zero visible samples cannot run kNN reconstruction (use fewer shards,
    a bigger halo, or a denser sampling fraction).  The void partition
    check is structural — interiors tile the grid, so the concatenated
    ``void_sel`` arrays must be a permutation of the global void range —
    and guards the stitcher: scattering per-shard predictions through
    ``void_order`` writes every global void exactly once.
    """

    def __init__(self, plan: ShardPlan, geometry: CampaignGeometry) -> None:
        if plan.grid != geometry.grid:
            raise ValueError("shard plan and campaign geometry disagree on the grid")
        self.plan = plan
        self.geometry = geometry
        grid = geometry.grid
        sample_multi = grid.flat_to_multi(geometry.indices)
        void_multi = grid.flat_to_multi(geometry.void_indices)
        self.shards = [
            ShardGeometry(shard, geometry, sample_multi, void_multi)
            for shard in plan.shards
        ]
        empty = [sg.shard.index for sg in self.shards if sg.num_samples == 0]
        if empty:
            raise ValueError(
                f"shard(s) {empty} contain no samples even with halo={plan.halo}; "
                "use fewer shards, a larger halo, or a denser sampling fraction"
            )
        self.void_order = (
            np.concatenate([sg.void_sel for sg in self.shards])
            if self.shards
            else np.empty(0, dtype=np.int64)
        )
        covered = np.zeros(geometry.num_voids, dtype=bool)
        covered[self.void_order] = True
        if self.void_order.size != geometry.num_voids or not covered.all():
            raise ValueError(
                "shard interiors do not partition the void set "
                f"({self.void_order.size} owned vs {geometry.num_voids} global)"
            )
        self.void_offsets = np.concatenate(
            [[0], np.cumsum([sg.num_voids for sg in self.shards])]
        ).astype(np.int64)
        self.sample_order = np.concatenate([sg.sample_sel for sg in self.shards])
        self.sample_offsets = np.concatenate(
            [[0], np.cumsum([sg.num_samples for sg in self.shards])]
        ).astype(np.int64)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def halo_imports(self) -> list[int]:
        """Per-shard count of samples imported through the halo."""
        return [sg.halo_sample_count for sg in self.shards]

    # ------------------------------------------------------------ seam proof
    def seam_check(self, num_neighbors: int = 5) -> SeamReport:
        """Prove (per query) that shard-local kNN selection is global.

        For each owned void the shard-local kd-tree fetches the padded
        candidate list (``k + TIE_BREAK_PAD``), the deepest list canonical
        selection (:func:`repro.core.features.nearest_samples`) reads.
        Most queries are resolved from their ``k + 1`` nearest, a prefix
        of it; only queries tied at the ``k`` cut read the whole list.  So
        the proof over the padded list covers both depths.  The local
        selection provably equals the global one when

        * the padded list is full-size (the shard sees at least
          ``k + TIE_BREAK_PAD`` samples, or all global samples),
        * the farthest padded candidate is strictly closer than the
          nearest excluded grid plane (no outside sample can intrude), and
        * the ``k``-th distance is strictly below the padded-list maximum
          (the canonical cut does not straddle the list boundary).

        Queries failing any condition are counted ``unsafe`` — sharded
        output there is still a valid reconstruction, just not guaranteed
        bit-identical to unsharded.  Cost is one kd-tree build + one kNN
        query per shard (comparable to one timestep's reconstruction
        query), so run it once per campaign geometry, not per timestep.
        """
        from scipy.spatial import cKDTree

        geometry = self.geometry
        total_samples = geometry.num_samples
        k_global = min(int(num_neighbors), total_samples)
        stats = []
        for sg in self.shards:
            if sg.num_voids == 0:
                stats.append(
                    ShardSeamStats(
                        shard=sg.shard.index,
                        queries=0,
                        unsafe=0,
                        halo_samples=sg.halo_sample_count,
                        margin_min=float("inf"),
                        kth_dist_max=0.0,
                    )
                )
                continue
            m_local = sg.num_samples
            kq_global = min(k_global + TIE_BREAK_PAD, total_samples)
            kq_local = min(k_global + TIE_BREAK_PAD, m_local)
            points = sg.void_points
            margin = sg.shard.margin(points)
            if kq_local < kq_global:
                # The shard cannot even materialize the global candidate
                # list; every query is unsafe.
                unsafe = len(points)
                kth = float("nan")
            else:
                dist, _ = cKDTree(sg.points).query(points, k=kq_local, workers=-1)
                if kq_local == 1:
                    dist = dist[:, None]
                safe = dist[:, -1] < margin
                if kq_local > k_global:
                    safe &= dist[:, k_global - 1] < dist[:, -1]
                unsafe = int((~safe).sum())
                kth = float(dist[:, -1].max())
            stats.append(
                ShardSeamStats(
                    shard=sg.shard.index,
                    queries=int(len(points)),
                    unsafe=unsafe,
                    halo_samples=sg.halo_sample_count,
                    margin_min=float(margin.min()) if len(points) else float("inf"),
                    kth_dist_max=kth,
                )
            )
        report = SeamReport(
            num_neighbors=int(num_neighbors), halo=self.plan.halo, shards=tuple(stats)
        )
        record_event(
            "campaign.shard.seam_check",
            shards=self.num_shards,
            halo=self.plan.halo,
            unsafe=report.total_unsafe,
            queries=report.total_queries,
            exact=report.exact,
        )
        return report
