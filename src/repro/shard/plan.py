"""Axis-aligned spatial domain decomposition with halo (ghost) zones.

A :class:`ShardPlan` splits a :class:`~repro.grid.UniformGrid` into
``counts = (A, B, C)`` axis-aligned subdomains ("shards").  Each
:class:`Shard` owns a disjoint **interior** box — the interiors tile the
grid exactly (partition of unity) — plus a surrounding **halo** of
``halo`` cells clipped to the grid, forming its **extended** box.  Samples
inside the extended box are what a shard-local reconstruction may see;
halo cells overlap neighboring interiors, which is how "halo exchange"
is realized over the shared-memory transport: every shard reads the
neighbor-owned samples that fall inside its halo from the one shared
sample-value segment (:mod:`repro.perf.campaign`).

Index conventions match the rest of the package: flat indices are C-order
(z fastest), so a box enumerated in its own C order yields strictly
ascending global flat indices — the global↔local maps below are strictly
increasing, which the canonical kNN tie-break
(:func:`repro.core.features.canonical_neighbors`) relies on for
bit-identical shard-local neighbor selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.features import TIE_BREAK_PAD
from repro.grid import UniformGrid

__all__ = ["Shard", "ShardPlan", "parse_shards", "suggest_halo"]


def parse_shards(spec) -> tuple[int, int, int]:
    """Parse a shard-count spec (``"AxBxC"``, a plain count, or a 3-sequence).

    A single count (``"N"`` or ``N``) means ``(N, 1, 1)`` — split along x only.
    """
    if isinstance(spec, (int, np.integer)):
        counts = (int(spec),)
    elif isinstance(spec, str):
        parts = [p for p in spec.lower().replace("×", "x").split("x") if p]
        try:
            counts = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"shard spec must look like 'AxBxC', got {spec!r}") from None
    else:
        counts = tuple(int(c) for c in spec)
    if len(counts) == 1:
        counts = (counts[0], 1, 1)
    if len(counts) != 3:
        raise ValueError(f"shard spec needs 1 or 3 counts, got {spec!r}")
    if any(c < 1 for c in counts):
        raise ValueError(f"shard counts must be >= 1, got {counts}")
    return counts  # type: ignore[return-value]


def suggest_halo(
    num_neighbors: int = 5,
    fraction: float = 0.05,
    *,
    pad: int = TIE_BREAK_PAD,
    safety: float = 2.0,
) -> int:
    """Halo width (cells) expected to contain the full kNN stencil.

    Bit-identical shard-local neighbor selection needs every query's
    ``num_neighbors + pad`` nearest samples inside the shard's extended
    box (see :func:`repro.core.features.canonical_neighbors`).  Under
    uniform sampling density ``fraction`` (samples per cell), a ball of
    radius ``r`` cells holds ``~ fraction * 4/3 pi r^3`` samples; solve
    for the radius holding ``num_neighbors + pad`` and scale by
    ``safety`` to absorb importance-sampling density fluctuations.
    Verify a specific geometry with
    :meth:`repro.shard.ShardedCampaignGeometry.seam_check`.
    """
    if num_neighbors < 1:
        raise ValueError(f"num_neighbors must be >= 1, got {num_neighbors}")
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    need = num_neighbors + max(0, int(pad))
    radius = (3.0 * need / (4.0 * math.pi * fraction)) ** (1.0 / 3.0)
    return max(1, math.ceil(safety * radius))


def _box_flat_indices(dims: tuple[int, int, int], lo, hi) -> np.ndarray:
    """Global C-order flat indices of box ``[lo, hi)``, strictly ascending."""
    ny, nz = dims[1], dims[2]
    ix = np.arange(lo[0], hi[0], dtype=np.int64)
    iy = np.arange(lo[1], hi[1], dtype=np.int64)
    iz = np.arange(lo[2], hi[2], dtype=np.int64)
    return (
        (ix[:, None, None] * ny + iy[None, :, None]) * nz + iz[None, None, :]
    ).reshape(-1)


@dataclass(frozen=True)
class Shard:
    """One subdomain: a disjoint interior box plus its clipped halo.

    ``lo``/``hi`` bound the interior (half-open, in grid index space);
    ``ext_lo``/``ext_hi`` bound the halo-extended box, clipped to the
    grid.  A face of the extended box is **open** when grid points exist
    beyond it (the clip came from the halo width, not the grid edge) —
    open faces are where shard-local kNN queries can disagree with global
    ones, so seam margins are measured against them.
    """

    index: int
    coords: tuple[int, int, int]
    lo: tuple[int, int, int]
    hi: tuple[int, int, int]
    ext_lo: tuple[int, int, int]
    ext_hi: tuple[int, int, int]
    grid: UniformGrid

    # ----------------------------------------------------------------- sizes
    @property
    def interior_dims(self) -> tuple[int, int, int]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))  # type: ignore[return-value]

    @property
    def ext_dims(self) -> tuple[int, int, int]:
        return tuple(h - l for l, h in zip(self.ext_lo, self.ext_hi))  # type: ignore[return-value]

    @property
    def num_interior(self) -> int:
        a, b, c = self.interior_dims
        return a * b * c

    @property
    def num_ext(self) -> int:
        a, b, c = self.ext_dims
        return a * b * c

    @cached_property
    def local_grid(self) -> UniformGrid:
        """The extended box as its own grid (origin shifted to ``ext_lo``)."""
        return UniformGrid(
            dims=self.ext_dims,
            spacing=self.grid.spacing,
            origin=tuple(
                o + l * s
                for o, l, s in zip(self.grid.origin, self.ext_lo, self.grid.spacing)
            ),
        )

    # --------------------------------------------------------------- indices
    @cached_property
    def interior_indices(self) -> np.ndarray:
        """Global flat indices of the interior box (ascending; read-only)."""
        return _box_flat_indices(self.grid.dims, self.lo, self.hi)

    @cached_property
    def ext_indices(self) -> np.ndarray:
        """Global flat indices of the extended box (ascending; read-only)."""
        return _box_flat_indices(self.grid.dims, self.ext_lo, self.ext_hi)

    def contains(self, multi: np.ndarray, interior: bool = True) -> np.ndarray:
        """Boolean mask: which ``(N, 3)`` multi-indices fall in the box."""
        lo = self.lo if interior else self.ext_lo
        hi = self.hi if interior else self.ext_hi
        return np.all((multi >= lo) & (multi < hi), axis=1)

    def global_to_local(self, flat: np.ndarray) -> np.ndarray:
        """Map global flat indices (inside the extended box) to local flat.

        The map is strictly increasing — both sides are C-order
        enumerations of the same box — so sorted global index subsets stay
        sorted locally (load-bearing for canonical kNN tie-breaking).
        """
        multi = self.grid.flat_to_multi(np.asarray(flat, dtype=np.int64))
        if not self.contains(multi, interior=False).all():
            raise ValueError(f"indices outside shard {self.index} extended box")
        ea, eb, ec = self.ext_lo
        _, ny, nz = self.ext_dims
        return ((multi[:, 0] - ea) * ny + (multi[:, 1] - eb)) * nz + (multi[:, 2] - ec)

    def local_to_global(self, local: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`global_to_local`."""
        local = np.asarray(local, dtype=np.int64)
        if local.size and (local.min() < 0 or local.max() >= self.num_ext):
            raise ValueError(f"local indices out of range for shard {self.index}")
        multi = np.column_stack(np.unravel_index(local, self.ext_dims))
        multi += np.asarray(self.ext_lo, dtype=np.int64)
        return self.grid.multi_to_flat(multi)

    # ------------------------------------------------------------ seam faces
    @property
    def open_faces(self) -> tuple[tuple[int, int], ...]:
        """``(axis, side)`` faces with grid points beyond the extended box."""
        faces = []
        for axis in range(3):
            if self.ext_lo[axis] > 0:
                faces.append((axis, -1))
            if self.ext_hi[axis] < self.grid.dims[axis]:
                faces.append((axis, +1))
        return tuple(faces)

    def margin(self, points: np.ndarray) -> np.ndarray:
        """Distance from each point to the nearest *excluded* grid plane.

        Any grid point outside the extended box is at least this far from
        the query (it must cross an open face's first excluded plane), so
        a kNN query whose ``kq``-th distance is strictly below the margin
        provably saw every global candidate.  ``inf`` when the extended
        box covers the whole grid.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.full(len(points), np.inf)
        for axis, side in self.open_faces:
            o, s = self.grid.origin[axis], self.grid.spacing[axis]
            if side < 0:
                plane = o + (self.ext_lo[axis] - 1) * s
                np.minimum(out, points[:, axis] - plane, out=out)
            else:
                plane = o + self.ext_hi[axis] * s
                np.minimum(out, plane - points[:, axis], out=out)
        return out


@dataclass(frozen=True)
class ShardPlan:
    """A full decomposition: shards in C order over the shard lattice."""

    grid: UniformGrid
    counts: tuple[int, int, int]
    halo: int
    shards: tuple[Shard, ...]

    @classmethod
    def create(cls, grid: UniformGrid, counts, halo: int) -> "ShardPlan":
        """Decompose ``grid`` into ``counts`` shards with ``halo`` ghost cells.

        Interior boundaries come from per-axis ``linspace`` cuts (the same
        near-equal split :func:`repro.parallel.chunk_indices` uses), so
        interiors tile the grid exactly.
        """
        counts = parse_shards(counts)
        halo = int(halo)
        if halo < 0:
            raise ValueError(f"halo must be >= 0, got {halo}")
        for axis, (c, d) in enumerate(zip(counts, grid.dims)):
            if c > d:
                raise ValueError(
                    f"{c} shards along axis {axis} but the grid only has {d} points"
                )
        bounds = [
            np.linspace(0, grid.dims[a], counts[a] + 1).astype(np.int64)
            for a in range(3)
        ]
        shards = []
        for ca in range(counts[0]):
            for cb in range(counts[1]):
                for cc in range(counts[2]):
                    coords = (ca, cb, cc)
                    lo = tuple(int(bounds[a][coords[a]]) for a in range(3))
                    hi = tuple(int(bounds[a][coords[a] + 1]) for a in range(3))
                    shards.append(
                        Shard(
                            index=len(shards),
                            coords=coords,
                            lo=lo,
                            hi=hi,
                            ext_lo=tuple(max(0, l - halo) for l in lo),
                            ext_hi=tuple(
                                min(d, h + halo) for d, h in zip(grid.dims, hi)
                            ),
                            grid=grid,
                        )
                    )
        return cls(grid=grid, counts=counts, halo=halo, shards=tuple(shards))

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, flat: np.ndarray) -> np.ndarray:
        """Owning shard index (by interior box) for each global flat index."""
        multi = self.grid.flat_to_multi(np.asarray(flat, dtype=np.int64))
        bounds = [
            np.linspace(0, self.grid.dims[a], self.counts[a] + 1).astype(np.int64)
            for a in range(3)
        ]
        coord = [
            np.searchsorted(bounds[a], multi[:, a], side="right") - 1 for a in range(3)
        ]
        # The last boundary is inclusive on the top edge.
        for a in range(3):
            coord[a] = np.minimum(coord[a], self.counts[a] - 1)
        return (coord[0] * self.counts[1] + coord[1]) * self.counts[2] + coord[2]

    def neighbors(self, index: int) -> tuple[int, ...]:
        """Indices of shards whose interiors touch ``index``'s (Chebyshev 1)."""
        me = self.shards[index].coords
        out = []
        for shard in self.shards:
            if shard.index == index:
                continue
            if max(abs(a - b) for a, b in zip(me, shard.coords)) <= 1:
                out.append(shard.index)
        return tuple(out)
