"""Per-shard fine-tuning through the batched multi-model engine.

Local-scope sharded campaigns train one model per (timestep, shard): each
shard's model sees only its halo-extended box — the cropped field, the
training samples that fall inside it, and a normalizer anchored to the
shard's local grid.  All ``timesteps x shards`` members are submitted to
:meth:`~repro.core.reconstructor.FCNNReconstructor.fine_tune_batch` in one
call, so they advance together through the PR 8 :class:`~repro.nn.batched`
``ModelStack`` block schedule (members whose training matrices differ in
row count are grouped into separate stacks internally; bits never depend
on group size).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import TimestepField
from repro.sampling.base import SampledField
from repro.shard.plan import Shard, ShardPlan

__all__ = ["shard_field", "shard_sample", "fine_tune_shards"]


def shard_field(shard: Shard, field: TimestepField) -> TimestepField:
    """Crop a global field to one shard's halo-extended box (local grid)."""
    if field.grid != shard.grid:
        raise ValueError("field lives on a different grid than the shard plan")
    sl = tuple(slice(l, h) for l, h in zip(shard.ext_lo, shard.ext_hi))
    return TimestepField(
        grid=shard.local_grid,
        values=np.ascontiguousarray(field.values[sl]),
        timestep=field.timestep,
        name=field.name,
    )


def shard_sample(shard: Shard, sample: SampledField) -> SampledField:
    """Restrict a global sample to one shard's halo-extended box.

    The surviving indices are re-expressed on the shard's local grid (the
    global→local map is strictly increasing, so ordering is preserved).
    Raises ``ValueError`` when no training sample lands in the box — a
    shard that cannot be fine-tuned locally (use fewer shards, a larger
    halo, or a denser training fraction).
    """
    if sample.grid != shard.grid:
        raise ValueError("sample lives on a different grid than the shard plan")
    multi = shard.grid.flat_to_multi(sample.indices)
    keep = shard.contains(multi, interior=False)
    if not keep.any():
        raise ValueError(
            f"no training samples fall inside shard {shard.index}'s extended box "
            f"(fraction {sample.fraction}, halo-extended dims {shard.ext_dims})"
        )
    local = shard.global_to_local(sample.indices[keep])
    return SampledField(
        grid=shard.local_grid,
        indices=local,
        values=sample.values[keep],
        fraction=float(keep.sum()) / shard.num_ext,
        timestep=sample.timestep,
    )


def fine_tune_shards(
    reconstructor,
    fields: list[TimestepField],
    samples_per_step: list,
    plan: ShardPlan,
    *,
    epochs: int = 10,
    strategy: str = "last",
) -> tuple[list[np.ndarray], list[list]]:
    """Fine-tune one model per (timestep, shard) in one batched submission.

    Returns ``(flats, histories)`` with one ``(num_shards, W)`` weight
    stack and one per-shard history list per timestep, ordered like
    ``fields``.  Row ``s`` of a stack is the model for ``plan.shards[s]``
    — exactly the per-shard layout a campaign sink's ``publish`` accepts
    (:class:`repro.perf.campaign.LocalReconstructionSink`).  The base
    model is never mutated (``fine_tune_batch`` semantics).
    """
    fields = list(fields)
    samples_per_step = list(samples_per_step)
    if len(fields) != len(samples_per_step):
        raise ValueError(
            f"{len(fields)} fields but {len(samples_per_step)} sample groups"
        )
    local_fields: list[TimestepField] = []
    local_samples: list[list[SampledField]] = []
    for field, samples in zip(fields, samples_per_step):
        sample_list = samples if isinstance(samples, (list, tuple)) else [samples]
        for shard in plan.shards:
            local_fields.append(shard_field(shard, field))
            local_samples.append([shard_sample(shard, s) for s in sample_list])
    flats, histories = reconstructor.fine_tune_batch(
        local_fields, local_samples, epochs=epochs, strategy=strategy
    )
    s = plan.num_shards
    stacked = [np.stack(flats[i * s : (i + 1) * s]) for i in range(len(fields))]
    grouped = [histories[i * s : (i + 1) * s] for i in range(len(fields))]
    return stacked, grouped
