"""Spatial domain decomposition: shard-parallel campaigns with halo exchange.

A campaign grid is split into axis-aligned subdomains
(:class:`ShardPlan`/:class:`Shard`, with halo/ghost zones sized to the
kNN feature stencil), each shard gets its own view of the campaign's
sampled-location geometry (:class:`ShardedCampaignGeometry`), and
fine-tuning can go per-shard through the batched engine
(:func:`fine_tune_shards`).  Reconstruction needs no sink of its own:
the campaign sinks (:class:`repro.perf.campaign.LocalReconstructionSink`
and :class:`~repro.perf.campaign.WarmReconstructionPool`) bind a
:class:`ShardedCampaignGeometry` directly — an unsharded campaign is the
1x1x1 plan — fan out shard by shard over the shared-memory transport and
stitch the global field back together.

Wired into :meth:`repro.core.ReconstructionPipeline.run_campaign`
(``shards=``/``halo=``/``shard_scope=``), :class:`repro.insitu.InSituWriter`
and ``repro campaign --shards AxBxC --halo N``.  See
docs/PERFORMANCE.md ("Shard-parallel campaigns") and docs/API.md.
"""

from repro.perf.campaign import SHARD_SCOPES
from repro.shard.geometry import (
    SeamReport,
    ShardGeometry,
    ShardSeamStats,
    ShardedCampaignGeometry,
)
from repro.shard.plan import Shard, ShardPlan, parse_shards, suggest_halo
from repro.shard.training import fine_tune_shards, shard_field, shard_sample

__all__ = [
    "Shard",
    "ShardPlan",
    "parse_shards",
    "suggest_halo",
    "ShardGeometry",
    "ShardedCampaignGeometry",
    "SeamReport",
    "ShardSeamStats",
    "SHARD_SCOPES",
    "fine_tune_shards",
    "shard_field",
    "shard_sample",
]
