"""Shard-parallel campaigns: bit-identity, SNR parity, journal refusal.

The tentpole contract under test:

* ``shard_scope="global"`` with a stencil-covering halo is **bit-identical**
  to the unsharded campaign — through the in-process sink, the shm pool,
  and ``run_campaign`` itself (serial and batched fine-tune alike);
* ``shard_scope="local"`` (one model per (timestep, shard)) holds SNR
  parity (<= 0.1 dB) with the unsharded batched campaign;
* a sharded journal refuses an unsharded resume and vice versa (and any
  shard-geometry mismatch), exactly like the serial<->batched guard;
* sharded in situ campaigns write per-shard Case-2 checkpoints the reader
  stitches back into a global field.

Every test in this file runs clean under ``--sanitize`` (no ``no_sanitize``
markers): the sharded reconstruction path is part of the sanitized CI job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FCNNReconstructor, ReconstructionPipeline
from repro.datasets import make_dataset
from repro.insitu import CampaignReader, InSituWriter
from repro.metrics import score_reconstruction
from repro.perf.campaign import (
    CampaignGeometry,
    LocalReconstructionSink,
    WarmReconstructionPool,
    make_reconstruction_sink,
)
from repro.perf.weights import snapshot_weights
from repro.resilience.journal import JournalCorruptionError
from repro.sampling import MultiCriteriaSampler
from repro.shard import (
    ShardPlan,
    ShardedCampaignGeometry,
    fine_tune_shards,
    shard_field,
    shard_sample,
)

DIMS = (12, 12, 8)
TIMESTEPS = (0, 2, 4)
FRACTION = 0.15
#: covers the whole grid from any shard on these dims: provably exact seams
BIG_HALO = 12


@pytest.fixture(scope="module")
def campaign_pipeline():
    data = make_dataset("combustion", dims=DIMS, seed=0)
    return ReconstructionPipeline(
        data, train_fractions=(0.02, 0.05), keep_reconstructions=True
    )


@pytest.fixture(scope="module")
def base_model(campaign_pipeline):
    model = FCNNReconstructor(hidden_layers=(16, 8), batch_size=1024, seed=7)
    campaign_pipeline.train_fcnn(model, timestep=TIMESTEPS[0], epochs=3)
    return model


def _strip_timing(rows):
    return [{k: v for k, v in row.items() if k != "finetune_seconds"} for row in rows]


def _snr(campaign_pipeline, t, volume):
    field = campaign_pipeline.field(t)
    return score_reconstruction(field.values, volume).snr


# ------------------------------------------------------------ sink parity
class TestShardSinks:
    def _drive(self, sink, campaign_pipeline, base_model, geometry):
        shell = geometry.shell()
        model = base_model.clone()
        volumes = []
        for t in TIMESTEPS:
            field = campaign_pipeline.field(t)
            geometry.refresh(shell, field)
            train = [campaign_pipeline.sample(field, f) for f in (0.02, 0.05)]
            model.fine_tune(field, train, epochs=1)
            flat = snapshot_weights(model.model).data
            slot = sink.publish(t, shell.values, {"fcnn": flat})
            volume, report = sink.reconstruct(slot, "fcnn")
            assert report.ok
            volumes.append(volume)
        return volumes

    @pytest.fixture(scope="class")
    def geometry(self, campaign_pipeline):
        return CampaignGeometry.from_sample(
            campaign_pipeline.sample(campaign_pipeline.field(TIMESTEPS[0]), FRACTION)
        )

    @pytest.fixture(scope="class")
    def reference(self, geometry, campaign_pipeline, base_model):
        with LocalReconstructionSink(slots=2) as sink:
            sink.bind(geometry, {"fcnn": base_model.clone()})
            return self._drive(sink, campaign_pipeline, base_model, geometry)

    def test_local_shard_sink_bit_identical_to_unsharded(
        self, geometry, campaign_pipeline, base_model, reference
    ):
        plan = ShardPlan.create(geometry.grid, (2, 2, 1), BIG_HALO)
        sharded = ShardedCampaignGeometry(plan, geometry)
        assert sharded.seam_check(base_model.extractor.num_neighbors).exact
        with LocalReconstructionSink(slots=2) as sink:
            sink.bind(sharded, {"fcnn": base_model.clone()})
            got = self._drive(sink, campaign_pipeline, base_model, geometry)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in reference]

    def test_shard_pool_bit_identical_over_shm(
        self, geometry, campaign_pipeline, base_model, reference
    ):
        plan = ShardPlan.create(geometry.grid, (2, 2, 1), BIG_HALO)
        sharded = ShardedCampaignGeometry(plan, geometry)
        pool = WarmReconstructionPool(max_workers=2)
        try:
            pool.bind(sharded, {"fcnn": base_model.clone()})
        except OSError:
            pool.close()
            pytest.skip("shared memory unavailable on this host")
        with pool:
            got = self._drive(pool, campaign_pipeline, base_model, geometry)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in reference]

    def test_make_shard_sink_falls_back_to_local(self, geometry, base_model):
        from repro.resilience.faults import ShmUnavailableFault

        plan = ShardPlan.create(geometry.grid, (2, 1, 1), BIG_HALO)
        sharded = ShardedCampaignGeometry(plan, geometry)
        with ShmUnavailableFault(mode="create") as fault:
            sink = make_reconstruction_sink(sharded, {"fcnn": base_model.clone()})
            try:
                assert type(sink) is LocalReconstructionSink
            finally:
                sink.close()
        assert fault.fires >= 1


# ----------------------------------------------------- run_campaign wiring
class TestRunCampaignSharded:
    def _run(self, campaign_pipeline, base_model, **kwargs):
        kwargs.setdefault("warm_pool", False)
        kwargs.setdefault("pipeline", False)
        return campaign_pipeline.run_campaign(
            base_model.clone(), TIMESTEPS, FRACTION, finetune_epochs=2, **kwargs
        )

    @pytest.fixture(scope="class")
    def serial_reference(self, campaign_pipeline, base_model):
        return self._run(campaign_pipeline, base_model)

    @pytest.fixture(scope="class")
    def batched_reference(self, campaign_pipeline, base_model):
        return self._run(campaign_pipeline, base_model, batched_finetune=True)

    def test_result_records_shard_geometry(
        self, campaign_pipeline, base_model, serial_reference
    ):
        result = self._run(
            campaign_pipeline, base_model, shards="2x2x1", halo=BIG_HALO
        )
        assert result.shards == (2, 2, 1)
        assert result.halo == BIG_HALO
        assert serial_reference.shards is None and serial_reference.halo is None

    def test_global_scope_bit_identical_serial(
        self, campaign_pipeline, base_model, serial_reference
    ):
        sharded = self._run(
            campaign_pipeline, base_model, shards=(2, 2, 1), halo=BIG_HALO
        )
        assert _strip_timing(sharded.rows) == _strip_timing(serial_reference.rows)
        for mine, theirs in zip(
            sharded.reconstructions, serial_reference.reconstructions
        ):
            assert mine.tobytes() == theirs.tobytes()

    def test_global_scope_bit_identical_batched(
        self, campaign_pipeline, base_model, batched_reference
    ):
        sharded = self._run(
            campaign_pipeline,
            base_model,
            batched_finetune=True,
            shards="4",
            halo=BIG_HALO,
        )
        assert _strip_timing(sharded.rows) == _strip_timing(batched_reference.rows)
        for mine, theirs in zip(
            sharded.reconstructions, batched_reference.reconstructions
        ):
            assert mine.tobytes() == theirs.tobytes()

    def test_local_scope_snr_parity(
        self, campaign_pipeline, base_model, batched_reference
    ):
        sharded = self._run(
            campaign_pipeline,
            base_model,
            batched_finetune=True,
            shards=(2, 1, 1),
            halo=6,
            shard_scope="local",
        )
        assert all(np.isfinite(v).all() for v in sharded.reconstructions)
        for mine, theirs in zip(sharded.rows, batched_reference.rows):
            assert abs(mine["snr"] - theirs["snr"]) <= 0.1, (
                f"t={mine['timestep']}: local-scope SNR {mine['snr']:.4f} vs "
                f"unsharded {theirs['snr']:.4f}"
            )

    def test_small_halo_keeps_samples_exact_and_snr_parity(
        self, campaign_pipeline, base_model, serial_reference
    ):
        # halo=1 is far below the padded stencil: seams may move neighbor
        # selections, but samples stay exact and quality holds parity.
        sharded = self._run(campaign_pipeline, base_model, shards=(2, 2, 1), halo=1)
        sample = campaign_pipeline.sample(
            campaign_pipeline.field(TIMESTEPS[0]), FRACTION
        )
        for t, mine, theirs in zip(
            TIMESTEPS, sharded.reconstructions, serial_reference.reconstructions
        ):
            assert np.isfinite(mine).all()
            field = campaign_pipeline.field(t)
            assert np.array_equal(
                mine.ravel()[sample.indices], field.values.ravel()[sample.indices]
            )
            snr_mine = _snr(campaign_pipeline, t, mine)
            snr_ref = _snr(campaign_pipeline, t, theirs)
            assert abs(snr_mine - snr_ref) <= 0.1

    def test_validation(self, campaign_pipeline, base_model):
        with pytest.raises(ValueError, match="halo requires shards"):
            self._run(campaign_pipeline, base_model, halo=2)
        with pytest.raises(ValueError, match="shard_scope"):
            self._run(
                campaign_pipeline, base_model, shards="2", shard_scope="sideways"
            )
        with pytest.raises(ValueError, match="batched"):
            self._run(campaign_pipeline, base_model, shards="2", shard_scope="local")


# ------------------------------------------------- journal geometry guard
class TestShardJournal:
    def _run(self, campaign_pipeline, base_model, wal, **kwargs):
        kwargs.setdefault("warm_pool", False)
        kwargs.setdefault("pipeline", False)
        return campaign_pipeline.run_campaign(
            base_model.clone(),
            TIMESTEPS,
            FRACTION,
            finetune_epochs=2,
            journal=wal,
            **kwargs,
        )

    def test_sharded_journal_refuses_unsharded_resume(
        self, campaign_pipeline, base_model, tmp_path
    ):
        wal = tmp_path / "journal.jsonl"
        self._run(campaign_pipeline, base_model, wal, shards=(2, 1, 1), halo=4)
        with pytest.raises(JournalCorruptionError, match="config"):
            self._run(campaign_pipeline, base_model, wal, resume=True)

    def test_unsharded_journal_refuses_sharded_resume(
        self, campaign_pipeline, base_model, tmp_path
    ):
        wal = tmp_path / "journal.jsonl"
        self._run(campaign_pipeline, base_model, wal)
        with pytest.raises(JournalCorruptionError, match="config"):
            self._run(
                campaign_pipeline, base_model, wal,
                shards=(2, 1, 1), halo=4, resume=True,
            )

    def test_shard_geometry_mismatch_refused(
        self, campaign_pipeline, base_model, tmp_path
    ):
        wal = tmp_path / "journal.jsonl"
        self._run(campaign_pipeline, base_model, wal, shards=(2, 1, 1), halo=4)
        with pytest.raises(JournalCorruptionError, match="config"):
            self._run(
                campaign_pipeline, base_model, wal,
                shards=(2, 2, 1), halo=4, resume=True,
            )
        with pytest.raises(JournalCorruptionError, match="config"):
            self._run(
                campaign_pipeline, base_model, wal,
                shards=(2, 1, 1), halo=5, resume=True,
            )

    def test_sharded_resume_completes_bit_identically(
        self, campaign_pipeline, base_model, tmp_path
    ):
        import repro.resilience.chaos as chaos

        kwargs = dict(shards=(2, 1, 1), halo=BIG_HALO)
        full = self._run(
            campaign_pipeline, base_model, tmp_path / "full.jsonl", **kwargs
        )
        wal = tmp_path / "torn.jsonl"
        self._run(campaign_pipeline, base_model, wal, **kwargs)
        assert chaos.torn_tail(wal, drop_records=3) > 0
        resumed = self._run(
            campaign_pipeline, base_model, wal, resume=True, **kwargs
        )
        assert 0 < resumed.resumed < len(TIMESTEPS)
        assert _strip_timing(resumed.rows) == _strip_timing(full.rows)
        for i in range(resumed.resumed, len(TIMESTEPS)):
            assert (
                resumed.reconstructions[i].tobytes()
                == full.reconstructions[i].tobytes()
            )


# ------------------------------------------------- per-shard fine-tuning
class TestFineTuneShards:
    def test_shard_field_and_sample_restriction(self, campaign_pipeline):
        field = campaign_pipeline.field(TIMESTEPS[0])
        plan = ShardPlan.create(field.grid, (2, 1, 1), 2)
        shard = plan.shards[0]
        local = shard_field(shard, field)
        assert local.grid == shard.local_grid
        assert np.array_equal(
            local.values, field.values[: shard.ext_hi[0], :, :]
        )
        sample = campaign_pipeline.sample(field, FRACTION)
        restricted = shard_sample(shard, sample)
        assert restricted.grid == shard.local_grid
        # Restriction keeps values paired with their (relocated) indices.
        back = shard.local_to_global(restricted.indices)
        lookup = dict(zip(sample.indices.tolist(), sample.values.tolist()))
        assert all(
            lookup[int(g)] == float(v)
            for g, v in zip(back, restricted.values)
        )

    def test_empty_shard_sample_rejected(self, campaign_pipeline):
        field = campaign_pipeline.field(TIMESTEPS[0])
        plan = ShardPlan.create(field.grid, (2, 1, 1), 0)
        sample = campaign_pipeline.sample(field, FRACTION)
        left = sample.indices[
            plan.shards[0].contains(field.grid.flat_to_multi(sample.indices))
        ]
        from repro.sampling import SampledField

        left_only = SampledField(
            grid=field.grid,
            indices=left,
            values=field.values.ravel()[left],
            fraction=FRACTION,
        )
        with pytest.raises(ValueError, match="no training samples"):
            shard_sample(plan.shards[1], left_only)

    def test_fine_tune_shards_stacks(self, campaign_pipeline, base_model):
        fields = [campaign_pipeline.field(t) for t in TIMESTEPS[:2]]
        trains = [
            [campaign_pipeline.sample(f, fr) for fr in (0.02, 0.05)] for f in fields
        ]
        plan = ShardPlan.create(fields[0].grid, (2, 1, 1), 4)
        before = snapshot_weights(base_model.model).data.copy()
        stacks, histories = fine_tune_shards(
            base_model, fields, trains, plan, epochs=1
        )
        assert len(stacks) == len(histories) == 2
        for stack in stacks:
            assert stack.shape == (2, before.size)
        # The base model is never mutated, and shards actually diverge.
        assert snapshot_weights(base_model.model).data.tobytes() == before.tobytes()
        assert stacks[0][0].tobytes() != stacks[0][1].tobytes()


# --------------------------------------------------- sharded in situ + CLI
class TestShardedInSitu:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_dataset("combustion", dims=DIMS, seed=0)

    def _writer(self, dataset, **kw):
        return InSituWriter(
            dataset=dataset,
            sampler=MultiCriteriaSampler(seed=5),
            fraction=FRACTION,
            train_model=True,
            train_fractions=(0.02, 0.05),
            epochs=3,
            finetune_epochs=2,
            model_kwargs={"hidden_layers": (16, 8), "seed": 7},
            **kw,
        )

    def test_sharded_campaign_roundtrip(self, dataset, tmp_path):
        target = tmp_path / "campaign"
        manifest = self._writer(dataset, shards="2x1x1", halo=4).run(
            target, TIMESTEPS
        )
        assert manifest.shards == (2, 1, 1) and manifest.halo == 4
        for t in TIMESTEPS[1:]:
            assert len(manifest.shard_model_files[str(t)]) == 2
        reader = CampaignReader(target)
        assert reader.shard_plan.counts == (2, 1, 1)
        t = TIMESTEPS[1]
        volume = reader.reconstruct(t)
        field = dataset.field(t=t)
        assert volume.shape == field.values.shape
        assert np.isfinite(volume).all()
        sample = reader.load_sample(t)
        assert np.array_equal(volume.ravel()[sample.indices], sample.values)
        # Stitched quality stays in the same band as an unsharded campaign.
        plain = tmp_path / "plain"
        self._writer(dataset).run(plain, TIMESTEPS)
        ref = CampaignReader(plain).reconstruct(t)
        delta = abs(
            score_reconstruction(field.values, volume).snr
            - score_reconstruction(field.values, ref).snr
        )
        assert delta <= 1.0

    def test_per_shard_model_access(self, dataset, tmp_path):
        target = tmp_path / "campaign"
        self._writer(dataset, shards=(2, 1, 1), halo=4).run(target, TIMESTEPS)
        reader = CampaignReader(target)
        t = TIMESTEPS[1]
        assert reader.load_model(t, shard=1) is not None
        with pytest.raises(KeyError, match="per-shard"):
            reader.load_model(t)
        with pytest.raises(IndexError, match="out of range"):
            reader.load_model(t, shard=9)
        # The base timestep trains globally: no shard argument needed.
        assert reader.load_model(TIMESTEPS[0]) is not None

    def test_manifest_backward_compatible(self, dataset, tmp_path):
        from repro.insitu.campaign import CampaignManifest

        target = tmp_path / "plain"
        manifest = self._writer(dataset).run(target, TIMESTEPS[:2])
        text = manifest.to_json()
        assert "shard_model_files" not in text  # old readers see old schema
        again = CampaignManifest.from_json(text)
        assert again.shards is None and again.shard_model_files == {}

    def test_shards_require_training(self, dataset):
        with pytest.raises(ValueError, match="train_model"):
            InSituWriter(
                dataset, MultiCriteriaSampler(seed=5), FRACTION, shards="2"
            )
        with pytest.raises(ValueError, match="halo requires shards"):
            InSituWriter(
                dataset,
                MultiCriteriaSampler(seed=5),
                FRACTION,
                train_model=True,
                halo=3,
            )

    def test_cli_campaign_with_shards(self, tmp_path):
        from repro import tools

        out = tmp_path / "cli-campaign"
        msg = tools.cmd_campaign(
            str(out),
            dims=DIMS,
            timesteps=TIMESTEPS,
            fraction=FRACTION,
            train=True,
            fractions=(0.02, 0.05),
            epochs=3,
            finetune_epochs=2,
            shards="2",
            halo=4,
        )
        assert "shards 2x1x1 halo 4" in msg
        reader = CampaignReader(out)
        assert reader.shard_plan is not None
        assert np.isfinite(reader.reconstruct(TIMESTEPS[1])).all()
