"""Shared-memory transport: bundle lifecycle, worker attach, parallel parity."""

import numpy as np
import pytest

from repro.interpolation.nearest import NearestNeighborInterpolator
from repro.parallel import parallel_reconstruct
from repro.parallel.executor import ParallelExecutor
from repro.perf import SharedArrayBundle, SharedArraySpec, attached_arrays


class BoomInterpolator(NearestNeighborInterpolator):
    """Always-failing interpolator (module-level so workers can unpickle it)."""

    name = "boom"

    def interpolate(self, points, values, query, grid):
        raise RuntimeError("kaboom")


class TestBundle:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        arrays = {
            "points": rng.normal(size=(64, 3)),
            "values": rng.normal(size=64),
        }
        with SharedArrayBundle.create(arrays) as bundle:
            for name, arr in arrays.items():
                np.testing.assert_array_equal(bundle.view(name), arr)
            specs = bundle.specs
            assert set(specs) == {"points", "values"}
            assert specs["points"].shape == (64, 3)
            assert bundle.nbytes == sum(a.nbytes for a in arrays.values())

    def test_attach_sees_parent_writes_and_parent_sees_worker_writes(self):
        with SharedArrayBundle.create({"out": np.zeros(8)}) as bundle:
            with attached_arrays(bundle.specs) as arrays:
                arrays["out"][:4] = 7.0
            np.testing.assert_array_equal(
                bundle.view("out"), [7, 7, 7, 7, 0, 0, 0, 0]
            )

    def test_close_is_idempotent_and_invalidates_specs(self):
        bundle = SharedArrayBundle.create({"a": np.arange(3.0)})
        specs = bundle.specs
        bundle.close()
        bundle.close()  # safe to call twice
        with pytest.raises(FileNotFoundError):
            with attached_arrays(specs):
                pass

    def test_close_releases_views_before_closing_segments(self, monkeypatch):
        """close() must drop each numpy view before SharedMemory.close().

        The old teardown iterated the segment dict, so the (shm, view)
        tuples stayed alive through their dict entries and every close
        raised a silently-swallowed BufferError, deferring the real unmap
        to garbage collection.
        """
        import multiprocessing.shared_memory as sm

        buffer_errors = []
        real_close = sm.SharedMemory.close

        def checked_close(self):
            try:
                real_close(self)
            except BufferError as exc:  # pragma: no cover - the regression
                buffer_errors.append(exc)
                raise

        monkeypatch.setattr(sm.SharedMemory, "close", checked_close)
        bundle = SharedArrayBundle.create(
            {"a": np.arange(16.0), "b": np.ones((4, 4))}
        )
        bundle.close()
        assert buffer_errors == []

    def test_worker_attach_failure_closes_opened_handles(self, monkeypatch):
        """A crash between attach and first read must not leak open handles."""
        from repro.grid import UniformGrid
        from repro.perf import campaign as campaign_mod

        opened = []
        real_attach = campaign_mod._shm._attach

        def tracking_attach(name):
            shm = real_attach(name)
            opened.append(shm)
            return shm

        monkeypatch.setattr(campaign_mod._shm, "_attach", tracking_attach)
        with SharedArrayBundle.create(
            {"indices": np.arange(4, dtype=np.int64)}
        ) as bundle:
            specs = dict(bundle.specs)
            # second attach in the loop fails: the first, already-mapped
            # segment must be closed before the error propagates
            specs["missing"] = SharedArraySpec("psm_repro_never_created", (4,), "<f8")
            payload = {
                "campaign": "attach-failure",
                "epoch": 0,
                "init": {
                    "specs": specs,
                    "grid": UniformGrid((4, 1, 1)),
                    "fraction": 1.0,
                    "tags": [],
                    "models": {},
                },
            }
            with pytest.raises(FileNotFoundError):
                campaign_mod._sink_state(payload)
        assert len(opened) == 1
        assert opened[0].buf is None  # closed, not leaked
        assert ("attach-failure", 0) not in campaign_mod._SINK_STATES

    def test_worker_state_failure_closes_every_attached_segment(self, monkeypatch):
        """All segments map, then building the warm state fails: none may leak."""
        from repro.perf import campaign as campaign_mod

        opened = []
        real_attach = campaign_mod._shm._attach

        def tracking_attach(name):
            shm = real_attach(name)
            opened.append(shm)
            return shm

        monkeypatch.setattr(campaign_mod._shm, "_attach", tracking_attach)
        with SharedArrayBundle.create(
            {"indices": np.arange(4, dtype=np.int64), "values": np.zeros((1, 4))}
        ) as bundle:
            # no grid/plan keys: _SinkState raises after both attaches
            payload = {"campaign": "state-failure", "epoch": 0, "init": {"specs": bundle.specs}}
            with pytest.raises(KeyError):
                campaign_mod._sink_state(payload)
        assert len(opened) == 2
        assert all(shm.buf is None for shm in opened)
        assert ("state-failure", 0) not in campaign_mod._SINK_STATES

    def test_empty_array_supported(self):
        with SharedArrayBundle.create({"empty": np.empty((0, 3))}) as bundle:
            with attached_arrays(bundle.specs) as arrays:
                assert arrays["empty"].shape == (0, 3)

    def test_spec_nbytes(self):
        spec = SharedArraySpec("name", (4, 3), "<f8")
        assert spec.nbytes == 4 * 3 * 8


class TestParallelTransport:
    @pytest.mark.parametrize("transport", ["shm", "pickle", "auto"])
    def test_transports_agree(self, sample, transport):
        interp = NearestNeighborInterpolator()
        serial = interp.reconstruct(sample)
        field = parallel_reconstruct(
            interp,
            sample,
            executor=ParallelExecutor(max_workers=2),
            num_chunks=3,
            transport=transport,
        )
        np.testing.assert_array_equal(serial, field)

    def test_invalid_transport_rejected(self, sample):
        with pytest.raises(ValueError, match="transport"):
            parallel_reconstruct(
                NearestNeighborInterpolator(), sample, transport="carrier-pigeon"
            )

    def test_shm_failed_chunks_fall_back(self, sample):
        field, report = parallel_reconstruct(
            BoomInterpolator(),
            sample,
            executor=ParallelExecutor(max_workers=2),
            num_chunks=3,
            transport="shm",
            return_report=True,
        )
        assert len(report.degraded) == 3
        assert np.isfinite(field).all()

    def test_shm_strict_mode_raises(self, sample):
        with pytest.raises(RuntimeError):
            parallel_reconstruct(
                BoomInterpolator(), sample, fallback=None, transport="shm",
                executor=ParallelExecutor(max_workers=2), num_chunks=2,
            )

    def test_no_segments_leak(self, sample, tmp_path):
        import multiprocessing.shared_memory as sm
        import os

        before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else None
        parallel_reconstruct(
            NearestNeighborInterpolator(),
            sample,
            executor=ParallelExecutor(max_workers=2),
            num_chunks=2,
            transport="shm",
        )
        if before is not None:
            leaked = set(os.listdir("/dev/shm")) - before
            assert not {n for n in leaked if n.startswith("psm_")}
