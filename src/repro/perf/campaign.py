# hot-path
"""Streaming campaign scheduler: pipelined sample -> fine-tune -> reconstruct.

The paper's Fig 11 campaign processes a stream of timesteps; the seed
implementation ran every stage sequentially and rebuilt all per-timestep
machinery (process pools, kd-trees, model copies) from scratch each step.
This module overlaps the stages and keeps everything warm:

* :class:`CampaignScheduler` — a 3-stage software pipeline.  Timestep
  ``t+1`` is *materialized* (simulated/loaded + sampled) on a prefetch
  thread while the caller's thread *processes* (fine-tunes on) timestep
  ``t`` and a single FIFO emit thread *reconstructs* timestep ``t-1``.
  Fine-tuning stays strictly sequential — model state flows from timestep
  to timestep — so results are **bit-identical** to the serial schedule;
  only side-effect-free work (I/O, sampling, reconstruction of already
  published weights) overlaps.
* :class:`LocalReconstructionSink` / :class:`WarmReconstructionPool` —
  the one reconstruction sink, in-process or on persistent workers fed
  through one shared-memory slot ring.  It reconstructs shard by shard
  over a :class:`~repro.shard.ShardedCampaignGeometry`; an unsharded
  campaign is the 1x1x1 plan with halo 0.  Grid geometry and base model
  weights ship **once per campaign** (counter
  ``campaign.shm_bundles_created``); each fine-tuned timestep afterwards
  publishes only a bitwise XOR weight delta (:mod:`repro.perf.weights`)
  and the refreshed sample values.  Workers cache per-shard kd-trees,
  neighbor indices and rebuilt models across timesteps; the in-process
  sink runs the same compute and is the pool's bit-identical reference
  and its fallback when shared memory is unavailable.
* :class:`CampaignGeometry` / :class:`GeometryCache` — sampled-location
  geometry (void indices/points, sample positions, content hash) computed
  once and shared by every stage and worker via lightweight
  :class:`~repro.sampling.base.SampledField` shells.

Bit-identity contract: worker chunk boundaries are aligned to the FCNN
predict block (``max(batch_size, 16384)``), so the matmul block shapes —
and therefore every float — match the serial
:meth:`~repro.core.reconstructor.FCNNReconstructor.reconstruct` exactly;
weight deltas are XOR (exact); the non-finite nearest-neighbor fallback is
replicated with the serial path's tree and counters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from queue import Empty, Full, Queue

import numpy as np

from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs import record_event, span
from repro.parallel.chunking import aligned_chunks
from repro.parallel.executor import ParallelExecutor
from repro.perf import shm as _shm
from repro.perf.shm import SharedArrayBundle
from repro.perf.weights import apply_weight_delta, restore_weights, snapshot_weights, weight_delta
from repro.resilience.report import ReconstructionReport
from repro.resilience.supervise import CampaignInterrupted
from repro.sampling.base import SampledField

__all__ = [
    "CampaignGeometry",
    "GeometryCache",
    "CampaignScheduler",
    "CampaignStats",
    "count_block_timesteps",
    "WarmReconstructionPool",
    "LocalReconstructionSink",
    "make_reconstruction_sink",
    "geometry_key",
    "SHARD_SCOPES",
]

#: Poll period for stop-aware blocking queue/semaphore operations.
_POLL_SECONDS = 0.05


# --------------------------------------------------------------------------
# geometry


def geometry_key(grid, indices: np.ndarray) -> str:
    """Content hash of a sampled-location set on a grid.

    Two samples with the same grid and the same kept indices share all
    derived geometry (void set, positions, kd-tree) regardless of their
    values or which objects hold them — this key identifies that
    equivalence class for :class:`GeometryCache`.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((grid.dims, grid.spacing, grid.origin)).encode())
    h.update(np.ascontiguousarray(np.asarray(indices, dtype=np.int64)).tobytes())
    return h.hexdigest()


class CampaignGeometry:
    """Frozen sampled-location geometry shared across a campaign's timesteps.

    Holds everything derivable from *where* the samples are (not what
    values they carry): sorted flat indices, sample positions, the void
    index/position arrays.  :meth:`shell` stamps out cheap
    :class:`SampledField` views that share the cached void arrays by
    object identity — which keeps the
    :class:`~repro.core.FeatureExtractor` neighbor-index memo hot across
    timesteps — and :meth:`refresh` overwrites a shell's values in place
    from a new timestep's field.
    """

    def __init__(self, grid, indices: np.ndarray, fraction: float) -> None:
        self.grid = grid
        indices = np.asarray(indices, dtype=np.int64)
        self.indices = np.sort(indices)
        self.fraction = float(fraction)
        self.key = geometry_key(grid, self.indices)
        # A template shell computes (and caches) the void geometry once.
        template = SampledField(
            grid=grid,
            indices=self.indices,
            values=np.zeros(self.indices.size, dtype=np.float64),
            fraction=self.fraction,
        )
        self._void_indices = template.void_indices()
        self._void_points = template.void_points()
        self._points: np.ndarray | None = None

    @classmethod
    def from_sample(cls, sample: SampledField) -> "CampaignGeometry":
        return cls(sample.grid, sample.indices, sample.fraction)

    # ----------------------------------------------------------------- sizes
    @property
    def num_samples(self) -> int:
        return int(self.indices.size)

    @property
    def num_voids(self) -> int:
        return int(self._void_indices.size)

    @property
    def void_indices(self) -> np.ndarray:
        return self._void_indices

    @property
    def void_points(self) -> np.ndarray:
        return self._void_points

    @property
    def points(self) -> np.ndarray:
        """Sample positions ``(M, 3)`` (cached; read-only by convention)."""
        if self._points is None:
            self._points = self.grid.index_to_position(
                self.grid.flat_to_multi(self.indices)
            )
        return self._points

    # ---------------------------------------------------------------- shells
    def shell(self, values: np.ndarray | None = None, timestep: int = 0) -> SampledField:
        """A :class:`SampledField` over this geometry sharing the cached voids.

        The returned shell's ``values`` array is freshly owned (safe to
        :meth:`refresh` in place); its void index/point arrays are the
        geometry's cached objects, so feature-extractor geometry memos keyed
        on array identity survive value updates.  Each pipeline stage that
        mutates values must use its **own** shell — in-place refreshes on a
        shared shell would race between overlapped stages.
        """
        if values is None:
            values = np.zeros(self.num_samples, dtype=np.float64)
        shell = SampledField(
            grid=self.grid,
            indices=self.indices,
            values=np.asarray(values, dtype=np.float64),
            fraction=self.fraction,
            timestep=int(timestep),
        )
        object.__setattr__(shell, "_void_indices", self._void_indices)
        object.__setattr__(shell, "_void_points", self._void_points)
        return shell

    def refresh(self, shell: SampledField, field) -> SampledField:
        """Overwrite ``shell``'s values in place from ``field`` at the frozen locations."""
        np.take(field.flat, shell.indices, out=shell.values)
        return shell


class GeometryCache:
    """Content-addressed LRU cache of :class:`CampaignGeometry` objects.

    Re-running a campaign (or reconstructing several models against the
    same sample locations) reuses the void enumeration, positions and the
    kd-trees hanging off the cached arrays instead of recomputing them per
    timestep.  Eviction is least-recently-used (a hit refreshes the
    entry), and the cache key folds in the caller's compute dtype so
    fast32 and fast64 runs over the same locations can never alias one
    entry.  Counters: ``campaign.geometry.hits`` / ``.misses``; gauges
    ``campaign.geometry.hit_count`` / ``.miss_count``.
    """

    def __init__(self, max_entries: int = 8) -> None:
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[tuple[str, str], CampaignGeometry] = OrderedDict()
        self._hits = 0
        self._misses = 0

    def get(self, sample: SampledField, dtype: str = "float64") -> CampaignGeometry:
        """The cached geometry for ``sample``'s locations (building it on miss).

        ``dtype`` is the caller's compute-dtype policy (for example
        ``reconstructor.dtype_policy.compute``); it is part of the cache
        key, not of the construction, so mixed-precision runs get
        distinct entries instead of aliasing each other's geometry.
        """
        key = (geometry_key(sample.grid, sample.indices), str(dtype))
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self._hits += 1
            obs_counter("campaign.geometry.hits").inc()
            obs_gauge("campaign.geometry.hit_count").set(self._hits)
            return cached
        self._misses += 1
        obs_counter("campaign.geometry.misses").inc()
        obs_gauge("campaign.geometry.miss_count").set(self._misses)
        geometry = CampaignGeometry.from_sample(sample)
        while len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
        self._entries[key] = geometry
        return geometry

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def __len__(self) -> int:
        return len(self._entries)


# --------------------------------------------------------------------------
# scheduler


@dataclass
class CampaignStats:
    """Wall-clock accounting of one :meth:`CampaignScheduler.run`."""

    timesteps: int
    pipeline: bool
    wall_seconds: float
    prefetch_seconds: float
    process_seconds: float
    emit_seconds: float

    def occupancy(self, stage: str) -> float:
        """Fraction of the run's wall time ``stage`` spent busy (0..1+)."""
        busy = {
            "prefetch": self.prefetch_seconds,
            "process": self.process_seconds,
            "emit": self.emit_seconds,
        }[stage]
        return busy / self.wall_seconds if self.wall_seconds > 0 else 0.0


def count_block_timesteps(stats: CampaignStats, blocks) -> CampaignStats:
    """Recount a block schedule's stats in timesteps.

    Batched campaigns drive the scheduler with one item per block of
    timesteps, so its ``stats.timesteps`` and ``campaign.timesteps``
    counter count blocks; this tops the counter up by the timesteps the
    blocks held beyond one each and returns stats that count timesteps.
    """
    timesteps = sum(len(block) for block in blocks)
    obs_counter("campaign.timesteps").inc(timesteps - stats.timesteps)
    return dataclasses.replace(stats, timesteps=timesteps)


class _Stop(Exception):
    """Internal: a stage was asked to stop mid-wait."""


_DONE = object()


class CampaignScheduler:
    """Three-stage streaming pipeline over a sequence of timesteps.

    Parameters
    ----------
    materialize:
        ``fn(timestep) -> item`` — produce/load + sample the timestep.
        Runs on the prefetch thread (one timestep ahead); must be free of
        order-dependent side effects (the analytic datasets and the
        samplers' stateless per-(seed, timestep) RNG qualify).
    process:
        ``fn(timestep, item) -> payload`` — fine-tune / mutate shared
        model state.  Runs on the **calling** thread, strictly in timestep
        order, exactly as in the serial schedule.
    emit:
        Optional ``fn(timestep, payload) -> result`` — reconstruct/score/
        write output.  Runs on a single FIFO emit thread; payloads must be
        self-contained snapshots (published weights + values), never live
        references into state ``process`` keeps mutating.
    pipeline:
        ``False`` runs the three stages inline in one loop — the serial
        reference schedule.  Results are bit-identical either way.
    depth:
        Emit backpressure: at most ``depth`` payloads may be completed-by-
        process-but-not-yet-emitted at once.  Sinks with a slot ring need
        ``slots >= depth + 1`` (one slot may still be publishing while
        ``depth`` wait/emit).
    interrupt:
        Optional :class:`repro.resilience.supervise.GracefulInterrupt`
        (or any object with a boolean ``triggered`` attribute).  Checked
        between timesteps: once triggered, the scheduler finishes the
        current timestep, drains every in-flight emit (their journal
        records stay durable), then raises
        :class:`~repro.resilience.supervise.CampaignInterrupted` naming
        the completed prefix and the resume point.  Results are never
        emitted out of order or dropped mid-stage.

    Error handling: an exception in any stage stops the pipeline, waits
    for in-flight stage calls to finish, and re-raises the original
    exception — a failed campaign never silently drops a timestep, and
    every result it *does* return was produced in order.

    Observability: spans ``campaign.prefetch`` / ``campaign.finetune`` /
    ``campaign.reconstruct`` per timestep (each thread's spans form their
    own tree roots — see :class:`repro.obs.SpanTracker`), occupancy
    gauges ``campaign.occupancy.{prefetch,finetune,reconstruct}`` and the
    ``campaign.timesteps`` counter; :attr:`stats` keeps the same numbers.
    """

    def __init__(
        self,
        materialize,
        process,
        emit=None,
        *,
        pipeline: bool = True,
        depth: int = 1,
        name: str = "campaign",
        interrupt=None,
    ) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.materialize = materialize
        self.process = process
        self.emit = emit
        self.pipeline = bool(pipeline)
        self.depth = int(depth)
        self.name = str(name)
        self.interrupt = interrupt
        self.stats: CampaignStats | None = None

    def _interrupted(self) -> bool:
        return self.interrupt is not None and bool(self.interrupt.triggered)

    def _raise_interrupted(self, steps: list[int], done: int) -> None:
        record_event(
            "campaign.interrupted",
            completed=done,
            total=len(steps),
            next_timestep=steps[done] if done < len(steps) else None,
        )
        raise CampaignInterrupted(
            f"campaign interrupted after {done}/{len(steps)} timesteps",
            completed=tuple(steps[:done]),
            next_timestep=steps[done] if done < len(steps) else None,
        )

    # ------------------------------------------------------------------ run
    def run(self, timesteps) -> list:
        """Process every timestep; returns per-timestep emit results in order."""
        steps = [int(t) for t in timesteps]
        wall0 = time.perf_counter()
        busy = {"prefetch": 0.0, "process": 0.0, "emit": 0.0}
        if not steps:
            results: list = []
        elif self.pipeline:
            results = self._run_pipelined(steps, busy)
        else:
            results = self._run_serial(steps, busy)
        wall = time.perf_counter() - wall0
        self.stats = CampaignStats(
            timesteps=len(steps),
            pipeline=self.pipeline,
            wall_seconds=wall,
            prefetch_seconds=busy["prefetch"],
            process_seconds=busy["process"],
            emit_seconds=busy["emit"],
        )
        obs_counter("campaign.timesteps").inc(len(steps))
        obs_gauge("campaign.occupancy.prefetch").set(self.stats.occupancy("prefetch"))
        obs_gauge("campaign.occupancy.finetune").set(self.stats.occupancy("process"))
        obs_gauge("campaign.occupancy.reconstruct").set(self.stats.occupancy("emit"))
        return results

    def _run_serial(self, steps: list[int], busy: dict) -> list:
        results = []
        for t in steps:
            if self._interrupted():
                self._raise_interrupted(steps, len(results))
            t0 = time.perf_counter()
            with span("campaign.prefetch", timestep=t):
                item = self.materialize(t)
            t1 = time.perf_counter()
            busy["prefetch"] += t1 - t0
            with span("campaign.finetune", timestep=t):
                payload = self.process(t, item)
            t2 = time.perf_counter()
            busy["process"] += t2 - t1
            with span("campaign.reconstruct", timestep=t):
                results.append(self.emit(t, payload) if self.emit is not None else payload)
            busy["emit"] += time.perf_counter() - t2
        return results

    # -------------------------------------------------------- pipelined mode
    def _run_pipelined(self, steps: list[int], busy: dict) -> list:
        n = len(steps)
        results: list = [None] * n
        fetch_q: Queue = Queue(maxsize=1)
        emit_q: Queue = Queue()
        slots = threading.Semaphore(self.depth)
        stop = threading.Event()
        errors: list[tuple[str, int, BaseException]] = []
        err_lock = threading.Lock()
        # busy and results are written from three threads (prefetcher,
        # caller, emitter); dict/list item writes are not atomic under
        # free-threaded builds, so every cross-thread write takes this.
        stats_lock = threading.Lock()

        def fail(stage: str, t: int, exc: BaseException) -> None:
            with err_lock:
                errors.append((stage, t, exc))
            stop.set()

        def prefetch_loop() -> None:
            t = steps[0]
            try:
                for i, t in enumerate(steps):
                    if stop.is_set():
                        return
                    t0 = time.perf_counter()
                    with span("campaign.prefetch", timestep=t):
                        item = self.materialize(t)
                    with stats_lock:
                        busy["prefetch"] += time.perf_counter() - t0
                    _stoppable_put(fetch_q, (i, t, item), stop)
            except _Stop:
                return
            except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                fail("materialize", t, exc)

        def emit_loop() -> None:
            while True:
                msg = emit_q.get()
                if msg is _DONE:
                    return
                i, t, payload = msg
                try:
                    t0 = time.perf_counter()
                    with span("campaign.reconstruct", timestep=t):
                        out = self.emit(t, payload) if self.emit is not None else payload
                    with stats_lock:
                        results[i] = out
                        busy["emit"] += time.perf_counter() - t0
                except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                    fail("emit", t, exc)
                    return
                finally:
                    # Release *after* the work: backpressure counts in-flight
                    # emits, not merely dequeued ones.
                    slots.release()

        prefetcher = threading.Thread(
            target=prefetch_loop, name=f"{self.name}-prefetch", daemon=True
        )
        emitter = threading.Thread(target=emit_loop, name=f"{self.name}-emit", daemon=True)
        prefetcher.start()
        emitter.start()
        cut: int | None = None
        try:
            for k in range(n):
                if self._interrupted():
                    # Stop pulling new timesteps; already-queued emits for
                    # processed timesteps still drain below, in order.
                    cut = k
                    break
                i, t, item = _stoppable_get(fetch_q, stop)
                t0 = time.perf_counter()
                with span("campaign.finetune", timestep=t):
                    payload = self.process(t, item)
                with stats_lock:
                    busy["process"] += time.perf_counter() - t0
                _stoppable_acquire(slots, stop)
                emit_q.put((i, t, payload))
        except _Stop:
            pass
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            fail("process", t, exc)
        finally:
            emit_q.put(_DONE)
            emitter.join()
            stop.set()  # release a prefetcher blocked on a full fetch queue
            _drain(fetch_q)
            prefetcher.join()
        if errors:
            stage, t, exc = errors[0]
            exc.args = exc.args if exc.args else (f"campaign {stage} stage failed",)
            record_event("campaign.failed", stage=stage, timestep=t, error=type(exc).__name__)
            raise exc
        if cut is not None:
            self._raise_interrupted(steps, cut)
        return results


def _stoppable_put(q: Queue, item, stop: threading.Event) -> None:
    while True:
        try:
            q.put(item, timeout=_POLL_SECONDS)
            return
        except Full:
            if stop.is_set():
                raise _Stop from None


def _stoppable_get(q: Queue, stop: threading.Event):
    while True:
        try:
            return q.get(timeout=_POLL_SECONDS)
        except Empty:
            if stop.is_set():
                raise _Stop from None


def _stoppable_acquire(sem: threading.Semaphore, stop: threading.Event) -> None:
    while not sem.acquire(timeout=_POLL_SECONDS):
        if stop.is_set():
            raise _Stop


def _drain(q: Queue) -> None:
    while True:
        try:
            q.get_nowait()
        except Empty:
            return


# --------------------------------------------------------------------------
# reconstruction sinks
#
# One implementation serves every campaign.  A sink is bound to a
# :class:`~repro.shard.ShardedCampaignGeometry`; a plain
# :class:`CampaignGeometry` is bound as a 1x1x1 shard plan with halo 0,
# whose one shard sees every sample and owns every void in global order.
# Each task reconstructs one chunk of one shard's owned voids from the
# samples inside that shard's halo-extended box.

#: Fine-tune scopes a sink understands.  ``"global"``: one model per
#: timestep reconstructs every shard (bit-identical to unsharded when the
#: halo holds the kNN stencil).  ``"local"``: one model per (timestep,
#: shard), trained on the shard's own extended box with a shard-local
#: normalizer (SNR parity, not bit-identity, with unsharded).
SHARD_SCOPES = ("global", "local")

#: Per-process cap on cached worker states (bundle attachments + models).
_SINK_STATE_MAX = 4


def _predict_block(reconstructor) -> int:
    """The FCNN predict block size — chunk boundaries must align to it."""
    return max(reconstructor.batch_size, 16384)


def _as_sharded(geometry):
    """``geometry`` as a :class:`~repro.shard.ShardedCampaignGeometry`."""
    from repro.shard import ShardedCampaignGeometry, ShardPlan

    if isinstance(geometry, ShardedCampaignGeometry):
        return geometry
    return ShardedCampaignGeometry(ShardPlan.create(geometry.grid, (1, 1, 1), 0), geometry)


def _nonfinite_fallback(
    pred: np.ndarray,
    sample_points: np.ndarray,
    sample_values: np.ndarray,
    query_points: np.ndarray,
    report: ReconstructionReport,
) -> np.ndarray:
    """Replicate the serial nearest-neighbor degradation for non-finite predictions.

    Same tree (built over the same sample positions), same counters
    (``reconstruct.fcnn.fallback``) and the same ``degraded`` event as
    :meth:`FCNNReconstructor._healthy_predictions`, so a campaign sink
    degrades bit-identically to — and is as observable as — a serial one.
    """
    bad = ~np.isfinite(pred)
    count = int(bad.sum())
    if count == 0:
        return pred
    from scipy.spatial import cKDTree

    pred = pred.copy()
    _, nearest = cKDTree(sample_points).query(query_points[bad], k=1)
    pred[bad] = sample_values[nearest]
    report.flag(
        len(report.degraded),
        count,
        f"{count}/{pred.size} non-finite FCNN prediction(s)",
        "nearest",
    )
    obs_counter("reconstruct.fcnn.fallback").inc(count)
    record_event("degraded", where="fcnn.predict", count=count, fallback="nearest")
    return pred


def _layout(sharded, models: dict, slots: int, scope: str) -> tuple[dict, dict, dict]:
    """The arrays, static worker init block and base weights of one bind.

    ========================  ===================================================
    ``indices``               ``(M,)`` sampled flat indices
    ``values``                ``(slots, M)`` per-slot sample values
    ``weights_base``          ``(T, W)`` base flat weights per tag
    ``weights_delta``         ``(slots, T, S, W)`` per-shard XOR deltas
    ``out``                   ``(slots, T, K)`` void predictions, grouped by shard
    ``sample_order``          each shard's visible samples, concatenated
    ``void_order``            the stitching permutation (partition of unity)
    ========================  ===================================================
    """
    tags = tuple(models)
    if not tags:
        raise ValueError("bind needs at least one tagged model")
    geometry = sharded.geometry
    metas, base = {}, {}
    for tag, model in models.items():
        network, normalizer = model._require_trained()
        flat = snapshot_weights(network).data
        base[tag] = np.array(flat, dtype=np.float64, copy=True)
        metas[tag] = {
            "ctor": {
                "hidden_layers": model.hidden_layers,
                "num_neighbors": model.extractor.num_neighbors,
                "include_gradients": model.extractor.include_gradients,
                "learning_rate": model.learning_rate,
                "batch_size": model.batch_size,
                "gradient_loss_weight": model.gradient_loss_weight,
                "seed": model.seed,
                "fast_path": model.fast_path,
                "dtype_policy": model.dtype_policy.compute,
            },
            "spec": network.spec(),
            "normalizer": normalizer.as_dict(),
            "num_weights": int(flat.size),
        }
    width = max(meta["num_weights"] for meta in metas.values())
    weights_base = np.zeros((len(tags), width), dtype=np.float64)
    for ti, tag in enumerate(tags):
        weights_base[ti, : base[tag].size] = base[tag]
    arrays = {
        "indices": geometry.indices,
        "values": np.zeros((slots, geometry.num_samples), dtype=np.float64),
        "weights_base": weights_base,
        "weights_delta": np.zeros(
            (slots, len(tags), sharded.num_shards, width), dtype=np.uint64
        ),
        "out": np.zeros((slots, len(tags), geometry.num_voids), dtype=np.float64),
        "sample_order": np.asarray(sharded.sample_order, dtype=np.int64),
        "void_order": np.asarray(sharded.void_order, dtype=np.int64),
    }
    init = {
        "grid": geometry.grid,
        "fraction": geometry.fraction,
        "counts": sharded.plan.counts,
        "halo": sharded.plan.halo,
        "scope": scope,
        "tags": tags,
        "models": metas,
        "sample_offsets": tuple(int(v) for v in sharded.sample_offsets),
        "void_offsets": tuple(int(v) for v in sharded.void_offsets),
    }
    return arrays, init, base


class LocalReconstructionSink:
    """In-process publish/reconstruct sink — the pool's serial twin.

    Protocol: :meth:`bind` a campaign geometry and tagged trained models
    once, then per timestep :meth:`publish` the sample values and flat
    weights into a slot of a ring and :meth:`reconstruct` it later.
    ``bind`` takes a :class:`CampaignGeometry` (one 1x1x1 shard, halo 0)
    or a :class:`~repro.shard.ShardedCampaignGeometry`; ``scope`` is one
    of :data:`SHARD_SCOPES`.  Only XOR weight deltas against the bound
    base weights are stored per slot.

    Every chunk runs the same worker compute (:class:`_SinkState`) as
    :class:`WarmReconstructionPool`, one chunk per shard, in this process:
    the sink is the pool's bit-identical reference and the fallback when
    shared memory is unavailable.  Slot discipline: a slot's contents stay
    valid until ``slots`` further publishes.
    """

    def __init__(self, slots: int = 2, scope: str = "global") -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if scope not in SHARD_SCOPES:
            raise ValueError(f"scope must be one of {SHARD_SCOPES}, got {scope!r}")
        self.slots = int(slots)
        self.scope = scope
        self.geometry: CampaignGeometry | None = None
        self.sharded = None
        self._arrays: dict[str, np.ndarray] = {}
        self._state: _SinkState | None = None
        self._tags: tuple[str, ...] = ()
        self._base: dict[str, np.ndarray] = {}
        self._chunks: dict[str, list[dict]] = {}
        self._timesteps: list[int | None] = []
        self._seq = 0

    @property
    def tags(self) -> tuple[str, ...]:
        return self._tags

    # ----------------------------------------------------------------- bind
    def bind(self, geometry, models: dict) -> None:
        """Install the campaign geometry and each tagged model's base weights."""
        self.unbind()
        sharded = _as_sharded(geometry)
        arrays, init, base = _layout(sharded, models, self.slots, self.scope)
        self._arrays = self._install(arrays, init)
        chunks_per_shard = self._chunks_per_shard(sharded.num_shards)
        self._chunks = {
            tag: [
                {"shard": s, "start": start, "stop": stop}
                for s, sg in enumerate(sharded.shards)
                for start, stop in aligned_chunks(
                    sg.num_voids, chunks_per_shard, _predict_block(model)
                )
            ]
            for tag, model in models.items()
        }
        if sharded is geometry:
            record_event(
                "campaign.shard.bound",
                shards=sharded.num_shards,
                counts=list(sharded.plan.counts),
                halo=sharded.plan.halo,
                scope=self.scope,
                halo_samples=int(sum(sharded.halo_imports())),
            )
        self.geometry = sharded.geometry
        self.sharded = sharded
        self._tags = init["tags"]
        self._base = base
        self._timesteps = [None] * self.slots
        self._seq = 0

    def _install(self, arrays: dict, init: dict) -> dict:
        """Place the bound arrays where chunks run; returns the parent's views."""
        self._state = _SinkState(arrays, init)
        return arrays

    def _chunks_per_shard(self, num_shards: int) -> int:
        return 1

    # -------------------------------------------------------------- publish
    def publish(self, timestep: int, values: np.ndarray, weights: dict) -> int:
        """Write one timestep's sample values + per-tag weight deltas to a slot.

        ``weights`` maps every bound tag to a flat ``(W,)`` vector (one
        model reconstructs every shard) or an ``(S, W)`` stack (local
        scope: one fine-tuned model per shard).  Publishing the global
        values row is the halo exchange: each shard gathers its
        extended-box subset through the bound ``sample_order``.
        """
        if self.sharded is None:
            raise RuntimeError("sink is not bound; call bind() first")
        if set(weights) != set(self._tags):
            raise ValueError(
                f"publish needs weights for every bound tag {sorted(self._tags)}, "
                f"got {sorted(weights)}"
            )
        slot = self._seq % self.slots
        self._seq += 1
        self._arrays["values"][slot][...] = values
        delta = self._arrays["weights_delta"]
        num_shards = self.sharded.num_shards
        for ti, tag in enumerate(self._tags):
            flat = np.asarray(weights[tag], dtype=np.float64)
            if flat.ndim == 1:
                delta[slot, ti, :, : flat.size] = weight_delta(self._base[tag], flat)[None, :]
                continue
            if flat.shape[0] != num_shards:
                raise ValueError(
                    f"per-shard weights for {tag!r} must have {num_shards} rows, "
                    f"got {flat.shape[0]}"
                )
            for s in range(num_shards):
                delta[slot, ti, s, : flat.shape[1]] = weight_delta(self._base[tag], flat[s])
        self._timesteps[slot] = int(timestep)
        return slot

    # ---------------------------------------------------------- reconstruct
    def reconstruct(
        self, slot: int, tag: str, on_nonfinite: str = "fallback"
    ) -> tuple[np.ndarray, ReconstructionReport]:
        """Reconstruct the full field for one published slot and model tag.

        Every chunk's predictions land in the slot's ``out`` row, grouped
        by shard; the stitch scatters them back to global void order,
        overlays the exact sample values and applies the serial path's
        non-finite fallback (global tree, global counters).
        """
        if self.sharded is None:
            raise RuntimeError("sink is not bound; call bind() first")
        if on_nonfinite not in ("fallback", "raise"):
            raise ValueError(
                f"on_nonfinite must be 'fallback' or 'raise', got {on_nonfinite!r}"
            )
        geometry = self.geometry
        ti = self._tags.index(tag)
        payloads = [
            {"slot": int(slot), "tag": tag, "tag_index": ti, **chunk}
            for chunk in self._chunks[tag]
        ]
        with span(
            "campaign.sink.reconstruct",
            tag=tag,
            shards=self.sharded.num_shards,
            chunks=len(payloads),
            timestep=self._timesteps[slot],
        ):
            self._run(payloads, tag)
            values = self._arrays["values"][slot]
            pred = np.empty(geometry.num_voids, dtype=np.float64)
            pred[self.sharded.void_order] = self._arrays["out"][slot, ti]
            report = ReconstructionReport(
                total_points=int(geometry.grid.num_points), fallback_method="nearest"
            )
            if not np.isfinite(pred).all():
                if on_nonfinite == "raise":
                    from repro.resilience.health import NumericalHealthError

                    count = int((~np.isfinite(pred)).sum())
                    raise NumericalHealthError(
                        f"FCNN produced {count}/{pred.size} non-finite predictions; "
                        "the model state is numerically poisoned"
                    )
                pred = _nonfinite_fallback(
                    pred, geometry.points, values, geometry.void_points, report
                )
            out = geometry.grid.empty_field().ravel()
            out[geometry.indices] = values
            out[geometry.void_indices] = pred
            return out.reshape(geometry.grid.dims), report

    def _run(self, payloads: list[dict], tag: str) -> None:
        for payload in payloads:
            self._state.run(payload)

    # -------------------------------------------------------------- teardown
    def unbind(self) -> None:
        """Drop the bound geometry, models and slot ring."""
        if self._state is not None:
            self._state.close()
        self._state = None
        self._arrays = {}
        self.geometry = None
        self.sharded = None
        self._tags = ()
        self._base = {}
        self._chunks = {}

    def close(self) -> None:
        self.unbind()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class WarmReconstructionPool(LocalReconstructionSink):
    """The same sink with its arrays in shared memory and chunks on warm workers.

    :meth:`bind` ships the :func:`_layout` arrays as one
    :class:`~repro.perf.shm.SharedArrayBundle` per campaign (counter
    ``campaign.shm_bundles_created``); afterwards no task payload carries
    an array — workers receive ``(campaign id, epoch, slot, tag, shard,
    chunk bounds)`` plus a small static init block, attach the segments
    once and keep the rebuilt models, per-shard kd-trees and neighbor
    slabs warm across every timestep.  :meth:`publish` writes only the
    sample values and XOR weight deltas.  ``bind`` raises ``OSError`` when
    shared memory is unavailable; :func:`make_reconstruction_sink` then
    degrades to :class:`LocalReconstructionSink`.

    The executor is a ``persistent=True``
    :class:`~repro.parallel.ParallelExecutor`: a crashed worker gets its
    recovery semantics (serial in-process re-run of the unresolved
    chunks, then pool recycle), so a killed worker degrades a timestep
    gracefully instead of dropping it.  Drive the pool from a
    :class:`CampaignScheduler` with ``depth <= slots - 1``.
    """

    def __init__(
        self,
        executor: ParallelExecutor | None = None,
        max_workers: int | None = None,
        num_chunks: int | None = None,
        slots: int = 2,
        worker_fn=None,
        scope: str = "global",
    ) -> None:
        super().__init__(slots=slots, scope=scope)
        self._owns_executor = executor is None
        self.executor = executor if executor is not None else ParallelExecutor(
            max_workers=max_workers, retries=1, persistent=True
        )
        self.num_chunks = num_chunks
        #: Task function run in workers; overridable for fault injection.
        self.worker_fn = worker_fn if worker_fn is not None else _sink_worker
        self.campaign_id = uuid.uuid4().hex
        self.epoch = -1
        self._bundle: SharedArrayBundle | None = None
        self._init: dict = {}

    def _install(self, arrays: dict, init: dict) -> dict:
        self._bundle = SharedArrayBundle.create(arrays)
        obs_counter("campaign.shm_bundles_created").inc()
        self.epoch += 1
        self._init = {**init, "specs": self._bundle.specs}
        return {name: self._bundle.view(name) for name in arrays}

    def _chunks_per_shard(self, num_shards: int) -> int:
        target = self.num_chunks if self.num_chunks is not None else self.executor.max_workers
        return max(1, -(-max(1, int(target)) // num_shards))

    def _run(self, payloads: list[dict], tag: str) -> None:
        """Fan the chunks out; raise the first failure once recovery is exhausted."""
        header = {"campaign": self.campaign_id, "epoch": self.epoch, "init": self._init}
        outcomes = self.executor.map_outcomes(
            self.worker_fn, [{**header, **payload} for payload in payloads]
        )
        obs_counter("campaign.pool.chunks").inc(len(payloads))
        for outcome in outcomes:
            if outcome.recovered is not None:
                obs_counter("campaign.pool.recovered").inc()
                record_event(
                    "campaign.chunk_recovered",
                    tag=tag,
                    chunk=outcome.index,
                    how=outcome.recovered,
                )
            if not outcome.ok:
                if outcome.exception is not None:
                    raise outcome.exception
                raise RuntimeError(
                    f"campaign chunk {outcome.index} ({tag}) failed: {outcome.error}"
                )

    def unbind(self) -> None:
        """Release the current campaign's shared segments (keeps the executor)."""
        super().unbind()
        bundle, self._bundle = self._bundle, None
        if bundle is not None:
            bundle.close()
        # Parent-side worker state (from serial in-process fallbacks) for the
        # released epoch is now stale — drop it.
        _evict_sink_states(self.campaign_id)
        self._init = {}

    def close(self) -> None:
        """Unbind and shut down the owned executor (idempotent)."""
        self.unbind()
        if self._owns_executor:
            self.executor.close()


def make_reconstruction_sink(
    geometry,
    models: dict,
    *,
    executor: ParallelExecutor | None = None,
    max_workers: int | None = None,
    num_chunks: int | None = None,
    slots: int = 2,
    scope: str = "global",
    warm_pool: bool = True,
):
    """Bind the best available reconstruction sink for this environment.

    Tries a :class:`WarmReconstructionPool` (shared memory + persistent
    workers); environments without usable shared memory — or callers
    passing ``warm_pool=False`` — get a :class:`LocalReconstructionSink`.
    Both take a :class:`CampaignGeometry` or a
    :class:`~repro.shard.ShardedCampaignGeometry`, speak the same
    publish/reconstruct protocol and produce bit-identical fields.
    """
    if warm_pool:
        pool = WarmReconstructionPool(
            executor=executor,
            max_workers=max_workers,
            num_chunks=num_chunks,
            slots=slots,
            scope=scope,
        )
        try:
            pool.bind(geometry, models)
            return pool
        except OSError:
            pool.close()
            record_event("campaign.pool_unavailable", fallback="local")
        except BaseException:
            # bind() failures beyond "no usable shm" are real errors, but
            # the half-bound pool still owns segments and workers — release
            # them before propagating or they outlive the test/run.
            pool.close()
            raise
    sink = LocalReconstructionSink(slots=slots, scope=scope)
    sink.bind(geometry, models)
    return sink


# --------------------------------------------------------------------------
# worker side


class _ShardContext:
    """One shard's warm reconstruction inputs: its sample shell and kd-tree."""

    def __init__(self, state: "_SinkState", s: int) -> None:
        from repro.core.features import sample_tree

        init = state.init
        geometry = state.geometry
        self.shard = state.plan.shards[s]
        soff = init["sample_offsets"]
        self.sel = state.sample_order[soff[s] : soff[s + 1]]
        global_sample = geometry.indices[self.sel]
        if init["scope"] == "local":
            self.grid = self.shard.local_grid
            indices = self.shard.global_to_local(global_sample)
        else:
            # Global scope keeps the shell on the *global* grid so sample
            # positions (and therefore features) are bitwise the unsharded
            # ones; only the candidate set shrinks to the extended box.
            self.grid = geometry.grid
            indices = global_sample
        self.shell = SampledField(
            grid=self.grid,
            indices=indices,
            values=np.zeros(self.sel.size, dtype=np.float64),
            fraction=geometry.fraction,
        )
        self.tree = sample_tree(self.shell.points)
        self._slabs: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}

    def slab(self, state: "_SinkState", start: int, stop: int, num_neighbors: int, workers: int):
        """Cached ``(query positions, neighbor indices)`` for one chunk.

        The indices come from the prediction path's own query
        (:func:`repro.core.features.nearest_samples`), so priming the
        feature extractor's memo with them is bit-identical to letting it
        query.
        """
        key = (start, stop, num_neighbors)
        cached = self._slabs.get(key)
        if cached is not None:
            return cached
        from repro.core.features import nearest_samples

        base = state.init["void_offsets"][self.shard.index]
        owned = state.void_order[base + start : base + stop]
        if state.init["scope"] == "local":
            local = self.shard.global_to_local(state.geometry.void_indices[owned])
            points = self.grid.index_to_position(self.grid.flat_to_multi(local))
        else:
            points = state.geometry.void_points[owned]
        idx = nearest_samples(self.tree, points, num_neighbors, workers=workers)
        self._slabs[key] = (points, idx)
        return points, idx


class _SinkState:
    """Warm per-process state for one bound campaign: arrays, plan and models.

    Works over any mapping of the bound arrays — shared-memory views in
    pool workers, plain arrays inside :class:`LocalReconstructionSink` —
    so both sinks run the exact same compute.
    """

    def __init__(self, arrays: dict, init: dict, handles: list | None = None) -> None:
        from repro.core.normalization import Normalizer
        from repro.core.reconstructor import FCNNReconstructor
        from repro.nn.network import from_spec
        from repro.shard import ShardPlan

        self.arrays = arrays
        self.handles = handles if handles is not None else []
        self.init = init
        self.plan = ShardPlan.create(init["grid"], init["counts"], init["halo"])
        indices = np.array(arrays["indices"], dtype=np.int64, copy=True)
        self.geometry = CampaignGeometry(init["grid"], indices, init["fraction"])
        self.sample_order = np.array(arrays["sample_order"], dtype=np.int64, copy=True)
        self.void_order = np.array(arrays["void_order"], dtype=np.int64, copy=True)
        self.models: dict = {}
        self.scratch: dict[str, np.ndarray] = {}
        for tag in init["tags"]:
            meta = init["models"][tag]
            recon = FCNNReconstructor(**meta["ctor"])
            recon.model = from_spec(meta["spec"])
            recon.dtype_policy.cast_model(recon.model)
            recon.normalizer = Normalizer.from_dict(meta["normalizer"])
            self.models[tag] = recon
            self.scratch[tag] = np.empty(meta["num_weights"], dtype=np.float64)
        self._contexts: dict[int, _ShardContext] = {}

    def context(self, s: int) -> _ShardContext:
        ctx = self._contexts.get(s)
        if ctx is None:
            ctx = self._contexts[s] = _ShardContext(self, s)
        return ctx

    def run(self, payload: dict) -> int:
        """Reconstruct one (slot, tag, shard, chunk) into the ``out`` segment.

        Decodes the slot's XOR weight delta into the warm model, gathers
        the shard's sample values from the global row, primes the feature
        extractor's neighbor memo from the per-chunk slab and predicts the
        chunk — every step bit-identical to the serial predict path.
        """
        slot = int(payload["slot"])
        tag = payload["tag"]
        ti = int(payload["tag_index"])
        s = int(payload["shard"])
        start, stop = int(payload["start"]), int(payload["stop"])
        recon = self.models[tag]
        w = self.scratch[tag].size
        ctx = self.context(s)

        flat = apply_weight_delta(
            self.arrays["weights_base"][ti, :w],
            self.arrays["weights_delta"][slot, ti, s, :w],
            out=self.scratch[tag],
        )
        restore_weights(recon.model, flat)
        np.take(self.arrays["values"][slot], ctx.sel, out=ctx.shell.values)

        extractor = recon.extractor
        points, idx = ctx.slab(self, start, stop, extractor.num_neighbors, extractor.workers)
        if extractor.cache_geometry:
            extractor._cached_sample = ctx.shell
            extractor._cached_tree = ctx.tree
            extractor._cached_query = points
            extractor._cached_idx = idx
        base = int(self.init["void_offsets"][s])
        self.arrays["out"][slot, ti, base + start : base + stop] = recon.predict_values(
            ctx.shell, points, ctx.grid
        )
        return stop - start

    def close(self) -> None:
        self.arrays = {}
        self._contexts.clear()
        _close_segments(self.handles)


def _close_segments(handles: list) -> None:
    for shm in handles:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a view is still referenced
            pass
    handles.clear()


#: (campaign id, epoch) -> warm state.  Module-level so pooled workers (and
#: the executor's in-process serial fallback) keep attachments across tasks.
_SINK_STATES: dict[tuple[str, int], _SinkState] = {}


def _evict_sink_states(campaign: str, keep_epoch: int | None = None) -> None:
    for key in [k for k in _SINK_STATES if k[0] == campaign and k[1] != keep_epoch]:
        _SINK_STATES.pop(key).close()


def _sink_state(payload: dict) -> _SinkState:
    """The warm state a task runs against: attach its bundle once per process."""
    key = (payload["campaign"], payload["epoch"])
    state = _SINK_STATES.get(key)
    if state is not None:
        return state
    # A new epoch of a campaign invalidates its older attachments.
    _evict_sink_states(payload["campaign"], keep_epoch=payload["epoch"])
    while len(_SINK_STATES) >= _SINK_STATE_MAX:
        _SINK_STATES.pop(next(iter(_SINK_STATES))).close()
    init = payload["init"]
    handles: list = []
    arrays: dict[str, np.ndarray] = {}
    try:
        for name, spec in init["specs"].items():
            shm = _shm._attach(spec.shm_name)
            handles.append(shm)
            arrays[name] = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
        state = _SinkState(arrays, init, handles)
    except BaseException:
        # A failure after the first attach must not leak the mappings
        # already opened: drop the views, then close every handle.
        arrays.clear()
        _close_segments(handles)
        raise
    _SINK_STATES[key] = state
    return state


def _sink_worker(payload: dict) -> int:
    """Pool task: attach (once per process), then reconstruct one chunk."""
    return _sink_state(payload).run(payload)
