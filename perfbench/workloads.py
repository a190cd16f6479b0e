"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload object is set up once per repeat (``setup``/``close``), then
runs timed operations for a wall-clock budget (``ops``), and afterwards
checks the outputs it produced against an independent reference
(``verify``).  The harness in ``run.py`` turns the returned measurements
into metrics.

* ``campaign`` — a Fig 11 campaign: batched Case-2 fine-tune of every
  timestep from a pretrained base, then reconstruction.  Fine-tune
  dominates; the reconstruct reuses one geometry (neighbour memo warm).
* ``cold_reconstruct`` — ``FCNNReconstructor.reconstruct`` on samples the
  program has never seen: kd-tree, void enumeration and neighbour memo are
  all cold, so the canonical tie-break and the forward pass dominate.
* ``serve_miss`` — an open loop against ``ReconstructionServer`` whose
  request mix misses the result cache about two times in three.

Only the generated inputs reach the program; every size lives in ``SIZES``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import queue
import threading
import time
from collections import deque
from pathlib import Path

import numpy as np

import oracles

#: Inputs per workload.  ``full`` is the benchmark; ``tiny`` is for the
#: smoke tests and runs each workload in about a second.
SIZES = {
    "full": {
        "campaign": dict(
            dims=(36, 36, 18), fraction=0.05, steps=8, hidden=(64, 32, 16),
            finetune_epochs=6, pretrain_epochs=5,
        ),
        "cold_reconstruct": dict(
            dims=(64, 64, 32), hidden=(128, 64, 32, 16), fractions=(0.01, 0.05),
            draws=6, pretrain_epochs=8, train_fraction=0.1, oracle_points=2000,
        ),
        "serve_miss": dict(
            dims=(24, 24, 12), keys=64, slots=16, skew=0.6, rates=(25, 200),
            hidden=(32, 16), epochs=6, finetune_epochs=2, in_flight=64,
            min_requests=20, rounds=8, check_seconds=1.5,
        ),
    },
    "tiny": {
        "campaign": dict(
            dims=(12, 12, 6), fraction=0.05, steps=3, hidden=(8, 4),
            finetune_epochs=2, pretrain_epochs=2,
        ),
        "cold_reconstruct": dict(
            dims=(16, 16, 8), hidden=(16, 8), fractions=(0.01, 0.05),
            draws=2, pretrain_epochs=2, train_fraction=0.5, oracle_points=200,
        ),
        "serve_miss": dict(
            dims=(10, 10, 5), keys=6, slots=2, skew=0.6, rates=(20, 50),
            hidden=(8, 4), epochs=2, finetune_epochs=1, in_flight=8,
            min_requests=10, rounds=1, check_seconds=0.3,
        ),
    },
}


def digest(array: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16).hexdigest()


class Progress:
    """Operation counts shared with the harness's deadline watchdog."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.completed = 0
        self.failed = 0

    def start(self) -> None:
        with self._lock:
            self.attempted += 1

    def finish(self, ok: bool = True) -> None:
        with self._lock:
            if ok:
                self.completed += 1
            else:
                self.failed += 1

    @property
    def outstanding(self) -> int:
        with self._lock:
            return self.attempted - self.completed - self.failed


@dataclasses.dataclass
class Ops:
    """What one timed phase measured.

    Each latency and each rate is paired with the yardstick time measured
    around it (``yards``, ``rate_yards``).
    """

    latencies: list[float]          # seconds per operation
    yards: list[float]
    rates: list[float]              # work units per second, per operation (or per round)
    rate_yards: list[float]
    extra: dict = dataclasses.field(default_factory=dict)


class Yardstick:
    """A fixed calibration kernel, timed between operations.

    A batched numpy matmul, a scipy kd-tree query, a lexsort and a Python
    loop on fixed inputs: the kinds of work the program does, none of the
    program's code.  When other tenants of a shared machine slow it down,
    they slow this kernel and the operations alike, so an operation's time
    in yardstick units stays steadier than its time in seconds.  A change
    to the program leaves the yardstick where it was.
    """

    def __init__(self) -> None:
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((8, 4096, 64))
        self.w = rng.standard_normal((8, 64, 32))
        self.tree = cKDTree(rng.random((20_000, 3)))
        self.queries = rng.random((15_000, 3))
        self.keys = rng.random(300_000)
        self.total = 0.0  # seconds spent in measure(), so reports can leave it out
        self.samples: list[float] = []

    def measure(self) -> float:
        t0 = time.perf_counter()
        for _ in range(10):
            np.matmul(self.a, self.w)
        self.tree.query(self.queries, k=20, workers=-1)
        np.lexsort((self.keys, self.keys[::-1]))
        total = 0
        for i in range(100_000):
            total += i
        seconds = time.perf_counter() - t0
        self.total += seconds
        self.samples.append(seconds)
        return seconds


def _pipeline(dataset_name: str, dims, sampler_seed: int):
    """A pipeline over a fixed synthetic simulation whose sample draws follow ``sampler_seed``.

    The simulated field itself is the same for every seed, as a simulation
    campaign's data would be; the seed picks which points get sampled.
    """
    from repro.core.pipeline import ReconstructionPipeline
    from repro.datasets.registry import make_dataset
    from repro.sampling import MultiCriteriaSampler

    data = make_dataset(dataset_name, dims=tuple(dims), seed=0)
    return ReconstructionPipeline(dataset=data, sampler=MultiCriteriaSampler(seed=sampler_seed))


class Workload:
    """Shared plumbing: the progress counters and the traced-run request tag."""

    def __init__(self, seed: int, size: dict, workdir: Path, progress: Progress) -> None:
        self.seed, self.size, self.workdir, self.progress = seed, size, workdir, progress
        self.op_index = 0
        self.yardstick = Yardstick()
        # The traced run replaces this to stamp each span with its operation.
        self.tag_request = lambda index: None

    def begin_op(self) -> None:
        self.tag_request(self.op_index)
        self.op_index += 1
        self.progress.start()


# --------------------------------------------------------------------------
# campaign


class Campaign(Workload):
    """Fig 11 campaign: pretraining is set-up, each whole campaign is one op."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.first_volumes: list[np.ndarray] | None = None
        self.digests: list[str] = []
        self.snrs: list[float] = []

    def setup(self) -> None:
        from repro.core.reconstructor import FCNNReconstructor

        self.pipe = _pipeline("combustion", self.size["dims"], self.seed)
        self.pipe.keep_reconstructions = True
        self.recon = FCNNReconstructor(hidden_layers=self.size["hidden"], seed=0)
        self.pipe.train_fcnn(self.recon, timestep=0, epochs=self.size["pretrain_epochs"])
        self.steps = list(range(1, self.size["steps"] + 1))

    def close(self) -> None:
        self.pipe = self.recon = None

    def run_one(self):
        return self.pipe.run_campaign(
            self.recon,
            self.steps,
            self.size["fraction"],
            finetune_epochs=self.size["finetune_epochs"],
            finetune_strategy="last",
            batched_finetune=True,
            pipeline=False,
            warm_pool=False,
        )

    def ops(self, seconds: float, min_ops: int = 2) -> Ops:
        cache = self.pipe.geometry_cache
        hits0, misses0 = cache.hits, cache.misses
        latencies, yards = [], []
        t_start = time.perf_counter()
        before = self.yardstick.measure()
        while time.perf_counter() - t_start < seconds or len(latencies) < min_ops:
            self.begin_op()
            t0 = time.perf_counter()
            result = self.run_one()
            latencies.append(time.perf_counter() - t0)
            self.progress.finish()
            after = self.yardstick.measure()
            yards.append((before + after) / 2)
            before = after
            if self.first_volumes is None:
                self.first_volumes = result.reconstructions
            self.digests.append("".join(digest(v) for v in result.reconstructions))
            self.snrs.append(float(np.mean([row["snr"] for row in result.rows])))
        lookups = (cache.hits - hits0) + (cache.misses - misses0)
        return Ops(
            latencies=latencies,
            yards=yards,
            rates=[len(self.steps) / seconds for seconds in latencies],
            rate_yards=yards,
            extra={"geometry_cache.hit_rate": (cache.hits - hits0) / lookups if lookups else 0.0},
        )

    def snr_db(self) -> float:
        return float(np.median(self.snrs))

    def verify(self) -> dict:
        checks = {}
        distinct = len(set(self.digests))
        checks["campaign.repeat_digest"] = (
            distinct == 1,
            f"{len(self.digests)} campaigns, {distinct} distinct volume digest(s)",
        )
        checks["campaign.repeat_snr"] = (
            len(set(self.snrs)) == 1, f"campaign SNRs {sorted(set(self.snrs))}",
        )
        first = (self.steps[0], 0)
        last = (self.steps[-1], len(self.steps) - 1)
        for t, pos in (first, last):
            ok, detail = oracles.campaign_step_matches(
                self.pipe, self.recon, self.steps[0], t, self.size, self.first_volumes[pos]
            )
            checks[f"campaign.reference_t{t}"] = (ok, detail)
        return checks


# --------------------------------------------------------------------------
# cold reconstruct


class ColdReconstruct(Workload):
    """Reconstruct never-seen samples: pre-drawn indices, fresh objects per call."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.outputs: dict[int, list[str]] = {}
        self.next_draw = 0
        self.snr: dict[int, float] = {}
        self.last_volume: dict[int, np.ndarray] = {}

    def setup(self) -> None:
        from repro.core.reconstructor import FCNNReconstructor

        # The pretrained model is set-up and the same for every seed; the
        # seed draws the samples reconstructed.
        self.pipe = _pipeline("ionization", self.size["dims"], 0)
        self.recon = FCNNReconstructor(hidden_layers=self.size["hidden"], seed=0)
        self.pipe.train_fcnn(
            self.recon, timestep=0, epochs=self.size["pretrain_epochs"],
            train_fraction=self.size["train_fraction"],
        )
        self.field = self.pipe.field(0)
        fractions = self.size["fractions"]
        # Index arrays only: each op wraps them in a new SampledField, so no
        # object-keyed memo (void set, kd-tree, neighbour indices) is warm.
        self.draws = [
            self.pipe.sample(
                self.field, fractions[i % len(fractions)], seed=self.seed * 1000 + 17 + i
            ).indices
            for i in range(self.size["draws"])
        ]

    def close(self) -> None:
        self.pipe = self.recon = self.field = None

    def sample(self, i: int):
        from repro.sampling.base import SampledField

        indices = self.draws[i].copy()
        fraction = self.size["fractions"][i % len(self.size["fractions"])]
        return SampledField(
            grid=self.field.grid, indices=indices, values=self.field.flat[indices],
            fraction=fraction,
        )

    def ops(self, seconds: float, min_ops: int = 2) -> Ops:
        from repro.metrics import snr

        latencies, rates, yards = [], [], []
        t_start = time.perf_counter()
        before = self.yardstick.measure()
        n = 0
        while time.perf_counter() - t_start < seconds or n < min_ops:
            draw = self.next_draw % len(self.draws)
            self.next_draw += 1
            sample = self.sample(draw)
            self.begin_op()
            t0 = time.perf_counter()
            volume = self.recon.reconstruct(sample)
            latencies.append(time.perf_counter() - t0)
            self.progress.finish()
            rates.append((self.field.grid.num_points - sample.num_samples) / latencies[-1])
            after = self.yardstick.measure()
            yards.append((before + after) / 2)
            before = after
            self.outputs.setdefault(draw, []).append(digest(volume))
            if draw not in self.snr:
                self.snr[draw] = float(snr(self.field.values, volume))
                self.last_volume[draw] = volume
            n += 1
        return Ops(latencies=latencies, yards=yards, rates=rates, rate_yards=yards)

    def snr_db(self) -> float:
        return float(np.mean(list(self.snr.values())))

    def verify(self) -> dict:
        checks = {}
        repeats = {d: len(set(v)) for d, v in self.outputs.items()}
        checks["cold.repeat_digest"] = (
            all(n == 1 for n in repeats.values()),
            f"distinct digests per draw {repeats}",
        )
        for draw, volume in sorted(self.last_volume.items()):
            ok, detail = oracles.neighbours_and_forward(
                self.recon, self.sample(draw), volume, self.size["oracle_points"],
                seed=self.seed * 1000 + draw,
            )
            checks[f"cold.oracle_draw{draw}"] = (ok, detail)
        return checks


# --------------------------------------------------------------------------
# serve


class ServeMiss(Workload):
    """Open-loop replay at fixed rates against a warm server, plus a saturation phase."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.server = None
        self.builds = 0
        self.touched: set = set()
        self.verified_keys: set = set()
        self.mismatched: set = set()
        self.stale = 0
        self.torn = 0
        self.verified = 0
        self.ref_digest: dict | None = None

    def setup(self) -> None:
        from repro.serve import (
            ReconstructionServer, ServeRequest, ServerConfig, build_registry,
        )

        size = self.size
        root = self.workdir / f"registry{self.builds}"
        self.builds += 1
        # The registry is the deployed model set and the same for every
        # seed; the seed generates the request trace.
        self.registry = build_registry(
            root, dataset="combustion", dims=size["dims"], fraction=0.05,
            timesteps=range(size["keys"]), epochs=size["epochs"],
            finetune_epochs=size["finetune_epochs"], hidden=size["hidden"], seed=0,
        )
        self.keys = self.registry.keys()
        # The result ring stays in process memory so the benchmark writes
        # nothing outside its checkout (the shm transport would use /dev/shm).
        self.server = ReconstructionServer(
            self.registry,
            ServerConfig(cache_slots=size["slots"], transport="local"),
            clock=time.perf_counter,
        )
        self.server.serve(ServeRequest(self.keys[0]), timeout=60)

    def close(self) -> None:
        server, self.server = self.server, None
        if server is not None:
            server.close()

    def prepare(self) -> None:
        """The seeded request trace."""
        from repro.serve import synthetic_trace

        # One fixed Zipf stream (fixed key popularity); the seed picks where
        # in it the run starts, so the hit rate does not swing with the seed.
        self.trace = synthetic_trace(self.keys, 200_000, seed=0, skew=self.size["skew"])
        self.trace_start = (self.seed * 9973) % self.trace.num_requests

    def references(self) -> None:
        """Reference bytes and SNR per key, from the in-process campaign sink.

        Built after the timed rounds, so neither the reference path's time
        nor its memory counts as the server's.
        """
        if self.ref_digest is not None:
            return
        from repro.metrics import snr
        from repro.perf.campaign import make_reconstruction_sink

        ns = self.registry.namespaces()[0]
        sink = make_reconstruction_sink(ns.geometry, {"fcnn": ns.base}, warm_pool=False)
        data = _pipeline("combustion", self.size["dims"], 0).dataset
        ref_digest, self.ref_snr = {}, {}
        try:
            for key in self.keys:
                weights, values = self.registry.cold_weights(key), self.registry.cold_values(key)
                slot = sink.publish(key.timestep, values, {"fcnn": weights})
                volume, _ = sink.reconstruct(slot, "fcnn")
                ref_digest[key] = digest(volume)
                self.ref_snr[key] = float(snr(data.field(key.timestep).values, volume))
        finally:
            sink.close()
        self.ref_digest = ref_digest

    def _check(self, ticket) -> None:
        """Compare one response's served bytes with the reference for its key.

        Responses are views into the result ring.  A response whose slot was
        recycled before ``assemble`` could read it raises StaleResultError
        and is re-requested later if its key stays unchecked.  Any bytes
        ``assemble`` hands back are compared.  A mismatch whose slot was
        recycled by the time the copy ended is counted as a torn read: the
        copy raced the slot's next store and raised nothing.
        """
        from repro.serve import StaleResultError

        key = ticket.request.key
        try:
            served = digest(ticket.value.assemble())
        except StaleResultError:
            self.stale += 1
            return
        self.verified += 1
        self.verified_keys.add(key)
        if served != self.ref_digest[key]:
            self.mismatched.add(key)
            try:
                ticket.value.values
            except StaleResultError:
                self.torn += 1

    def _collect(self, tickets: queue.Queue, deadline: float) -> None:
        """Check each response as soon as it completes, in submission order."""
        while True:
            ticket = tickets.get()
            if ticket is None:
                return
            if ticket.wait(max(0.0, deadline - time.perf_counter())) and ticket.status == "ok":
                self._check(ticket)

    def _phase(self, seconds: float, rate: float | None, min_requests: int,
               check: bool = False):
        """Submit at ``rate`` (None: as fast as ``in_flight`` allows) for ``seconds``.

        Returns ``(latencies, lateness, wall)``.  Latency runs from when each
        request was due to when the server completed it.  With ``check`` a
        second thread verifies every response while it is still in the
        result ring; timed phases leave it off so it takes no interpreter
        time from the server.
        """
        deadline = time.perf_counter() + seconds + 60.0
        checked: queue.Queue = queue.Queue()
        checker = None
        if check:
            checker = threading.Thread(target=self._collect, args=(checked, deadline), daemon=True)
            checker.start()
        submitted: list = []
        late: list[float] = []
        cap = self.size["in_flight"]
        window: deque = deque()
        t0 = time.perf_counter()
        try:
            while True:
                n = len(submitted)
                if rate is not None:
                    due = t0 + n / rate
                    if due - t0 >= seconds and n >= min_requests:
                        break
                    now = time.perf_counter()
                    if now < due:
                        time.sleep(due - now)
                    late.append(max(0.0, now - due))
                else:
                    if time.perf_counter() - t0 >= seconds and n >= min_requests:
                        break
                    while len(window) >= cap:
                        window.popleft().wait(max(0.0, deadline - time.perf_counter()))
                    due = time.perf_counter()
                request = self.trace.request(
                    (self.trace_start + self.op_index) % self.trace.num_requests
                )
                self.begin_op()
                ticket = self.server.submit(request)
                submitted.append((due, ticket))
                if check:
                    checked.put(ticket)
                if rate is None and not ticket.done():
                    window.append(ticket)
        finally:
            if checker is not None:
                checked.put(None)
                checker.join(max(0.0, deadline - time.perf_counter()))
        latencies = []
        for due, ticket in submitted:
            ok = ticket.wait(max(0.0, deadline - time.perf_counter())) and ticket.status == "ok"
            if ok:
                latencies.append(ticket.completed - due)
                self.touched.add(ticket.request.key)
            self.progress.finish(ok)
        return latencies, late, time.perf_counter() - t0

    def ops(self, seconds: float, min_ops: int | None = None) -> Ops:
        """Rounds of the low rate, 200 rps and saturation, so each phase spans the run."""
        if not hasattr(self, "trace"):
            self.prepare()
        least = self.size["min_requests"] if min_ops is None else min_ops
        rounds = self.size["rounds"]
        low, high = self.size["rates"]
        lat_low, yards, lat_high, late, rates, rate_yards = [], [], [], [], [], []
        stats_high = None
        requests = 0
        before = self.yardstick.measure()
        for _ in range(rounds):
            round_low, lag, _ = self._phase(0.5 * seconds / rounds, low, least)
            late += lag
            stats_before = self.server.stats()
            lat, lag, _ = self._phase(0.15 * seconds / rounds, high, least)
            lat_high += lat
            late += lag
            delta = _stats_delta(stats_before, self.server.stats())
            stats_high = delta if stats_high is None else {
                k: stats_high[k] + v for k, v in delta.items()
            }
            lat, _, wall = self._phase(0.35 * seconds / rounds, None, least)
            after = self.yardstick.measure()
            yard = (before + after) / 2
            before = after
            lat_low += round_low
            yards += [yard] * len(round_low)
            rates.append(len(lat) / wall)
            rate_yards.append(yard)
            requests += len(round_low) + len(lat)
        return Ops(
            latencies=lat_low,
            yards=yards,
            rates=rates,
            rate_yards=rate_yards,
            extra={
                "high_latencies": lat_high,
                "late": late,
                "stats_high": stats_high,
                "requests": requests + len(lat_high),
            },
        )

    def snr_db(self) -> float:
        self.references()
        touched = self.touched or set(self.keys)
        return float(np.mean([self.ref_snr[k] for k in touched]))

    def verify(self) -> dict:
        """Check served bytes in an untimed replay, then any key it missed."""
        from repro.serve import ServeRequest

        self.references()
        seconds = self.size["check_seconds"]
        self._phase(seconds, self.size["rates"][1], 1, check=True)
        self._phase(seconds, None, 1, check=True)
        for key in sorted(self.touched - self.verified_keys):
            self.progress.start()
            ticket = self.server.submit(ServeRequest(key))
            ok = ticket.wait(60) and ticket.status == "ok"
            if ok:
                self._check(ticket)
            self.progress.finish(ok)
        unchecked = self.touched - self.verified_keys
        return {
            "serve.bytes_equal_reference": (
                not self.mismatched and not unchecked and self.verified > 0,
                f"{self.verified} responses checked over {len(self.verified_keys)} keys "
                f"({len(self.touched)} touched while timed), {len(self.mismatched)} key(s) "
                f"mismatched ({self.torn} torn read(s): slot recycled during assemble), "
                f"{len(unchecked)} unchecked, {self.stale} recycled before assemble",
            )
        }


def _stats_delta(before: dict, after: dict) -> dict:
    keys = ("requests", "hits", "misses", "coalesced", "evals", "eval_members",
            "batches", "batch_requests")
    out = {k: after[k] - before[k] for k in keys}
    out["hot_hits"] = after["registry"]["hot_hits"] - before["registry"]["hot_hits"]
    out["hot_misses"] = after["registry"]["hot_misses"] - before["registry"]["hot_misses"]
    return out


WORKLOADS = {
    "campaign": Campaign,
    "cold_reconstruct": ColdReconstruct,
    "serve_miss": ServeMiss,
}
