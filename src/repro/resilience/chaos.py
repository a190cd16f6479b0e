"""End-to-end chaos harness: deterministic fault schedules over campaigns.

The PR 2 injectors (:mod:`repro.resilience.faults`) break one component at
a time; this module composes them with *process-level* faults and drives
whole pipelined campaigns under a schedule, so the crash-safety contract
("kill it anywhere, resume bit-identically, degrade boundedly") is a test
assertion rather than a hope:

* :class:`Fault` / :class:`FaultSchedule` — declarative "at stage S of
  timestep T, do X" with bounded fire budgets, safe to fire from any
  scheduler thread.  Plug a schedule's :meth:`~FaultSchedule.fire` into
  the campaign ``on_stage`` hooks
  (:meth:`repro.core.ReconstructionPipeline.run_campaign`,
  :meth:`repro.insitu.InSituWriter.run`);
* :class:`ChaosSink` — wraps a reconstruction sink so ``reconstruct``
  faults target specific timesteps (poison-timestep quarantine paths);
* :class:`WorkerKillFault` — picklable warm-pool worker that kills its
  *worker process* at a chosen chunk, exactly once (marker-file
  determinism across processes);
* :func:`torn_tail` — truncate a journal the way a crash does (drop the
  fsync boundary, optionally leave a half-written record);
* :func:`directory_digest` — content hashes of a campaign directory
  (``.wal/`` bookkeeping excluded) for byte-identity assertions.

Every fault here is deterministic: schedules trigger on (stage, timestep)
coordinates and explicit budgets, never wall-clock or randomness.

Unlike the rest of :mod:`repro.resilience`, the harness may reach *into*
the campaign stack (it exists to break it), so the package root does not
import this module — use ``import repro.resilience.chaos`` explicitly.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import record_event
from repro.resilience.faults import SimulatedCrash

__all__ = [
    "Fault",
    "FaultSchedule",
    "ChaosSink",
    "WorkerKillFault",
    "torn_tail",
    "directory_digest",
]

KINDS = ("raise", "stall", "sigterm")


@dataclass
class Fault:
    """One scheduled fault.

    ``stage`` matches the campaign's ``on_stage`` names (``materialize`` /
    ``process`` / ``emit``) or ``reconstruct`` via :class:`ChaosSink`;
    ``timestep=None`` matches every timestep.  ``times`` bounds how often
    the fault fires (``-1`` = permanent — the poison-timestep case).
    """

    stage: str
    timestep: int | None = None
    kind: str = "raise"        # "raise" | "stall" | "sigterm"
    times: int = 1             # fire budget; -1 = unlimited
    delay: float = 0.0         # stall duration (kind="stall")
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")

    def matches(self, stage: str, timestep: int) -> bool:
        if self.stage != stage:
            return False
        if self.timestep is not None and self.timestep != timestep:
            return False
        return self.times < 0 or self.fired < self.times

    def act(self, stage: str, timestep: int) -> None:
        if self.kind == "stall":
            time.sleep(self.delay)
            return
        if self.kind == "sigterm":
            os.kill(os.getpid(), signal.SIGTERM)
            return
        raise SimulatedCrash(
            f"injected chaos fault at stage {stage!r}, timestep {timestep}"
        )


class FaultSchedule:
    """A thread-safe set of faults fired from campaign stage hooks.

    ``schedule.fire`` is shaped exactly like the campaign ``on_stage``
    hooks (``fn(stage, timestep)``), so wiring a campaign under chaos is::

        schedule = FaultSchedule([Fault("process", timestep=16)])
        pipeline.run_campaign(..., on_stage=schedule.fire)

    ``fired`` records every injection as ``(stage, timestep, kind)`` —
    assert on it so a test that expected chaos actually got some.
    """

    def __init__(self, faults: list[Fault] | None = None) -> None:
        self.faults = list(faults or [])
        self.fired: list[tuple[str, int, str]] = []
        self._lock = threading.Lock()

    def add(self, fault: Fault) -> "FaultSchedule":
        with self._lock:
            self.faults.append(fault)
        return self

    def fire(self, stage: str, timestep: int) -> None:
        """Fire the first matching fault with budget (stage hook shape)."""
        timestep = int(timestep)
        with self._lock:
            fault = next(
                (f for f in self.faults if f.matches(stage, timestep)), None
            )
            if fault is None:
                return
            fault.fired += 1
            self.fired.append((stage, timestep, fault.kind))
        record_event(
            "chaos.fault", stage=stage, timestep=timestep, fault_kind=fault.kind
        )
        fault.act(stage, timestep)


class ChaosSink:
    """Reconstruction-sink wrapper injecting faults per published timestep.

    ``publish`` remembers which timestep owns which slot, so a
    ``reconstruct``-stage fault can target timestep coordinates even
    though sinks speak in slots.  Everything else delegates unchanged —
    the wrapped sink still closes, degrades and reports exactly as the
    real one.
    """

    def __init__(self, inner, schedule: FaultSchedule) -> None:
        self.inner = inner
        self.schedule = schedule
        self._slot_timestep: dict[int, int] = {}
        self._lock = threading.Lock()

    @property
    def executor(self):
        return getattr(self.inner, "executor", None)

    def publish(self, timestep: int, values, weights) -> int:
        slot = self.inner.publish(timestep, values, weights)
        with self._lock:
            self._slot_timestep[slot] = int(timestep)
        return slot

    def reconstruct(self, slot: int, tag: str):
        with self._lock:
            timestep = self._slot_timestep.get(slot, -1)
        self.schedule.fire("reconstruct", timestep)
        return self.inner.reconstruct(slot, tag)

    def close(self) -> None:
        self.inner.close()


class WorkerKillFault:
    """Picklable warm-pool worker killing its worker process, exactly once.

    Pass as ``worker_fn=`` to
    :class:`repro.perf.campaign.WarmReconstructionPool`.  The marker file
    makes "already crashed?" deterministic across processes, so the
    executor's broken-pool recovery (serial re-run, pool recycle) runs
    exactly once per campaign.  In-process execution (the executor's
    serial fallback) is never killed — only a real worker process dies.
    """

    def __init__(self, state_dir, exit_code: int = 23) -> None:
        self.state_dir = str(state_dir)
        self.exit_code = int(exit_code)
        self.parent_pid = os.getpid()

    @property
    def marker(self) -> str:
        return os.path.join(self.state_dir, "chaos-worker-kill.tripped")

    @property
    def tripped(self) -> bool:
        return os.path.exists(self.marker)

    def __call__(self, payload):
        from repro.perf.campaign import _sink_worker

        if os.getpid() != self.parent_pid and not os.path.exists(self.marker):
            with open(self.marker, "w", encoding="ascii") as fh:
                fh.write("tripped\n")
            os._exit(self.exit_code)
        return _sink_worker(payload)


def torn_tail(journal_path: str | os.PathLike, *, drop_records: int = 1, partial: bool = True) -> int:
    """Truncate a journal the way a mid-write crash does.

    Removes the last ``drop_records`` complete records and, with
    ``partial=True``, leaves the first half of the next-dropped record as
    a torn (checksum-failing) tail.  Returns the number of bytes removed.
    The journal loader must silently drop the tail and resume from the
    last intact record.
    """
    path = Path(journal_path)
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if drop_records <= 0 or not lines:
        return 0
    drop_records = min(drop_records, len(lines))
    kept, dropped = lines[:-drop_records], lines[-drop_records:]
    out = b"".join(line + b"\n" for line in kept)
    if partial:
        out += dropped[0][: max(1, len(dropped[0]) // 2)]
    path.write_bytes(out)
    return len(raw) - len(out)


def directory_digest(
    root: str | os.PathLike, *, ignore: tuple[str, ...] = (".wal",)
) -> dict[str, str]:
    """``{relative_path: sha256}`` for every file under ``root``.

    ``ignore`` prunes top-level bookkeeping directories (the WAL is
    *supposed* to differ between an interrupted+resumed run and an
    uninterrupted one; the campaign artifact is not).
    """
    root = Path(root)
    digest: dict[str, str] = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(root)
        if rel.parts and rel.parts[0] in ignore:
            continue
        digest[str(rel)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest
