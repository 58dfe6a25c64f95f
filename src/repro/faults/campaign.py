"""Fault campaigns: resilience measurement as a repeatable experiment.

A campaign is "run this workload on this NoC while this fault schedule
plays out, and report what survived": accepted traffic, latency of what
completed, how many transactions were retried or reported lost, and
whether the network ever stopped making progress (caught by the
:class:`~repro.faults.watchdog.ProgressWatchdog` rather than hanging
the simulation).

Specs are frozen dataclasses and :func:`run_campaign` is a module-level
function, so campaigns plug into
:class:`repro.flow.runner.ExperimentRunner` for process-parallel,
disk-cached execution exactly like load sweeps do -- ``FaultCampaign``
is the convenience wrapper, and ``python -m repro faults`` the CLI.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.injector import FaultInjector, FaultWindow
from repro.faults.watchdog import NoProgressError, ProgressWatchdog
from repro.flow.runner import ExperimentRunner, RunManifest, stable_repr
from repro.network.experiments import TopologyNocBuilder
from repro.network.traffic import UniformRandomTraffic
from repro.sim.batch import SEED_STRIDE, BatchSimulator, mean_ci95
from repro.sim.snapshot import SimSnapshot, SnapshotError
from repro.telemetry import events as _events


@dataclass(frozen=True)
class CampaignSpec:
    """One fault-campaign run, fully described (picklable, hashable)."""

    builder: TopologyNocBuilder
    windows: Tuple[FaultWindow, ...] = ()
    rate: float = 0.05
    warmup_cycles: int = 200
    measure_cycles: int = 2000
    max_outstanding: int = 4
    seed: int = 0
    #: Arm a ProgressWatchdog with this horizon; ``None`` disables
    #: (the campaign then relies on NI timeouts alone).
    watchdog_horizon: Optional[int] = 2000
    label: str = ""

    def cache_token(self) -> str:
        """Opt into ExperimentRunner disk caching (see stable_repr)."""
        return "CampaignSpec"


@dataclass(frozen=True)
class CampaignResult:
    """What one campaign run observed."""

    label: str
    offered_rate: float
    cycles_run: int
    issued: int
    completed: int
    failed: int  # transactions reported lost (SResp.ERR)
    retried: int
    accepted_rate: float  # completed transactions per cycle, post-warmup
    mean_latency: float
    p95_latency: float
    errors_injected: int
    flits_dropped: int
    retransmissions: int
    windows_opened: int
    no_progress: bool = False
    no_progress_cycle: int = -1
    diagnosis: str = ""
    manifest: Optional[RunManifest] = field(default=None, compare=False)
    #: Replica lanes this result was reduced over (1 = a single seed,
    #: the historical behaviour; the metric fields are then raw).
    replicas: int = 1
    #: 95% confidence half-widths when ``replicas > 1``:
    #: ``{"accepted_rate": ..., "mean_latency": ..., "p95_latency": ...}``
    #: (Student-t; see docs/BATCHING.md).  Derived and dict-valued, so
    #: excluded from equality/hash like the manifest.
    ci95: Optional[Dict[str, float]] = field(default=None, compare=False)
    #: The raw per-lane values behind the means, keyed by metric name --
    #: kept so figures can plot distributions, excluded from equality.
    lane_metrics: Optional[Dict[str, Tuple[float, ...]]] = field(
        default=None, compare=False
    )


def _latency_stats(samples: Sequence[int]) -> Tuple[float, float]:
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    mean = sum(ordered) / len(ordered)
    p95 = ordered[min(len(ordered) - 1, int(0.95 * (len(ordered) - 1)))]
    return mean, float(p95)


def campaign_checkpoint_path(spec: CampaignSpec, checkpoint_dir: str) -> str:
    """Where a campaign's mid-run checkpoint lives.

    Keyed by the sha256 of ``stable_repr(spec)``, so the same spec
    always finds its own checkpoint and different specs never collide.
    """
    digest = hashlib.sha256(stable_repr(spec).encode()).hexdigest()
    return os.path.join(checkpoint_dir, f"campaign-{digest[:16]}.ckpt")


def _build_campaign_noc(spec: CampaignSpec):
    """Deterministically rebuild the campaign's NoC + injector.

    Called both for a fresh run and before restoring a checkpoint: the
    snapshot layer stores state only, so restore needs a structurally
    identical simulator (see docs/CHECKPOINT.md)."""
    noc = spec.builder()
    injector = FaultInjector(noc, spec.windows)
    targets = list(noc.topology.targets)
    patterns = {
        ni: UniformRandomTraffic(targets, spec.rate, seed=spec.seed + 17 * i)
        for i, ni in enumerate(noc.topology.initiators)
    }
    noc.populate(patterns, max_outstanding=spec.max_outstanding)
    return noc, injector


def run_campaign(
    spec: CampaignSpec,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> CampaignResult:
    """Build, fault, run and measure one campaign (module-level so
    ExperimentRunner worker processes can pickle it).

    With ``checkpoint_every`` and ``checkpoint_dir`` set, the run is
    sliced at checkpoint boundaries and a deterministic simulator
    snapshot (plus warm-up accounting in its extras) is written after
    each slice -- slicing ``run`` is cycle-identical to one long run.
    With ``resume=True`` an existing checkpoint for this spec is
    restored and only the remaining cycles are simulated; an unreadable
    or structurally stale checkpoint falls back to a fresh run.
    """
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1 cycles, got {checkpoint_every}")
    ckpt_path: Optional[str] = None
    if checkpoint_every is not None:
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every needs a checkpoint_dir")
        ckpt_path = campaign_checkpoint_path(spec, checkpoint_dir)

    noc, injector = _build_campaign_noc(spec)
    total_cycles = spec.warmup_cycles + spec.measure_cycles

    warm_completed = 0
    warm_samples = 0
    warm_captured = False
    if resume and ckpt_path is not None and os.path.exists(ckpt_path):
        try:
            snap = SimSnapshot.load(ckpt_path)
            extras = noc.sim.restore(snap)
            warm_completed = extras.get("warm_completed", 0)
            warm_samples = extras.get("warm_samples", 0)
            warm_captured = extras.get("warm_captured", False)
        except SnapshotError:
            # Stale or torn checkpoint: a partial restore may have
            # touched state, so rebuild and start from cycle 0.
            noc, injector = _build_campaign_noc(spec)
            warm_completed = warm_samples = 0
            warm_captured = False

    # The watchdog hooks the *live* simulator, so (re-)arm it only
    # after any restore; it re-baselines on its first check.
    watchdog = (
        ProgressWatchdog(noc, horizon=spec.watchdog_horizon)
        if spec.watchdog_horizon is not None
        else None
    )

    # Run in slices so warm-up stats are captured punctually and
    # checkpoints land on exact multiples of checkpoint_every.
    boundaries = {spec.warmup_cycles, total_cycles}
    if ckpt_path is not None:
        boundaries.update(range(checkpoint_every, total_cycles, checkpoint_every))

    no_progress = False
    no_progress_cycle = -1
    diagnosis = ""
    try:
        for boundary in sorted(boundaries):
            if boundary <= noc.sim.cycle:
                continue
            noc.run(boundary - noc.sim.cycle)
            if noc.sim.cycle == spec.warmup_cycles and not warm_captured:
                warm_completed = noc.total_completed()
                warm_samples = len(noc.aggregate_latency().samples)
                warm_captured = True
            if (
                ckpt_path is not None
                and boundary % checkpoint_every == 0
                and boundary < total_cycles
            ):
                snap = noc.sim.snapshot(
                    extras={
                        "warm_completed": warm_completed,
                        "warm_samples": warm_samples,
                        "warm_captured": warm_captured,
                    }
                )
                snap.save(ckpt_path)
                _events.emit("checkpoint", cycle=boundary, lane=None)
    except NoProgressError as exc:
        no_progress = True
        no_progress_cycle = exc.cycle
        diagnosis = exc.describe()
    finally:
        if watchdog is not None:
            watchdog.detach()

    if ckpt_path is not None and not no_progress:
        # Finished cleanly: the checkpoint has served its purpose.
        try:
            os.unlink(ckpt_path)
        except OSError:
            pass

    cycles_run = noc.sim.cycle
    measured = max(cycles_run - spec.warmup_cycles, 1)
    completed = noc.total_completed()
    samples = noc.aggregate_latency().samples[warm_samples:]
    mean, p95 = _latency_stats(samples)
    return CampaignResult(
        label=spec.label or f"rate={spec.rate}",
        offered_rate=spec.rate,
        cycles_run=cycles_run,
        issued=noc.total_issued(),
        completed=completed,
        failed=noc.total_transactions_failed(),
        retried=noc.total_transactions_retried(),
        accepted_rate=(completed - warm_completed) / measured,
        mean_latency=mean,
        p95_latency=p95,
        errors_injected=noc.total_errors_injected(),
        flits_dropped=noc.total_flits_dropped(),
        retransmissions=noc.total_retransmissions(),
        windows_opened=injector.windows_opened,
        no_progress=no_progress,
        no_progress_cycle=no_progress_cycle,
        diagnosis=diagnosis,
    )


#: Numeric metrics collected from every replica lane; the reduction
#: means each column and attaches 95% CIs to the headline three.
_LANE_METRICS = (
    "cycles_run", "issued", "completed", "failed", "retried",
    "accepted_rate", "mean_latency", "p95_latency", "errors_injected",
    "flits_dropped", "retransmissions", "windows_opened", "no_progress",
)


def _imean(values: Sequence[float]) -> int:
    return int(round(sum(values) / len(values)))


def run_campaign_replicated(
    spec: CampaignSpec,
    replicas: int,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    seed_stride: int = SEED_STRIDE,
) -> CampaignResult:
    """Run one campaign spec under ``replicas`` seed-varied lanes.

    The NoC is built and compiled **once** (a
    :class:`~repro.sim.batch.BatchSimulator`); lane ``k`` reruns the
    identical fault schedule with every traffic and link seed offset by
    ``k * seed_stride``.  Lane 0 uses the spec's own seeds, so a
    1-replica call reproduces :func:`run_campaign` exactly.  The lanes
    reduce to a single :class:`CampaignResult` of means carrying
    per-metric 95% confidence half-widths in ``ci95`` and the raw
    per-lane columns in ``lane_metrics``; a lane whose watchdog trips
    still contributes its truncated measurements, and the first trip's
    cycle/diagnosis surface on the reduced result.

    Checkpoints (``checkpoint_every`` + ``checkpoint_dir``) capture the
    in-flight lane's simulator state *plus* a format-v2 batch container
    (lane index, finished lanes' rows), so ``resume=True`` re-enters
    mid-lane and skips every finished lane.  A checkpoint from a
    different replica count or stride is treated as stale (fresh run).
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1 cycles, got {checkpoint_every}"
        )
    ckpt_path: Optional[str] = None
    if checkpoint_every is not None:
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every needs a checkpoint_dir")
        # Distinct from the scalar campaign's file: the two runs compute
        # different things, so they must never adopt each other's state.
        base = campaign_checkpoint_path(spec, checkpoint_dir)
        ckpt_path = base[: -len(".ckpt")] + f"-r{replicas}.ckpt"

    noc, injector = _build_campaign_noc(spec)
    total_cycles = spec.warmup_cycles + spec.measure_cycles
    boundaries = {spec.warmup_cycles, total_cycles}
    if ckpt_path is not None:
        boundaries.update(range(checkpoint_every, total_cycles, checkpoint_every))
    boundaries = sorted(boundaries)

    batch: Optional[BatchSimulator] = None
    rows: List[dict] = []
    start_lane = 0
    mid_lane = False
    warm = {"warm_completed": 0, "warm_samples": 0, "warm_captured": False}

    if resume and ckpt_path is not None and os.path.exists(ckpt_path):
        try:
            snap = SimSnapshot.load(ckpt_path)
            state = snap.batch
            if state is None:
                raise SnapshotError(
                    "checkpoint carries no batch container (scalar capture?)"
                )
            if (
                state["replicas"] != replicas
                or state["seed_stride"] != seed_stride
            ):
                raise SnapshotError(
                    f"batch checkpoint was taken with replicas="
                    f"{state['replicas']} stride={state['seed_stride']}; "
                    f"this run wants {replicas}/{seed_stride}"
                )
            extras = noc.sim.restore(snap)
            # Restore swaps the traffic patterns in by value, so the
            # batch must be built *after* it -- with the lane-k seeds
            # the checkpoint carries discounted back to the lane-0 base
            # (``assume_lane``).
            lane = int(state["lane"])
            batch = BatchSimulator(
                noc, replicas, seed_stride=seed_stride, assume_lane=lane
            )
            batch.lane = lane
            rows = [dict(r) for r in state["lane_results"]]
            start_lane = lane
            mid_lane = True
            warm = {
                "warm_completed": extras.get("warm_completed", 0),
                "warm_samples": extras.get("warm_samples", 0),
                "warm_captured": extras.get("warm_captured", False),
            }
        except SnapshotError:
            # Stale or torn checkpoint: a partial restore may have
            # touched state, so rebuild and start from lane 0.
            noc, injector = _build_campaign_noc(spec)
            batch = None
            rows = []
            start_lane = 0
            mid_lane = False
            warm = {"warm_completed": 0, "warm_samples": 0, "warm_captured": False}
    if batch is None:
        batch = BatchSimulator(noc, replicas, seed_stride=seed_stride)

    for k in range(start_lane, replicas):
        if not (mid_lane and k == start_lane):
            batch.begin_lane(k)
            warm = {"warm_completed": 0, "warm_samples": 0, "warm_captured": False}
        # Per lane, armed after any restore -- it re-baselines on its
        # first check, and a tripped lane must not poison the next.
        watchdog = (
            ProgressWatchdog(noc, horizon=spec.watchdog_horizon)
            if spec.watchdog_horizon is not None
            else None
        )
        no_progress = False
        no_progress_cycle = -1
        diagnosis = ""
        try:
            for boundary in boundaries:
                if boundary <= noc.sim.cycle:
                    continue
                batch.run_exact(boundary - noc.sim.cycle)
                if (
                    noc.sim.cycle == spec.warmup_cycles
                    and not warm["warm_captured"]
                ):
                    warm["warm_completed"] = noc.total_completed()
                    warm["warm_samples"] = len(noc.aggregate_latency().samples)
                    warm["warm_captured"] = True
                if (
                    ckpt_path is not None
                    and boundary % checkpoint_every == 0
                    and boundary < total_cycles
                ):
                    snap = noc.sim.snapshot(extras=dict(warm))
                    snap.batch = {
                        **batch.batch_state(),
                        "lane_results": [dict(r) for r in rows],
                    }
                    snap.save(ckpt_path)
                    _events.emit("checkpoint", cycle=boundary, lane=k)
        except NoProgressError as exc:
            no_progress = True
            no_progress_cycle = exc.cycle
            diagnosis = exc.describe()
        finally:
            if watchdog is not None:
                watchdog.detach()

        cycles_run = noc.sim.cycle
        measured = max(cycles_run - spec.warmup_cycles, 1)
        completed = noc.total_completed()
        samples = noc.aggregate_latency().samples[warm["warm_samples"]:]
        mean, p95 = _latency_stats(samples)
        rows.append(
            {
                "cycles_run": float(cycles_run),
                "issued": float(noc.total_issued()),
                "completed": float(completed),
                "failed": float(noc.total_transactions_failed()),
                "retried": float(noc.total_transactions_retried()),
                "accepted_rate": (completed - warm["warm_completed"]) / measured,
                "mean_latency": mean,
                "p95_latency": p95,
                "errors_injected": float(noc.total_errors_injected()),
                "flits_dropped": float(noc.total_flits_dropped()),
                "retransmissions": float(noc.total_retransmissions()),
                "windows_opened": float(injector.windows_opened),
                "no_progress": 1.0 if no_progress else 0.0,
                "no_progress_cycle": float(no_progress_cycle),
                "diagnosis": diagnosis,
            }
        )
        if _events.current_sink() is not None:
            # The digest is only hashed when somebody is listening: the
            # replay check (batch-smoke) compares per-lane digests of a
            # killed-and-resumed campaign against an uninterrupted one.
            _events.emit(
                "lane_batch", lane=k, replicas=replicas,
                metrics={name: rows[-1][name] for name in _LANE_METRICS},
                digest=noc.stats_digest(),
            )

    any_trip = any(r["no_progress"] for r in rows)
    if ckpt_path is not None and not any_trip:
        try:
            os.unlink(ckpt_path)
        except OSError:
            pass

    def col(name: str) -> Tuple[float, ...]:
        return tuple(float(r[name]) for r in rows)

    acc_mean, acc_half = mean_ci95(col("accepted_rate"))
    lat_mean, lat_half = mean_ci95(col("mean_latency"))
    p95_mean, p95_half = mean_ci95(col("p95_latency"))
    first_trip = next((r for r in rows if r["no_progress"]), None)
    return CampaignResult(
        label=spec.label or f"rate={spec.rate}",
        offered_rate=spec.rate,
        cycles_run=_imean(col("cycles_run")),
        issued=_imean(col("issued")),
        completed=_imean(col("completed")),
        failed=_imean(col("failed")),
        retried=_imean(col("retried")),
        accepted_rate=acc_mean,
        mean_latency=lat_mean,
        p95_latency=p95_mean,
        errors_injected=_imean(col("errors_injected")),
        flits_dropped=_imean(col("flits_dropped")),
        retransmissions=_imean(col("retransmissions")),
        windows_opened=_imean(col("windows_opened")),
        no_progress=any_trip,
        no_progress_cycle=(
            int(first_trip["no_progress_cycle"]) if first_trip else -1
        ),
        diagnosis=first_trip["diagnosis"] if first_trip else "",
        replicas=replicas,
        ci95={
            "accepted_rate": acc_half,
            "mean_latency": lat_half,
            "p95_latency": p95_half,
        },
        lane_metrics={name: col(name) for name in _LANE_METRICS},
    )


class CheckpointedCampaign:
    """A picklable ``run_campaign`` with checkpoint/resume bound in.

    Deliberately *not* a dataclass, and ``cache_token`` mirrors plain
    ``run_campaign``'s :func:`stable_repr`: checkpointing changes how a
    result is computed, never what it is, so runner cache keys must be
    identical with and without the flags -- a resumed sweep then hits
    the cache entries its killed predecessor already published.
    """

    def __init__(
        self,
        checkpoint_every: int,
        checkpoint_dir: str,
        resume: bool = False,
    ) -> None:
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume

    def __call__(self, spec: CampaignSpec) -> CampaignResult:
        return run_campaign(
            spec,
            checkpoint_every=self.checkpoint_every,
            checkpoint_dir=self.checkpoint_dir,
            resume=self.resume,
        )

    def cache_token(self):
        # The token is the wrapped function itself, so stable_repr sees
        # exactly what it sees for a plain run_campaign sweep.
        return run_campaign


class ReplicatedCampaign:
    """A picklable ``run_campaign_replicated`` with its knobs bound in.

    Unlike :class:`CheckpointedCampaign`, the cache token **must**
    encode the replica count and stride: replication changes the
    *result* (means + CIs), not just how it is computed, so an
    8-replica sweep and a 32-replica sweep may never share runner cache
    entries.  Checkpoint flags stay out of the token for the same
    reason they do in the scalar wrapper.
    """

    def __init__(
        self,
        replicas: int,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        seed_stride: int = SEED_STRIDE,
    ) -> None:
        self.replicas = replicas
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.seed_stride = seed_stride

    def __call__(self, spec: CampaignSpec) -> CampaignResult:
        return run_campaign_replicated(
            spec,
            self.replicas,
            checkpoint_every=self.checkpoint_every,
            checkpoint_dir=self.checkpoint_dir,
            resume=self.resume,
            seed_stride=self.seed_stride,
        )

    def cache_token(self) -> str:
        return (
            f"run_campaign_replicated(replicas={self.replicas}, "
            f"seed_stride={self.seed_stride})"
        )


class FaultCampaign:
    """A batch of campaign specs, optionally runner-accelerated.

    ``checkpoint_every`` / ``checkpoint_dir`` / ``resume`` thread the
    per-spec checkpointing of :func:`run_campaign` through the batch
    (and through the runner's worker processes).  ``replicas > 1``
    switches every spec to :func:`run_campaign_replicated`: each point
    becomes a seed-varied Monte-Carlo batch whose result carries 95%
    confidence intervals."""

    def __init__(
        self,
        specs: Sequence[CampaignSpec],
        runner: Optional[ExperimentRunner] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        replicas: Optional[int] = None,
        seed_stride: int = SEED_STRIDE,
    ) -> None:
        if checkpoint_every is not None and checkpoint_dir is None:
            raise ValueError("checkpoint_every needs a checkpoint_dir")
        if replicas is not None and replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.specs = list(specs)
        self.runner = runner
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.replicas = replicas
        self.seed_stride = seed_stride

    def _fn(self):
        if self.replicas is not None and self.replicas > 1:
            return ReplicatedCampaign(
                self.replicas,
                checkpoint_every=self.checkpoint_every,
                checkpoint_dir=self.checkpoint_dir,
                resume=self.resume,
                seed_stride=self.seed_stride,
            )
        if self.checkpoint_every is None:
            return run_campaign
        return CheckpointedCampaign(
            self.checkpoint_every, self.checkpoint_dir, self.resume
        )

    def run(self) -> List[CampaignResult]:
        fn = self._fn()
        if self.runner is not None:
            results = self.runner.map(fn, self.specs, label="campaign")
            # Same provenance surfacing as load_sweep: one manifest per
            # point, in input order (cache key, hit/miss, wall time).
            # Failed points (on_failure="record") carry no manifest.
            if len(self.runner.last_manifests) == len(results):
                return [
                    dataclasses.replace(r, manifest=m)
                    for r, m in zip(results, self.runner.last_manifests)
                ]
            return results
        return [fn(s) for s in self.specs]


def _env_flag(name: str, raw: Optional[str]) -> bool:
    """Parse a boolean environment variable strictly."""
    if raw is None or raw == "":
        return False
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{name} must be a boolean flag (0/1/true/false), got {raw!r}")


def checkpoint_options_from_env() -> dict:
    """``REPRO_CHECKPOINT_EVERY`` / ``REPRO_CHECKPOINT_DIR`` /
    ``REPRO_RESUME`` as :class:`FaultCampaign` keyword arguments.

    The environment is how ``python -m repro figures --checkpoint-every
    N --checkpoint-dir DIR --resume`` reaches campaigns inside
    pytest-collected benchmarks (same channel as REPRO_JOBS).  Invalid
    values raise :class:`ValueError` naming the variable.
    """
    raw = os.environ.get("REPRO_CHECKPOINT_EVERY") or None
    every: Optional[int] = None
    if raw is not None:
        try:
            every = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_CHECKPOINT_EVERY must be a cycle count, got {raw!r}"
            ) from None
        if every < 1:
            raise ValueError(
                f"REPRO_CHECKPOINT_EVERY must be >= 1 cycles, got {every}"
            )
    checkpoint_dir = os.environ.get("REPRO_CHECKPOINT_DIR") or None
    if every is not None and checkpoint_dir is None:
        raise ValueError("REPRO_CHECKPOINT_EVERY needs REPRO_CHECKPOINT_DIR")
    resume = _env_flag("REPRO_RESUME", os.environ.get("REPRO_RESUME"))
    return {
        "checkpoint_every": every,
        "checkpoint_dir": checkpoint_dir,
        "resume": resume,
    }


def replicas_from_env(default: Optional[int] = None) -> Optional[int]:
    """``REPRO_REPLICAS`` as a replica count (``python -m repro figures
    --replicas N`` reaches benchmarks through it, like REPRO_JOBS)."""
    raw = os.environ.get("REPRO_REPLICAS") or None
    if raw is None:
        return default
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_REPLICAS must be an integer, got {raw!r}"
        ) from None
    if n < 1:
        raise ValueError(f"REPRO_REPLICAS must be >= 1, got {n}")
    return n


def render_campaign(results: Sequence[CampaignResult]) -> str:
    """Printable table of campaign outcomes (with a +-95% CI column on
    the accepted rate when any result was replicated)."""
    with_ci = any(r.ci95 for r in results)
    header = (
        f"{'label':<22} {'acc/cyc':>8} {'mean':>7} {'p95':>6} "
        f"{'fail':>5} {'retry':>6} {'errs':>6} {'drop':>6} {'rtx':>7}"
    )
    if with_ci:
        header += f" {'+-acc95':>8} {'lanes':>6}"
    lines = [header + "  note"]
    for r in results:
        note = (
            f"NO PROGRESS @ {r.no_progress_cycle}" if r.no_progress else ""
        )
        row = (
            f"{r.label:<22} {r.accepted_rate:>8.4f} {r.mean_latency:>7.1f} "
            f"{r.p95_latency:>6.0f} {r.failed:>5} {r.retried:>6} "
            f"{r.errors_injected:>6} {r.flits_dropped:>6} "
            f"{r.retransmissions:>7}"
        )
        if with_ci:
            half = (r.ci95 or {}).get("accepted_rate", 0.0)
            row += f" {half:>8.4f} {r.replicas:>6d}"
        lines.append(row + f"  {note}")
    return "\n".join(lines)
