"""Parallel, cached, crash-tolerant execution of independent experiment points.

Every sweep in the benchmarks decomposes into independent "build a NoC,
run it, summarise" points.  :class:`ExperimentRunner` executes a batch
of such points

* **in parallel** when ``jobs > 1``, on the one process pool of the
  library: the supervised work-stealing farm of
  :class:`repro.serve.WorkStealingDispatcher` -- ``jobs`` long-lived
  worker processes with heartbeats, crash isolation, bounded respawns
  and poison-point quarantine,
* **memoized** when a ``store`` (:class:`repro.store.ResultStore`) is
  configured: each point's result is a sha256-verified record under a
  key derived from the *identity* of the work (function qualname +
  arguments + salt), so re-generating figures after an unrelated edit
  costs nothing,
* **resiliently**: per-point wall-clock ``timeout``, bounded ``retries``
  with exponential backoff, and a ``runs.jsonl`` journal in the store
  root recording every completion and failure.  Results stream into
  the store and journal *as points finish*, so killing a sweep
  mid-flight loses none of the completed points -- re-running with the
  same store picks up where it stopped.  See ``docs/CHECKPOINT.md`` and
  ``docs/RESILIENCE.md``.

The cache key is built by :func:`stable_repr`, which canonicalises
dataclasses, enums, dicts/sets (sorted), callables (by qualname) and
objects exposing a ``cache_token()`` method.  Invalidation is by
construction: change any argument -- or bump
:data:`ExperimentRunner.salt` / the library's :data:`CACHE_VERSION` --
and the key changes.  See ``docs/PERFORMANCE.md`` for the rules and for
what is deliberately *not* hashed (code bodies: delete the store
directory after editing measurement code).

All knobs default off (``jobs=1``, no store, no timeout, no retries),
so existing sequential behaviour is unchanged unless a caller -- or
``python -m repro figures --jobs N --cache DIR`` via
:meth:`ExperimentRunner.from_env` -- opts in.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Bumped when the library changes in ways that invalidate cached
#: results wholesale (e.g. measurement-semantics fixes).  v2: sweep
#: points now carry a :class:`RunManifest`, so pre-manifest results must
#: not be served.
CACHE_VERSION = 2

#: Kinds a :class:`PointFailure` can carry: the worker function raised,
#: exceeded the wall-clock ``timeout``, the worker process died without
#: reporting (segfault / OOM kill / SIGKILL), went silent past the
#: dispatcher's liveness deadline (``stall``: wedged, not dead), or was
#: quarantined after killing too many consecutive workers
#: (``poisoned``; see :class:`repro.serve.WorkStealingDispatcher`).
FAILURE_KINDS = ("error", "timeout", "crash", "stall", "poisoned")


def stable_repr(obj: Any) -> str:
    """A deterministic, content-based representation for cache keys.

    Unlike ``repr``, never leaks memory addresses and orders unordered
    containers.  Objects may opt in with a ``cache_token()`` method
    returning any stable_repr-able value.  Unknown objects fall back to
    their class qualname (address masked) -- conservative, but two
    *different* unknown objects then collide, so sweep inputs should
    implement ``cache_token()`` (Topology and CoreGraph do).
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)  # repr round-trips floats exactly
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ", ".join(
            f"{f.name}={stable_repr(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__qualname__}({fields})"
    if isinstance(obj, (list, tuple)):
        inner = ", ".join(stable_repr(x) for x in obj)
        return f"[{inner}]" if isinstance(obj, list) else f"({inner})"
    if isinstance(obj, dict):
        items = sorted((stable_repr(k), stable_repr(v)) for k, v in obj.items())
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(obj, (set, frozenset)):
        return "{" + ", ".join(sorted(stable_repr(x) for x in obj)) + "}"
    if isinstance(obj, functools.partial):
        return (
            f"partial({stable_repr(obj.func)}, args={stable_repr(obj.args)}, "
            f"kwargs={stable_repr(obj.keywords)})"
        )
    token = getattr(obj, "cache_token", None)
    if callable(token):
        return stable_repr(token())
    if callable(obj):
        mod = getattr(obj, "__module__", "?")
        qual = getattr(obj, "__qualname__", repr(type(obj).__qualname__))
        return f"callable({mod}.{qual})"
    # Last resort: type identity only.  Good enough for singletons,
    # wrong for value-carrying objects -- hence cache_token().
    return f"opaque({type(obj).__module__}.{type(obj).__qualname__})"


@dataclass
class PointReport:
    """Wall-clock accounting for one executed (or cache-served) point."""

    label: str
    key: str
    seconds: float
    cached: bool


@dataclass
class PointFailure:
    """One point that exhausted its attempts -- with a repro bundle.

    ``kind`` is one of :data:`FAILURE_KINDS`.  ``point_repr`` /
    ``fn_repr`` are the :func:`stable_repr` of the inputs -- together
    with the cache key they identify the exact work to re-run in
    isolation (``runner.map(fn, [the_point])``).
    """

    label: str
    key: str
    kind: str
    message: str
    attempts: int
    seconds: float
    point_repr: str
    fn_repr: str
    traceback: str = ""

    def as_record(self) -> Dict[str, Any]:
        """JSON-serialisable journal form."""
        return {
            "status": "failed",
            "label": self.label,
            "key": self.key,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "seconds": round(self.seconds, 6),
            "point": self.point_repr,
            "fn": self.fn_repr,
        }


@dataclass(frozen=True)
class RunManifest:
    """Provenance record for one executed (or cache-served) point.

    Answers "where did this number come from?" long after the sweep: the
    cache key identifies the exact work, ``cached`` says whether this
    process computed it or served a stored record, ``seconds`` is the compute
    cost (0 for cache hits), and the version pair pins the library state
    the result was produced under.  :meth:`ExperimentRunner.map` stores
    one per point, in input order, in ``last_manifests``;
    :func:`repro.network.experiments.load_sweep` attaches them to its
    :class:`~repro.network.experiments.LoadPoint` results.
    """

    key: str
    cached: bool
    seconds: float
    repro_version: str
    cache_version: int = CACHE_VERSION

    @classmethod
    def local(cls, key: str, cached: bool, seconds: float) -> "RunManifest":
        import repro

        return cls(
            key=key,
            cached=cached,
            seconds=seconds,
            repro_version=repro.__version__,
        )


@dataclass
class ExperimentRunner:
    """Fan independent experiment points out; memoize their results.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) runs inline in this
        process, which keeps everything debuggable and imposes no
        picklability requirement.  With ``jobs > 1`` the batch goes to
        the supervised work-stealing farm
        (:class:`repro.serve.WorkStealingDispatcher` with
        ``workers=jobs``): long-lived workers, each isolated from its
        siblings, so a dying worker costs only the point it held.  The
        farm's failure model applies to every such sweep -- including
        poison-point quarantine: a point that kills 3 consecutive
        workers fails as ``"poisoned"`` instead of being retried.
    store:
        Optional :class:`repro.store.ResultStore`, the one result cache:
        sha256-verified, content-addressed records (docs/SERVICE.md).
        When set, every point is looked up there first and every
        computed result is published to it, so many runners -- possibly
        on many hosts -- pool their work.  A damaged record is
        quarantined by the store (``corrupt_records``) and recomputed.
        The ``runs.jsonl`` journal and the event stream live in the
        store's root directory.  ``None`` (default) disables
        memoization.
    salt:
        Extra string mixed into every cache key -- a manual
        invalidation lever for callers.
    timeout:
        Per-point wall-clock limit in seconds.  Enforced only when
        ``jobs > 1`` (a timed-out worker is killed and respawned);
        inline execution cannot be preempted and ignores it.
    retries:
        How many times a failed point is re-attempted (so a point runs
        at most ``retries + 1`` times).  Re-attempts are delayed by
        ``backoff * 2**attempt`` seconds.
    backoff:
        Base delay for the exponential retry backoff, in seconds.
    backoff_jitter:
        Fractional jitter on every backoff delay: each delay is
        multiplied by ``1 + backoff_jitter * u`` where ``u`` in
        ``[0, 1)`` comes from a :class:`random.Random` seeded from the
        sweep's cache keys (see :meth:`MapSession.backoff_delay`).
        Deterministic by construction -- two runs of the same plan
        sleep the same delays in the same order -- so jitter decorrelates
        retry storms without costing reproducibility.  ``0`` disables.
    on_failure:
        ``"raise"`` (default): after *all* points have finished (so
        completed siblings are stored and journaled), re-raise the
        first failure's exception.  ``"record"``: never raise; failed
        points yield ``None`` results and a :class:`PointFailure` in
        ``failures``.
    metrics:
        Optional :class:`repro.telemetry.registry.MetricsRegistry`;
        when set, ``runner.retries`` / ``runner.timeouts`` /
        ``runner.crashes`` / ``runner.stalls`` / ``runner.failures``
        counters are kept there too.
    events_path:
        Structured event stream destination
        (``repro.telemetry.events``, schema
        ``repro.telemetry.events/v1``).  Defaults to
        ``<store root>/events.jsonl`` whenever a store is configured;
        set explicitly to stream without a store, or to ``""`` to
        disable streaming entirely.  Workers ship their events back
        over their pipes; the parent merges everything into one
        append-only file that ``python -m repro top`` tails.
    """

    jobs: int = 1
    store: Optional[Any] = None
    salt: str = ""
    timeout: Optional[float] = None
    retries: int = 0
    backoff: float = 0.5
    backoff_jitter: float = 0.1
    on_failure: str = "raise"
    metrics: Optional[Any] = None
    events_path: Optional[str] = None
    reports: List[PointReport] = field(default_factory=list)
    failures: List[PointFailure] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    retry_count: int = 0
    timeout_count: int = 0
    crash_count: int = 0
    stall_count: int = 0
    failure_count: int = 0
    #: Per-point provenance for the most recent :meth:`map` call, in
    #: input order (unlike ``reports``, which accumulates across calls
    #: in completion order).  Failed points carry no manifest.
    last_manifests: List[RunManifest] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be a positive worker count, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive seconds, got {self.timeout}")
        if self.backoff_jitter < 0:
            raise ValueError(
                f"backoff_jitter must be >= 0, got {self.backoff_jitter}"
            )
        if self.on_failure not in ("raise", "record"):
            raise ValueError(
                f"on_failure must be 'raise' or 'record', got {self.on_failure!r}"
            )

    @classmethod
    def from_env(cls) -> "ExperimentRunner":
        """Build from the ``REPRO_*`` environment (the channel ``python
        -m repro figures --jobs N --cache DIR`` uses to reach runners
        inside pytest-collected benchmarks).

        Recognised: ``REPRO_JOBS`` (positive int), ``REPRO_CACHE``
        (a :class:`~repro.store.ResultStore` directory), ``REPRO_TIMEOUT``
        (seconds), ``REPRO_RETRIES`` (non-negative int).  Invalid values
        raise :class:`ValueError` naming the variable.
        """
        raw = os.environ.get("REPRO_JOBS", "1") or "1"
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer worker count, got {raw!r}"
            ) from None
        if jobs <= 0:
            raise ValueError(
                f"REPRO_JOBS must be a positive worker count (>= 1), got {jobs}"
            )
        cache = os.environ.get("REPRO_CACHE") or None
        raw_timeout = os.environ.get("REPRO_TIMEOUT") or None
        timeout: Optional[float] = None
        if raw_timeout is not None:
            try:
                timeout = float(raw_timeout)
            except ValueError:
                raise ValueError(
                    f"REPRO_TIMEOUT must be seconds (a number), got {raw_timeout!r}"
                ) from None
            if timeout <= 0:
                raise ValueError(
                    f"REPRO_TIMEOUT must be positive seconds, got {raw_timeout!r}"
                )
        raw_retries = os.environ.get("REPRO_RETRIES", "0") or "0"
        try:
            retries = int(raw_retries)
        except ValueError:
            raise ValueError(
                f"REPRO_RETRIES must be a non-negative integer, got {raw_retries!r}"
            ) from None
        if retries < 0:
            raise ValueError(
                f"REPRO_RETRIES must be a non-negative integer, got {retries}"
            )
        store = None
        if cache is not None:
            from repro.store import ResultStore

            store = ResultStore(cache)
        return cls(jobs=jobs, store=store, timeout=timeout, retries=retries)

    # -- telemetry --------------------------------------------------------
    def _count(self, name: str, attr: str) -> None:
        setattr(self, attr, getattr(self, attr) + 1)
        if self.metrics is not None:
            self.metrics.counter(f"runner.{name}").inc()

    # -- cache plumbing ---------------------------------------------------
    def _check_keyable_fn(self, fn: Callable) -> None:
        """Refuse functions whose :func:`stable_repr` is ambiguous.

        Callables hash by qualname only, so every lambda is
        ``<lambda>`` and every instantiation of a closure keeps one
        qualname while capturing different cells -- semantically
        different functions would share a cache key, and a shared
        :class:`~repro.store.ResultStore` would then serve a
        wrong-function hit to another host.  Enforced only when results
        are memoized (a ``store`` configured): without a store the keys
        are reporting labels, nothing is served by them.
        """
        probe = fn
        while isinstance(probe, functools.partial):
            probe = probe.func
        qualname = getattr(probe, "__qualname__", "")
        if getattr(probe, "__name__", None) == "<lambda>":
            raise ValueError(
                f"cannot cache results of lambda {qualname!r}: every "
                "lambda hashes to the same '<lambda>' identity, so "
                "cached results would be served across different "
                "functions.  Use a named module-level function (or "
                "functools.partial over one)."
            )
        if getattr(probe, "__closure__", None):
            raise ValueError(
                f"cannot cache results of closure {qualname!r}: captured "
                "cells do not enter the cache key, so two closures with "
                "the same qualname but different captured values would "
                "collide.  Pass captured values through the point or a "
                "functools.partial instead."
            )

    def _key(self, fn: Callable, point: Any) -> str:
        ident = (
            f"v{CACHE_VERSION}|{self.salt}|{stable_repr(fn)}|{stable_repr(point)}"
        )
        return hashlib.sha256(ident.encode()).hexdigest()

    # -- journal ----------------------------------------------------------
    @property
    def journal_path(self) -> Optional[str]:
        """``runs.jsonl`` inside the store root (None without a store)."""
        if self.store is None:
            return None
        return os.path.join(self.store.root, "runs.jsonl")

    def _journal_append(self, record: Dict[str, Any]) -> None:
        path = self.journal_path
        if path is None:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        line = json.dumps(record, sort_keys=True)
        with open(path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
            f.flush()

    def journal_entries(self) -> Dict[str, Dict[str, Any]]:
        """Latest journal record per cache key (empty without a store).

        Torn trailing lines (a run killed mid-write) are skipped, not
        fatal: the journal is an append-only ledger and every complete
        line stands on its own.
        """
        path = self.journal_path
        if path is None or not os.path.exists(path):
            return {}
        entries: Dict[str, Dict[str, Any]] = {}
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(rec, dict) and "key" in rec:
                    entries[rec["key"]] = rec
        return entries

    # -- execution --------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any], Any],
        points: Sequence[Any],
        label: str = "point",
        *,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        on_failure: Optional[str] = None,
    ) -> List[Any]:
        """``[fn(p) for p in points]`` with caching, parallelism and
        failure isolation.

        Results come back in input order.  ``fn`` must be a module-level
        callable (or :func:`functools.partial` over one) when
        ``jobs > 1`` so worker processes can run it; its arguments
        should be stable_repr-hashable when a store is configured.  The
        keyword arguments override the runner's instance-level defaults
        for this call only.

        Completed points are stored and journaled the moment they
        finish, *before* the batch ends -- a killed sweep loses nothing
        already done.  A failing point (exception, timeout, or worker
        death) is retried up to ``retries`` times with exponential
        backoff; a point that exhausts its attempts becomes a
        :class:`PointFailure` and, under ``on_failure="raise"``, the
        first failure is re-raised only after every sibling has
        finished.

        With ``jobs > 1`` the whole batch is handed to
        :class:`repro.serve.WorkStealingDispatcher` (``workers=jobs``);
        otherwise it runs inline.  Either way the bookkeeping (store
        probing, journaling, manifests, event stream, retry accounting)
        lives in :class:`MapSession` -- only the scheduling differs.
        """
        if self.jobs > 1:
            from repro.serve.dispatch import WorkStealingDispatcher

            return WorkStealingDispatcher(self, workers=self.jobs).map(
                fn, points, label,
                timeout=timeout, retries=retries, on_failure=on_failure,
            )
        session = MapSession(
            self, fn, points, label,
            timeout=timeout, retries=retries, on_failure=on_failure,
        )
        session.start()
        try:
            self._run_inline(session)
            session.emit_run_end()
        finally:
            session.close()
        return session.finalize()

    def map_replicated(
        self,
        fn: Callable[[Any], Any],
        points: Sequence[Any],
        replicas: int,
        fan: Callable[[Any, int], Any],
        label: str = "point",
        **map_kwargs: Any,
    ) -> List[List[Any]]:
        """Map every point under ``replicas`` variants, grouped back.

        ``fan(point, k)`` builds the ``k``-th variant of a point --
        typically the same measurement under a per-replica seed.  The
        fanned list runs through :meth:`map` as one flat batch, so each
        variant caches, journals and retries independently (growing
        ``replicas`` later re-runs only the new lanes).  Results come
        back grouped per original point, replicas in fan order;
        ``last_manifests`` stays flat in the fanned order
        (``len(points) * replicas`` entries when nothing failed).
        """
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        fanned = [fan(p, k) for p in points for k in range(replicas)]
        flat = self.map(fn, fanned, label=label, **map_kwargs)
        return [
            flat[i * replicas:(i + 1) * replicas] for i in range(len(points))
        ]

    def _run_inline(self, session: "MapSession") -> None:
        """Sequential execution of the pending points (``jobs == 1``)."""
        from repro.telemetry import events as _events

        for i in session.pending:
            attempts = 0
            while True:
                attempts += 1
                _events.emit(
                    "point_start", label=f"{session.label}[{i}]",
                    key=session.keys[i], attempt=attempts,
                )
                t0 = time.perf_counter()
                try:
                    result = session.fn(session.points[i])
                except Exception as exc:
                    seconds = time.perf_counter() - t0
                    if session.attempt_failed(
                        i, attempts, seconds, "error",
                        f"{type(exc).__name__}: {exc}", exc,
                        traceback.format_exc(),
                    ):
                        time.sleep(session.backoff_delay(i, attempts))
                        continue
                    break
                seconds = time.perf_counter() - t0
                session.finish_ok(i, attempts, seconds, result)
                break

    # -- reporting --------------------------------------------------------
    def render_report(self, title: str = "experiment runner") -> str:
        """Per-point wall-clock table plus hit/miss and failure totals."""
        lines = [
            f"{title}: jobs={self.jobs} "
            f"store={'off' if self.store is None else self.store.root} "
            f"hits={self.cache_hits} misses={self.cache_misses}",
        ]
        if (self.retry_count or self.timeout_count or self.crash_count
                or self.stall_count or self.failure_count):
            lines.append(
                f"  resilience: retries={self.retry_count} "
                f"timeouts={self.timeout_count} crashes={self.crash_count} "
                f"stalls={self.stall_count} failures={self.failure_count}"
            )
        for r in self.reports:
            status = "cached" if r.cached else f"{r.seconds:8.3f}s"
            lines.append(f"  {r.label:<28} {status:>10}  {r.key[:12]}")
        for f in self.failures:
            lines.append(
                f"  {f.label:<28} {'FAILED':>10}  {f.key[:12]} "
                f"[{f.kind} x{f.attempts}] {f.message}"
            )
        return "\n".join(lines)


class MapSession:
    """Bookkeeping for one batch of points, shared across schedulers.

    The two schedulers -- the inline loop of :meth:`ExperimentRunner.map`
    (``jobs == 1``) and the work-stealing farm
    (:class:`repro.serve.WorkStealingDispatcher`, ``jobs > 1``) -- differ
    only in *where* attempts run.  Everything around the scheduling is
    identical and lives here: effective retry/timeout configuration,
    cache keys and store probing, the streamed store/journal/manifest
    updates as points finish, retry accounting, the telemetry event
    stream, and the deferred first-failure re-raise.

    Lifecycle: construct (probes the store, classifying every point as
    a hit or ``pending``), :meth:`start` (opens the event stream and
    emits ``run_start`` plus the cache-hit ``point_end`` records), then
    the scheduler calls :meth:`finish_ok` / :meth:`attempt_failed` as
    attempts resolve, :meth:`emit_run_end`, :meth:`close` and
    :meth:`finalize` (publishes manifests, re-raises under
    ``on_failure="raise"``, returns results in input order).
    """

    def __init__(
        self,
        runner: ExperimentRunner,
        fn: Callable[[Any], Any],
        points: Sequence[Any],
        label: str = "point",
        *,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        on_failure: Optional[str] = None,
    ) -> None:
        self.runner = runner
        self.fn = fn
        self.points = points
        self.label = label
        self.timeout = runner.timeout if timeout is None else timeout
        self.retries = runner.retries if retries is None else retries
        self.on_failure = runner.on_failure if on_failure is None else on_failure
        if self.on_failure not in ("raise", "record"):
            raise ValueError(
                f"on_failure must be 'raise' or 'record', got {self.on_failure!r}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")

        if runner.store is not None:
            runner._check_keyable_fn(fn)
        self.keys = [runner._key(fn, p) for p in points]
        # Deterministic jitter seed: a function of *what* is being run,
        # not of wall-clock or pid, so chaos runs and resume replays
        # reproduce the exact same backoff delays (docs/RESILIENCE.md).
        self.jitter_seed = int.from_bytes(
            hashlib.sha256(
                ("backoff|" + label + "|" + "|".join(self.keys)).encode("utf-8")
            ).digest()[:8],
            "big",
        )
        self.results: List[Any] = [None] * len(points)
        self.manifests: List[Optional[RunManifest]] = [None] * len(points)
        self.tally = {"ok": 0, "failed": 0, "retries": 0}
        self.first_exc: Optional[BaseException] = None
        self.hits: List[int] = []
        self.pending: List[int] = []
        self._writer: Optional[Any] = None

        store = runner.store
        for i, key in enumerate(self.keys):
            hit, value = store.get(key) if store is not None else (False, None)
            if hit:
                runner.cache_hits += 1
                self.results[i] = value
                self.manifests[i] = RunManifest.local(key, cached=True, seconds=0.0)
                runner.reports.append(
                    PointReport(f"{label}[{i}]", key, 0.0, cached=True)
                )
                self.hits.append(i)
            else:
                runner.cache_misses += 1
                self.pending.append(i)

    # -- backoff ----------------------------------------------------------
    def backoff_delay(self, i: int, attempt: int, kind: str = "retry") -> float:
        """Seconds to wait before re-attempt ``attempt + 1`` of point
        ``i`` (or before respawning dispatcher worker slot ``i`` with
        ``kind="respawn"``): exponential in the attempt number with
        deterministic multiplicative jitter.

        The jitter stream is keyed by ``(sweep, kind, i, attempt)``
        alone -- not by which worker failed or when -- so the delay for
        a given re-attempt is the same in every run of the same plan,
        regardless of scheduling order.  Two runs of one chaos plan
        therefore produce identically ordered retry timelines.
        """
        base = self.runner.backoff * (2 ** (attempt - 1))
        jitter = self.runner.backoff_jitter
        if jitter <= 0 or base <= 0:
            return base
        rng = random.Random(f"{self.jitter_seed}|{kind}|{i}|{attempt}")
        return base * (1.0 + jitter * rng.random())

    # -- event stream -----------------------------------------------------
    def events_path(self) -> Optional[str]:
        runner = self.runner
        if runner.events_path is not None:
            return runner.events_path or None  # "" disables streaming
        if runner.store is not None:
            return os.path.join(runner.store.root, "events.jsonl")
        return None

    def start(self) -> None:
        from repro.telemetry import events as _events

        path = self.events_path()
        if path:
            self._writer = _events.install_sink(_events.EventWriter(path))
        _events.emit(
            "run_start", label=self.label, points=len(self.points),
            pending=len(self.pending), cached=len(self.hits),
            jobs=self.runner.jobs,
        )
        for i in self.hits:
            _events.emit(
                "point_end", label=f"{self.label}[{i}]", key=self.keys[i],
                status="ok", seconds=0.0, attempts=0, cached=True,
            )

    def emit_run_end(self) -> None:
        from repro.telemetry import events as _events

        _events.emit(
            "run_end", label=self.label, ok=self.tally["ok"],
            failed=self.tally["failed"], cached=len(self.hits),
            retries=self.tally["retries"],
        )

    def close(self) -> None:
        from repro.telemetry import events as _events

        if self._writer is not None:
            _events.remove_sink(self._writer)
            self._writer.close()
            self._writer = None

    # -- attempt outcomes -------------------------------------------------
    def finish_ok(self, i: int, attempts: int, seconds: float, result: Any) -> None:
        from repro.telemetry import events as _events

        runner = self.runner
        self.results[i] = result
        self.manifests[i] = RunManifest.local(
            self.keys[i], cached=False, seconds=seconds
        )
        runner.reports.append(
            PointReport(f"{self.label}[{i}]", self.keys[i], seconds, cached=False)
        )
        if runner.store is not None:
            runner.store.put(self.keys[i], result)
        runner._journal_append(
            {
                "status": "ok",
                "label": f"{self.label}[{i}]",
                "key": self.keys[i],
                "seconds": round(seconds, 6),
                "attempts": attempts,
            }
        )
        self.tally["ok"] += 1
        _events.emit(
            "point_end", label=f"{self.label}[{i}]", key=self.keys[i],
            status="ok", seconds=round(seconds, 6), attempts=attempts,
            cached=False,
        )

    def finish_failed(
        self,
        i: int,
        attempts: int,
        seconds: float,
        kind: str,
        message: str,
        exc: Optional[BaseException],
        tb: str = "",
    ) -> None:
        from repro.telemetry import events as _events

        runner = self.runner
        failure = PointFailure(
            label=f"{self.label}[{i}]",
            key=self.keys[i],
            kind=kind,
            message=message,
            attempts=attempts,
            seconds=seconds,
            point_repr=stable_repr(self.points[i]),
            fn_repr=stable_repr(self.fn),
            traceback=tb,
        )
        runner.failures.append(failure)
        runner._count("failures", "failure_count")
        runner._journal_append(failure.as_record())
        self.tally["failed"] += 1
        _events.emit(
            "point_end", label=failure.label, key=self.keys[i],
            status="failed", seconds=round(seconds, 6), attempts=attempts,
            cached=False, kind=kind, message=message,
        )
        if self.on_failure == "raise" and self.first_exc is None:
            self.first_exc = exc if exc is not None else RuntimeError(
                f"{failure.label} {kind} after {attempts} attempt(s): {message}"
            )

    def attempt_failed(
        self,
        i: int,
        attempt: int,
        seconds: float,
        kind: str,
        message: str,
        exc: Optional[BaseException],
        tb: str = "",
    ) -> bool:
        """Account one failed attempt.  Returns True when the point has
        retries left -- the caller schedules the re-attempt after its
        backoff -- and False when the failure is final (recorded,
        journaled and counted here)."""
        from repro.telemetry import events as _events

        runner = self.runner
        if kind == "timeout":
            runner._count("timeouts", "timeout_count")
        elif kind == "crash":
            runner._count("crashes", "crash_count")
        elif kind == "stall":
            runner._count("stalls", "stall_count")
        if attempt <= self.retries:
            runner._count("retries", "retry_count")
            self.tally["retries"] += 1
            _events.emit(
                "retry", label=f"{self.label}[{i}]", key=self.keys[i],
                attempt=attempt, kind=kind, message=message,
            )
            return True
        self.finish_failed(i, attempt, seconds, kind, message, exc, tb)
        return False

    # -- wrap-up ----------------------------------------------------------
    def finalize(self) -> List[Any]:
        self.runner.last_manifests = [m for m in self.manifests if m is not None]
        if self.first_exc is not None:
            raise self.first_exc
        return self.results
