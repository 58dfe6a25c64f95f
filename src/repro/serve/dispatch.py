"""Work-stealing dispatch of sweep points over long-lived workers.

This dispatcher is the library's one process pool: every parallel
sweep runs here, whether it comes from :meth:`ExperimentRunner.map`
with ``jobs > 1`` (which hands its batch over with ``workers=jobs``) or
from the farm tier of the DSE service (docs/SERVICE.md).  A static
partition of a sweep would leave early-finishing workers idle while a
straggler grinds through its share, and a process per point would pay
a process startup every time, so:

* ``workers`` **long-lived processes**, each fed over its own duplex
  pipe, amortize interpreter/import startup across many points;
* points are **sharded** round-robin into one deque per worker, so a
  healthy sweep keeps cache-friendly locality and a deterministic
  assignment;
* a worker that drains its shard **steals from the richest shard's
  tail** -- the classic Cilk/TBB discipline: the thief takes the work
  its victim would reach *last*, so stragglers shed load instead of
  gating the sweep.  Every steal is counted and emitted as a ``steal``
  event on the ``repro.telemetry.events`` plane;
* everything around the scheduling -- cache/store probing, streamed
  journal and manifest updates, bounded retries with seeded-jitter
  exponential backoff, per-point wall-clock timeouts (the worker is
  killed and respawned; only the point it held is re-attempted),
  crash isolation, the deferred first-failure re-raise -- is the
  *runner's own* machinery, reused through
  :class:`~repro.flow.runner.MapSession`.

Supervision (docs/RESILIENCE.md, "Supervision & chaos testing"): on
top of the scheduling, the dispatcher is its workers' supervisor.

* **Heartbeats with a liveness deadline.**  Each worker runs a
  background thread that sends ``("hb",)`` ticks over its duplex pipe
  while a point is executing.  A worker silent for longer than
  ``liveness`` seconds is *wedged, not dead* -- a SIGSTOP, a pathological
  native call -- and before this layer it was invisible until the
  per-point ``timeout`` (or forever, with no timeout configured).  The
  supervisor kills it, emits a ``worker_stall`` event, charges the
  attempt as kind ``"stall"`` and re-attempts only the point it held.
* **Restart budgets with seeded-jitter backoff.**  A killed worker's
  slot is respawned after an exponential, deterministically jittered
  delay (:meth:`MapSession.backoff_delay` with ``kind="respawn"``), and
  at most ``restart_budget`` respawns are spent per :meth:`map` call --
  a crash-looping farm degrades to fewer workers and finally to
  explicit failures rather than fork-bombing the host.
* **Poison-point quarantine.**  A point whose attempts kill
  ``poison_threshold`` *consecutive* workers (crash / stall / timeout,
  with no clean result in between) is quarantined: journaled as a
  :class:`~repro.flow.runner.PointFailure` of kind ``"poisoned"`` (a
  repro bundle -- the exact fn/point to re-run in isolation), emitted
  as a ``poisoned`` event, and skipped instead of burning the rest of
  the farm's restart budget.

Digest discipline: a dispatched sweep must produce results
bit-identical to a serial ``runner.map`` / ``explore_design_space``
run; the suite, ``make serve-smoke`` and ``make chaos-smoke`` all
enforce it.  Fault injection for the chaos harness enters exclusively
through the ``chaos`` hook object (see :mod:`repro.chaos`); with
``chaos=None`` (production) no fault path exists.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.flow.runner import ExperimentRunner, MapSession

#: Default seconds between worker heartbeat ticks.
DEFAULT_HEARTBEAT = 0.25
#: Default seconds of heartbeat silence before a busy worker is
#: declared stalled and killed.  ``None`` disables stall detection.
DEFAULT_LIVENESS = 10.0
#: Default consecutive worker kills before a point is quarantined.
DEFAULT_POISON_THRESHOLD = 3


def _worker_main(conn, heartbeat: float = DEFAULT_HEARTBEAT) -> None:
    """Long-lived worker loop: run points until told to stop.

    Messages in: ``("run", i, fn, point)`` or ``("stop",)``.  Messages
    out: ``("ok", i, seconds, result, events)`` on success, ``("error",
    i, seconds, exc, summary, traceback_text, events)`` on an exception
    (with ``exc`` downgraded to None when it does not pickle).  The
    telemetry events the point emits (``repro.telemetry.events``:
    campaign checkpoints, lane batches) are collected and shipped back
    with the result; the parent merges them into its own
    ``events.jsonl``.  A worker that dies mid-point (segfault, SIGKILL)
    sends nothing: the parent sees EOF and classifies a crash.

    While a point is executing, a daemon thread additionally sends
    ``("hb",)`` every ``heartbeat`` seconds -- the liveness signal the
    parent's supervisor watches.  A stopped or wedged process stops
    beating (SIGSTOP freezes every thread), which is exactly what makes
    the stall detectable.  The same thread exits the worker once its
    parent is gone: siblings forked later inherit the parent's end of
    this worker's pipe, so a SIGKILLed parent never produces the EOF
    that would otherwise stop it.
    """
    from repro.telemetry import events as _events

    parent = os.getppid()
    send_lock = threading.Lock()
    working = threading.Event()
    shutdown = threading.Event()

    def _beat() -> None:
        while not shutdown.wait(heartbeat):
            if os.getppid() != parent:
                os._exit(1)  # orphaned: nobody will ever stop us
            if not working.is_set():
                continue
            try:
                with send_lock:
                    conn.send(("hb",))
            except Exception:
                return

    threading.Thread(target=_beat, daemon=True).start()

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            shutdown.set()
            return
        if not isinstance(msg, tuple) or not msg or msg[0] == "stop":
            shutdown.set()
            try:
                conn.close()
            except Exception:
                pass
            return
        _, i, fn, point = msg
        collector = _events.install_sink(_events.EventCollector())
        working.set()
        t0 = time.perf_counter()
        try:
            result = fn(point)
            working.clear()
            with send_lock:
                conn.send(("ok", i, time.perf_counter() - t0, result,
                           collector.records))
        except BaseException as exc:  # noqa: BLE001 -- report, parent decides
            working.clear()
            seconds = time.perf_counter() - t0
            summary = f"{type(exc).__name__}: {exc}"
            tb = traceback.format_exc()
            try:
                with send_lock:
                    conn.send(("error", i, seconds, exc, summary, tb,
                               collector.records))
            except Exception:
                try:
                    with send_lock:
                        conn.send(("error", i, seconds, None, summary, tb,
                                   collector.records))
                except Exception:
                    shutdown.set()
                    return
        finally:
            working.clear()
            _events.remove_sink(collector)


class _Worker:
    """One long-lived worker process plus its pipe and current task."""

    def __init__(self, ctx, slot: int,
                 heartbeat: float = DEFAULT_HEARTBEAT) -> None:
        self.slot = slot
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main, args=(child, heartbeat), daemon=True
        )
        self.proc.start()
        child.close()
        self.task: Optional["tuple[int, int]"] = None  # (index, attempt)
        self.started = 0.0
        self.last_beat = 0.0

    @property
    def busy(self) -> bool:
        return self.task is not None

    @property
    def watermark(self) -> float:
        """Most recent proof of life for the current task."""
        return max(self.started, self.last_beat)

    def assign(self, fn: Callable, point: Any, i: int, attempt: int) -> None:
        self.task = (i, attempt)
        self.started = time.monotonic()
        self.last_beat = self.started
        self.conn.send(("run", i, fn, point))

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.proc.join(1.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(1.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join()

    def kill(self) -> None:
        """Hard-kill: SIGKILL, which also fells SIGSTOPped (stalled)
        workers that would shrug off a SIGTERM while suspended."""
        try:
            self.conn.close()
        except OSError:
            pass
        try:
            self.proc.kill()
        except Exception:
            pass
        self.proc.join()


class WorkStealingDispatcher:
    """Shard a batch over long-lived workers; steal from stragglers.

    :meth:`ExperimentRunner.map` with ``jobs > 1`` delegates here, and
    the class is also a drop-in for a runner wherever one is accepted
    (``explore_design_space(runner=...)``, ``load_sweep(runner=...)``):
    it exposes the same :meth:`map` contract -- results in input order,
    caching, retries, timeouts, journal, ``last_manifests`` -- because
    the bookkeeping *is* the runner's, via
    :class:`~repro.flow.runner.MapSession`.

    Parameters: ``runner`` supplies configuration and owns the
    cache/store/journal; ``workers`` is the pool width (defaults to
    ``max(2, runner.jobs)``).  Supervision knobs (see the module
    docstring): ``heartbeat`` (worker tick period), ``liveness``
    (heartbeat silence before a busy worker is killed as stalled;
    ``None`` disables), ``poison_threshold`` (consecutive worker kills
    before a point is quarantined), ``restart_budget`` (max worker
    respawns per :meth:`map`; ``None`` means ``max(8, 4 * workers)``),
    and ``chaos`` (a :class:`repro.chaos.ChaosMonkey` fault-injection
    hook, never set in production).

    Counters: ``steals`` (work taken from another shard),
    ``dispatched`` (tasks sent to workers), ``worker_restarts``
    (workers respawned after a crash, stall or timeout), ``stalls``
    (workers killed by the liveness deadline), ``poisoned`` (points
    quarantined).
    """

    def __init__(
        self,
        runner: ExperimentRunner,
        workers: Optional[int] = None,
        *,
        heartbeat: float = DEFAULT_HEARTBEAT,
        liveness: Optional[float] = DEFAULT_LIVENESS,
        poison_threshold: int = DEFAULT_POISON_THRESHOLD,
        restart_budget: Optional[int] = None,
        chaos: Optional[Any] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if heartbeat <= 0:
            raise ValueError(f"heartbeat must be positive seconds, got {heartbeat}")
        if liveness is not None and liveness <= heartbeat:
            raise ValueError(
                f"liveness ({liveness}) must exceed the heartbeat period "
                f"({heartbeat}) or stall detection misfires on healthy workers"
            )
        if poison_threshold < 1:
            raise ValueError(
                f"poison_threshold must be >= 1, got {poison_threshold}"
            )
        if restart_budget is not None and restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0, got {restart_budget}"
            )
        self.runner = runner
        self.workers = workers if workers is not None else max(2, runner.jobs)
        self.heartbeat = heartbeat
        self.liveness = liveness
        self.poison_threshold = poison_threshold
        self.restart_budget = restart_budget
        self.chaos = chaos
        self.steals = 0
        self.dispatched = 0
        self.worker_restarts = 0
        self.stalls = 0
        self.poisoned = 0

    # Delegate the runner surface callers poke at after a sweep.
    @property
    def failures(self):
        return self.runner.failures

    @property
    def last_manifests(self):
        return self.runner.last_manifests

    def render_report(self, title: str = "work-stealing dispatcher") -> str:
        lines = [
            self.runner.render_report(title),
            f"  dispatch: workers={self.workers} steals={self.steals} "
            f"dispatched={self.dispatched} restarts={self.worker_restarts} "
            f"stalls={self.stalls} poisoned={self.poisoned}",
        ]
        return "\n".join(lines)

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
        """``runner.map`` semantics under work-stealing scheduling."""
        session = MapSession(
            self.runner, fn, points, label,
            timeout=timeout, retries=retries, on_failure=on_failure,
        )
        session.start()
        try:
            if session.pending:
                self._run_stealing(session)
            session.emit_run_end()
        finally:
            session.close()
        return session.finalize()

    # -- scheduling -------------------------------------------------------
    def _run_stealing(self, session: MapSession) -> None:
        from multiprocessing.connection import wait as _connection_wait

        from repro.telemetry import events as _events

        n_workers = min(self.workers, len(session.pending)) or 1
        ctx = multiprocessing.get_context()
        budget = self.restart_budget
        if budget is None:
            budget = max(8, 4 * n_workers)

        # Round-robin sharding: worker w owns pending[w::n_workers].
        shards: List[deque] = [deque() for _ in range(n_workers)]
        for rank, i in enumerate(session.pending):
            shards[rank % n_workers].append((i, 1))
        delayed: List["tuple[float, int, int]"] = []  # (not_before, i, attempt)
        pool: List[Optional[_Worker]] = [
            _Worker(ctx, slot, self.heartbeat) for slot in range(n_workers)
        ]
        respawn_at: Dict[int, float] = {}  # dead slot -> revival time
        slot_restarts: Dict[int, int] = {}
        kill_streak: Dict[int, int] = {}  # point -> consecutive worker kills
        outstanding = len(session.pending)
        budget_left = budget
        if self.chaos is not None:
            self.chaos.attach_session(session)

        def next_task(slot: int) -> Optional["tuple[int, int]"]:
            """Own shard first; otherwise steal from the richest."""
            if shards[slot]:
                return shards[slot].popleft()
            victim = max(
                range(n_workers), key=lambda v: len(shards[v]), default=None
            )
            if victim is None or not shards[victim]:
                return None
            task = shards[victim].pop()  # tail: the victim's furthest work
            self.steals += 1
            _events.emit(
                "steal", label=f"{session.label}[{task[0]}]",
                key=session.keys[task[0]], thief=slot, victim=victim,
            )
            return task

        def schedule_respawn(slot: int) -> None:
            """Retire a slot; revive it after a jittered backoff if the
            restart budget allows, else leave it permanently dark."""
            nonlocal budget_left
            pool[slot] = None
            if budget_left <= 0:
                return
            budget_left -= 1
            nth = slot_restarts[slot] = slot_restarts.get(slot, 0) + 1
            delay = min(5.0, session.backoff_delay(slot, nth, kind="respawn"))
            respawn_at[slot] = time.monotonic() + delay

        def feed(worker: _Worker) -> None:
            task = next_task(worker.slot)
            if task is None:
                return
            i, attempt = task
            try:
                worker.assign(session.fn, session.points[i], i, attempt)
            except (OSError, ValueError):
                # The worker died while idle: retire the slot and put
                # the task back where it came from.
                worker.kill()
                schedule_respawn(worker.slot)
                shards[worker.slot].appendleft((i, attempt))
                return
            self.dispatched += 1
            _events.emit(
                "point_start", label=f"{session.label}[{i}]",
                key=session.keys[i], attempt=attempt,
            )
            if self.chaos is not None:
                self.chaos.on_dispatch(worker, i, attempt, self.dispatched)

        def attempt_failed(i: int, attempt: int, seconds: float, kind: str,
                           message: str, exc, tb: str) -> None:
            nonlocal outstanding
            if session.attempt_failed(i, attempt, seconds, kind, message,
                                      exc, tb):
                not_before = time.monotonic() + session.backoff_delay(i, attempt)
                delayed.append((not_before, i, attempt + 1))
            else:
                outstanding -= 1

        def worker_killed(worker: _Worker, i: int, attempt: int,
                          seconds: float, kind: str, message: str) -> None:
            """One worker hard-killed while holding point ``i``: retire
            the slot, then either quarantine the point (it has now
            felled ``poison_threshold`` workers in a row) or charge the
            attempt through the normal retry machinery."""
            nonlocal outstanding
            worker.kill()
            schedule_respawn(worker.slot)
            streak = kill_streak[i] = kill_streak.get(i, 0) + 1
            if streak >= self.poison_threshold:
                self.poisoned += 1
                kill_streak.pop(i, None)
                _events.emit(
                    "poisoned", label=f"{session.label}[{i}]",
                    key=session.keys[i], worker_kills=streak,
                )
                session.finish_failed(
                    i, attempt, seconds, "poisoned",
                    f"quarantined: killed {streak} consecutive workers "
                    f"(last: {message})",
                    None, "",
                )
                outstanding -= 1
            else:
                attempt_failed(i, attempt, seconds, kind, message, None, "")

        try:
            while outstanding > 0:
                now = time.monotonic()
                if self.chaos is not None:
                    self.chaos.tick()
                for slot, due in list(respawn_at.items()):
                    if due <= now:
                        respawn_at.pop(slot)
                        pool[slot] = _Worker(ctx, slot, self.heartbeat)
                        self.worker_restarts += 1
                if delayed:
                    due_tasks = [d for d in delayed if d[0] <= now]
                    delayed = [d for d in delayed if d[0] > now]
                    for _, i, attempt in sorted(due_tasks, key=lambda d: d[1]):
                        # Re-attempts go back to the owning shard's head
                        # so any idle worker picks them up promptly.
                        shards[session.pending.index(i) % n_workers].appendleft(
                            (i, attempt)
                        )
                for worker in pool:
                    if worker is not None and not worker.busy:
                        feed(worker)

                busy = [w for w in pool if w is not None and w.busy]
                if not busy:
                    wakeups = [d[0] for d in delayed]
                    wakeups.extend(respawn_at.values())
                    if wakeups:
                        time.sleep(max(
                            0.0, min(wakeups) - time.monotonic(),
                        ))
                        continue
                    if outstanding > 0 and not any(pool):
                        # Restart budget exhausted with no survivors:
                        # fail every task still queued, explicitly.
                        queued = [t for shard in shards for t in shard]
                        for shard in shards:
                            shard.clear()
                        for i, attempt in queued:
                            session.finish_failed(
                                i, attempt, 0.0, "crash",
                                f"worker restart budget ({budget}) exhausted "
                                f"with no workers left",
                                None, "",
                            )
                            outstanding -= 1
                    break  # nothing running, nothing queued: done or stuck

                wait_for = 0.2
                now = time.monotonic()
                if session.timeout is not None:
                    nearest = min(w.started + session.timeout for w in busy)
                    wait_for = min(wait_for, max(0.0, nearest - now))
                if self.liveness is not None:
                    nearest = min(w.watermark + self.liveness for w in busy)
                    wait_for = min(wait_for, max(0.0, nearest - now))
                if delayed:
                    wait_for = min(
                        wait_for, max(0.0, min(d[0] for d in delayed) - now)
                    )
                if respawn_at:
                    wait_for = min(
                        wait_for, max(0.0, min(respawn_at.values()) - now)
                    )
                ready = _connection_wait(
                    [w.conn for w in busy], timeout=wait_for
                )
                by_conn = {w.conn: w for w in busy}

                for conn in ready:
                    worker = by_conn[conn]
                    i, attempt = worker.task  # type: ignore[misc]
                    seconds = time.monotonic() - worker.started
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        msg = None
                    if msg is not None and msg[0] == "hb":
                        worker.last_beat = time.monotonic()
                        continue  # still working; task stays assigned
                    worker.task = None
                    if msg is None:
                        # The worker died mid-point: retire the slot,
                        # charge only the point it held.
                        worker.proc.join(1.0)  # reap, so exitcode is real
                        code = worker.proc.exitcode
                        worker_killed(
                            worker, i, attempt, seconds, "crash",
                            f"worker died without reporting (exitcode {code})",
                        )
                    elif msg[0] == "ok":
                        _, ri, fn_seconds, result, wevents = msg
                        _events.forward(wevents)
                        kill_streak.pop(ri, None)
                        session.finish_ok(ri, attempt, fn_seconds, result)
                        outstanding -= 1
                    else:
                        _, ri, fn_seconds, exc, summary, tb, wevents = msg
                        _events.forward(wevents)
                        # A clean error report means the worker survived
                        # the point: the kill streak is broken.
                        kill_streak.pop(ri, None)
                        attempt_failed(
                            ri, attempt, fn_seconds, "error", summary, exc, tb
                        )

                now = time.monotonic()
                if session.timeout is not None:
                    for worker in pool:
                        if (worker is None or not worker.busy
                                or now - worker.started < session.timeout):
                            continue
                        i, attempt = worker.task  # type: ignore[misc]
                        worker.task = None
                        worker_killed(
                            worker, i, attempt, now - worker.started, "timeout",
                            f"exceeded {session.timeout:g}s wall-clock limit",
                        )
                if self.liveness is not None:
                    for worker in pool:
                        if (worker is None or not worker.busy
                                or now - worker.watermark < self.liveness):
                            continue
                        i, attempt = worker.task  # type: ignore[misc]
                        silent = now - worker.watermark
                        worker.task = None
                        self.stalls += 1
                        _events.emit(
                            "worker_stall", label=f"{session.label}[{i}]",
                            key=session.keys[i], slot=worker.slot,
                            silent_for=round(silent, 3),
                        )
                        worker_killed(
                            worker, i, attempt, now - worker.started, "stall",
                            f"no heartbeat for {silent:.1f}s "
                            f"(liveness {self.liveness:g}s)",
                        )
        finally:
            # Whatever interrupted the loop -- the deferred first
            # failure, KeyboardInterrupt, a chaos-harness assertion --
            # never leak a worker process.
            for worker in pool:
                if worker is None:
                    continue
                try:
                    if worker.busy:
                        worker.kill()
                    else:
                        worker.stop()
                except Exception:
                    try:
                        worker.kill()
                    except Exception:
                        pass
