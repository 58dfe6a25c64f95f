"""Crash-safety of the hardened ExperimentRunner and campaign resume.

Three worker failure modes must each be isolated to their own point --
the function raising, exceeding the wall-clock timeout, and the worker
process dying outright (SIGKILL stands in for segfault/OOM) -- while
completed siblings stay stored and journaled.  On top of that: bounded
retries with backoff, the ``runs.jsonl`` journal, recomputation of
corrupt store records, strict ``from_env`` validation, and
kill-and-resume of checkpointed fault campaigns.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.faults.campaign import (
    CampaignSpec,
    CheckpointedCampaign,
    FaultCampaign,
    campaign_checkpoint_path,
    checkpoint_options_from_env,
    run_campaign,
)
from repro.faults.injector import FaultWindow
from repro.flow.runner import ExperimentRunner, PointFailure, stable_repr
from repro.network.experiments import TopologyNocBuilder
from repro.network.topology import mesh
from repro.store import ResultStore


def _behave(point):
    """Worker whose behaviour is scripted by the point itself."""
    kind, payload = point
    if kind == "raise":
        raise ValueError(f"scripted failure: {payload}")
    if kind == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "hang":
        time.sleep(float(payload))
    return payload * 2


def _flaky(point):
    """Fails until its marker file exists, then succeeds -- a transient
    fault that bounded retries must ride out.  The marker is created on
    the first (failing) attempt, so attempt two succeeds."""
    marker, value = point
    if os.path.exists(marker):
        return value * 10
    with open(marker, "w") as f:
        f.write("seen")
    raise RuntimeError("transient: first attempt always fails")


class TestFailureIsolation:
    def test_raising_worker_spares_siblings(self, tmp_path):
        runner = ExperimentRunner(jobs=2, store=ResultStore(tmp_path))
        points = [("ok", 1), ("raise", "boom"), ("ok", 3)]
        with pytest.raises(ValueError, match="scripted failure: boom"):
            runner.map(_behave, points, label="pt")
        # Both healthy siblings finished, were cached, and journaled --
        # the raise happened only after the whole batch settled.
        entries = runner.journal_entries()
        ok = [e for e in entries.values() if e["status"] == "ok"]
        failed = [e for e in entries.values() if e["status"] == "failed"]
        assert len(ok) == 2 and len(failed) == 1
        assert failed[0]["kind"] == "error"
        rerun = ExperimentRunner(
            jobs=2, store=ResultStore(tmp_path), on_failure="record"
        )
        results = rerun.map(_behave, points, label="pt")
        assert results[0] == 2 and results[2] == 6
        assert rerun.cache_hits == 2  # nothing recomputed

    def test_sigkilled_worker_is_a_crash_not_an_abort(self, tmp_path):
        runner = ExperimentRunner(
            jobs=2, store=ResultStore(tmp_path), on_failure="record"
        )
        results = runner.map(
            _behave, [("ok", 1), ("sigkill", None), ("ok", 3)], label="pt"
        )
        assert results == [2, None, 6]
        assert runner.crash_count == 1 and runner.failure_count == 1
        [failure] = runner.failures
        assert failure.kind == "crash"
        assert "exitcode" in failure.message

    @pytest.mark.timeout_guard(60)
    def test_hung_worker_is_terminated_at_the_deadline(self, tmp_path):
        runner = ExperimentRunner(
            jobs=2, store=ResultStore(tmp_path), timeout=1.0, on_failure="record"
        )
        t0 = time.monotonic()
        results = runner.map(
            _behave, [("ok", 1), ("hang", "30"), ("ok", 3)], label="pt"
        )
        assert time.monotonic() - t0 < 20, "timeout did not preempt the hang"
        assert results == [2, None, 6]
        [failure] = runner.failures
        assert failure.kind == "timeout"
        assert runner.timeout_count == 1

    def test_point_failure_carries_a_repro_bundle(self, tmp_path):
        runner = ExperimentRunner(jobs=2, on_failure="record")
        runner.map(_behave, [("raise", "why")], label="pt")
        [failure] = runner.failures
        assert isinstance(failure, PointFailure)
        assert failure.point_repr == stable_repr(("raise", "why"))
        assert failure.fn_repr == stable_repr(_behave)
        assert failure.attempts == 1
        assert "ValueError" in failure.traceback
        record = failure.as_record()
        json.dumps(record)  # journal-serialisable
        assert record["status"] == "failed"


class TestRetries:
    def test_transient_failure_survives_with_retries(self, tmp_path):
        marker = str(tmp_path / "marker")
        runner = ExperimentRunner(jobs=2, retries=1, backoff=0.05)
        results = runner.map(_flaky, [(marker, 4)], label="pt")
        assert results == [40]
        assert runner.retry_count == 1 and runner.failure_count == 0

    def test_retries_are_bounded(self, tmp_path):
        runner = ExperimentRunner(
            jobs=2, retries=2, backoff=0.01, on_failure="record"
        )
        runner.map(_behave, [("raise", "always")], label="pt")
        [failure] = runner.failures
        assert failure.attempts == 3  # 1 try + 2 retries
        assert runner.retry_count == 2

    def test_inline_path_has_the_same_retry_semantics(self, tmp_path):
        marker = str(tmp_path / "marker")
        runner = ExperimentRunner(jobs=1, retries=1, backoff=0.01)
        assert runner.map(_flaky, [(marker, 4)]) == [40]
        assert runner.retry_count == 1


class TestDeterministicBackoffJitter:
    """Satellite: retry/backoff jitter is seeded from the sweep itself,
    so identical plans produce identical retry timelines."""

    def _session(self, backoff=0.5, jitter=0.1, label="jit", points=(1, 2, 3)):
        from repro.flow.runner import MapSession

        runner = ExperimentRunner(
            retries=3, backoff=backoff, backoff_jitter=jitter
        )
        return MapSession(runner, _behave, list(points), label)

    def test_same_plan_gives_identical_delays(self):
        grid = [(i, a, k) for i in range(3) for a in (1, 2, 3)
                for k in ("retry", "respawn")]
        one = [self._session().backoff_delay(i, a, k) for i, a, k in grid]
        two = [self._session().backoff_delay(i, a, k) for i, a, k in grid]
        assert one == two

    def test_jitter_varies_by_point_attempt_and_kind(self):
        s = self._session()
        assert s.backoff_delay(0, 1) != s.backoff_delay(1, 1)
        assert s.backoff_delay(0, 1, "retry") != s.backoff_delay(0, 1, "respawn")
        # Exponential base still dominates: attempt 2 > attempt 1.
        assert s.backoff_delay(0, 2) > s.backoff_delay(0, 1)

    def test_delays_bounded_by_jitter_fraction(self):
        s = self._session(backoff=0.5, jitter=0.1)
        for a in (1, 2, 3):
            base = 0.5 * (2 ** (a - 1))
            d = s.backoff_delay(0, a)
            assert base <= d <= base * 1.1

    def test_zero_jitter_is_pure_exponential(self):
        s = self._session(jitter=0.0)
        assert s.backoff_delay(5, 2) == 1.0

    def test_different_sweeps_get_different_jitter(self):
        a = self._session(label="sweep-a")
        b = self._session(label="sweep-b")
        assert a.backoff_delay(0, 1) != b.backoff_delay(0, 1)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError, match="backoff_jitter"):
            ExperimentRunner(backoff_jitter=-0.1)

    def test_two_identical_runs_emit_identical_retry_order(self, tmp_path):
        """End to end: same plan, two fresh runs, byte-comparable retry
        sequences in events.jsonl."""
        from repro.telemetry.events import read_events

        def trail(run_dir, marker_dir):
            os.makedirs(marker_dir)
            runner = ExperimentRunner(
                jobs=1, retries=1, backoff=0.01,
                events_path=os.path.join(run_dir, "events.jsonl"),
            )
            points = [(os.path.join(marker_dir, f"m{k}"), k) for k in range(4)]
            runner.map(_flaky, points, label="det")
            return [
                (r["event"], r["label"], r.get("attempt"))
                for r in read_events(runner.events_path)
                if r["event"] in ("retry", "point_start", "point_end")
            ]
        first = trail(str(tmp_path / "a"), str(tmp_path / "a-markers"))
        second = trail(str(tmp_path / "b"), str(tmp_path / "b-markers"))
        assert first and first == second


class TestJournalAndResume:
    def test_kill_and_resume_loses_zero_completed_points(self, tmp_path):
        # "Kill" = a batch where one point crashes hard; the survivors
        # must already be on disk when the crash is reported.
        first = ExperimentRunner(
            jobs=2, store=ResultStore(tmp_path), on_failure="record"
        )
        first.map(_behave, [("ok", 1), ("sigkill", None), ("ok", 3)], label="pt")
        resumed = ExperimentRunner(
            jobs=2, store=ResultStore(tmp_path), on_failure="record"
        )
        results = resumed.map(_behave, [("ok", 1), ("ok", 3)], label="pt")
        assert results == [2, 6]
        assert resumed.cache_misses == 0, "a completed point was recomputed"
        assert resumed.cache_hits == 2

    def test_journal_survives_torn_writes(self, tmp_path):
        runner = ExperimentRunner(jobs=1, store=ResultStore(tmp_path))
        runner.map(_behave, [("ok", 1)], label="pt")
        with open(runner.journal_path, "a") as f:
            f.write('{"key": "half-written')  # no newline, invalid JSON
        entries = runner.journal_entries()
        assert len(entries) == 1  # torn tail skipped, good line kept

    def test_no_journal_without_a_cache_dir(self):
        runner = ExperimentRunner(jobs=1)
        assert runner.journal_path is None
        assert runner.journal_entries() == {}


class TestCorruptCacheQuarantine:
    def test_corrupt_entry_is_quarantined_and_recomputed(self, tmp_path):
        runner = ExperimentRunner(jobs=1, store=ResultStore(tmp_path))
        runner.map(_behave, [("ok", 5)], label="pt")
        key = runner._key(_behave, ("ok", 5))
        path = runner.store.record_path(key)
        with open(path, "wb") as f:
            f.write(b"this is not a record")
        fresh = ExperimentRunner(jobs=1, store=ResultStore(tmp_path))
        results = fresh.map(_behave, [("ok", 5)], label="pt")
        assert results == [10]
        assert fresh.cache_misses == 1
        assert fresh.store.corrupt_records == 1
        assert os.path.exists(path[: -len(".rec")] + ".corrupt")
        # The recomputed result was re-published under the original key.
        assert ResultStore(tmp_path).get(key) == (True, 10)

    def test_every_corrupt_record_is_counted(self, tmp_path):
        runner = ExperimentRunner(jobs=1, store=ResultStore(tmp_path))
        points = [("ok", 5), ("ok", 6)]
        runner.map(_behave, points, label="pt")
        for p in points:
            with open(runner.store.record_path(runner._key(_behave, p)), "wb") as f:
                f.write(b"garbage")
        fresh = ExperimentRunner(jobs=1, store=ResultStore(tmp_path))
        assert fresh.map(_behave, points, label="pt") == [10, 12]
        assert fresh.store.corrupt_records == 2
        assert fresh.cache_misses == 2


class TestFromEnvValidation:
    def test_zero_jobs_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError, match="REPRO_JOBS.*positive"):
            ExperimentRunner.from_env()

    def test_negative_jobs_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-3")
        with pytest.raises(ValueError, match="REPRO_JOBS.*positive"):
            ExperimentRunner.from_env()

    def test_timeout_retries_resume_channel(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_RETRIES", "3")
        monkeypatch.setenv("REPRO_RESUME", "true")
        runner = ExperimentRunner.from_env()
        assert runner.timeout == 2.5
        assert runner.retries == 3
        # REPRO_RESUME drives campaign checkpoint resume, not the runner.
        assert checkpoint_options_from_env()["resume"] is True

    @pytest.mark.parametrize(
        "var,value,match",
        [
            ("REPRO_TIMEOUT", "soon", "REPRO_TIMEOUT"),
            ("REPRO_TIMEOUT", "-1", "REPRO_TIMEOUT.*positive"),
            ("REPRO_RETRIES", "lots", "REPRO_RETRIES"),
            ("REPRO_RETRIES", "-1", "REPRO_RETRIES"),
            ("REPRO_RESUME", "maybe", "REPRO_RESUME"),
        ],
    )
    def test_garbage_values_name_the_variable(self, monkeypatch, var, value, match):
        monkeypatch.setenv(var, value)
        reader = (checkpoint_options_from_env if var == "REPRO_RESUME"
                  else ExperimentRunner.from_env)
        with pytest.raises(ValueError, match=match):
            reader()

    def test_constructor_validates_too(self):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentRunner(jobs=0)
        with pytest.raises(ValueError, match="retries"):
            ExperimentRunner(retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            ExperimentRunner(timeout=0)
        with pytest.raises(ValueError, match="on_failure"):
            ExperimentRunner(on_failure="explode")


SPEC = CampaignSpec(
    builder=TopologyNocBuilder(factory=mesh, args=(2, 2)),
    windows=(FaultWindow("link.*", start=100, duration=400, error_rate=0.2),),
    rate=0.08,
    warmup_cycles=150,
    measure_cycles=650,
    seed=5,
    label="resume-me",
)


class TestCampaignCheckpointing:
    def test_checkpointed_run_equals_plain_run(self, tmp_path):
        plain = run_campaign(SPEC)
        sliced = run_campaign(SPEC, checkpoint_every=100, checkpoint_dir=str(tmp_path))
        assert sliced == plain
        # Finished cleanly: the working checkpoint was cleaned up.
        assert not os.path.exists(campaign_checkpoint_path(SPEC, str(tmp_path)))

    def test_kill_mid_campaign_then_resume_matches(self, tmp_path, monkeypatch):
        plain = run_campaign(SPEC)

        # Simulate the kill: abort the campaign after a few run slices,
        # past at least one checkpoint boundary.
        import repro.network.noc as noc_module

        class Killed(Exception):
            pass

        original_run = noc_module.Noc.run
        calls = {"n": 0}

        def dying_run(self, cycles):
            calls["n"] += 1
            if calls["n"] > 3:
                raise Killed()
            return original_run(self, cycles)

        monkeypatch.setattr(noc_module.Noc, "run", dying_run)
        with pytest.raises(Killed):
            run_campaign(SPEC, checkpoint_every=100, checkpoint_dir=str(tmp_path))
        monkeypatch.setattr(noc_module.Noc, "run", original_run)

        ckpt = campaign_checkpoint_path(SPEC, str(tmp_path))
        assert os.path.exists(ckpt), "no mid-campaign checkpoint was written"
        resumed = run_campaign(
            SPEC, checkpoint_every=100, checkpoint_dir=str(tmp_path), resume=True
        )
        assert resumed == plain
        assert not os.path.exists(ckpt)

    def test_resume_with_stale_checkpoint_falls_back_to_fresh(self, tmp_path):
        ckpt = campaign_checkpoint_path(SPEC, str(tmp_path))
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(ckpt, "wb") as f:
            f.write(b"XLCKPT01" + b"\x00" * 40)  # right magic, garbage body
        resumed = run_campaign(
            SPEC, checkpoint_every=100, checkpoint_dir=str(tmp_path), resume=True
        )
        assert resumed == run_campaign(SPEC)

    def test_checkpoint_flags_do_not_change_cache_keys(self, tmp_path):
        runner = ExperimentRunner(store=ResultStore(tmp_path))
        wrapped = CheckpointedCampaign(100, str(tmp_path), resume=True)
        assert runner._key(run_campaign, SPEC) == runner._key(wrapped, SPEC)

    def test_fault_campaign_resumes_through_the_runner(self, tmp_path):
        cache = str(tmp_path / "cache")
        ckpts = str(tmp_path / "ckpts")
        first = FaultCampaign(
            [SPEC],
            runner=ExperimentRunner(jobs=2, store=ResultStore(cache)),
            checkpoint_every=200,
            checkpoint_dir=ckpts,
        )
        want = first.run()
        second = FaultCampaign(
            [SPEC],
            runner=ExperimentRunner(jobs=2, store=ResultStore(cache)),
            checkpoint_every=200,
            checkpoint_dir=ckpts,
            resume=True,
        )
        got = second.run()
        assert second.runner.cache_hits == 1
        assert [r.label for r in got] == [r.label for r in want]

    def test_checkpoint_every_requires_a_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_campaign(SPEC, checkpoint_every=100)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            FaultCampaign([SPEC], checkpoint_every=100)

    def test_env_channel(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "500")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_RESUME", "1")
        opts = checkpoint_options_from_env()
        assert opts == {
            "checkpoint_every": 500,
            "checkpoint_dir": str(tmp_path),
            "resume": True,
        }
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "zero")
        with pytest.raises(ValueError, match="REPRO_CHECKPOINT_EVERY"):
            checkpoint_options_from_env()
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "500")
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR")
        with pytest.raises(ValueError, match="REPRO_CHECKPOINT_DIR"):
            checkpoint_options_from_env()


def _sweep_point(spec):
    """An s3-style campaign point that transiently fails for one spec:
    the first attempt at the faulted spec dies, the retry succeeds."""
    marker = os.path.join(spec_marker_dir(), "attempted")
    if spec.label == "flaky-once" and not os.path.exists(marker):
        with open(marker, "w") as f:
            f.write("1")
        os.kill(os.getpid(), signal.SIGKILL)
    return run_campaign(spec)


_MARKER_DIR = {"path": ""}


def spec_marker_dir() -> str:
    return _MARKER_DIR["path"]


class TestSweepUnderInjectedFailures:
    @pytest.mark.timeout_guard(180)
    def test_s3_style_sweep_completes_despite_a_dying_worker(self, tmp_path):
        """The acceptance scenario: a resilience-style sweep where one
        worker is killed mid-point completes under retries, with every
        point's result present."""
        _MARKER_DIR["path"] = str(tmp_path)
        builder = TopologyNocBuilder(factory=mesh, args=(2, 2))
        specs = [
            CampaignSpec(builder=builder, rate=0.05, warmup_cycles=100,
                         measure_cycles=400, label="healthy-1"),
            CampaignSpec(builder=builder, rate=0.05, warmup_cycles=100,
                         measure_cycles=400, seed=1, label="flaky-once"),
            CampaignSpec(builder=builder, rate=0.05, warmup_cycles=100,
                         measure_cycles=400, seed=2, label="healthy-2"),
        ]
        runner = ExperimentRunner(
            jobs=2, store=ResultStore(tmp_path / "cache"), retries=1, backoff=0.05
        )
        results = runner.map(_sweep_point, specs, label="campaign")
        assert [r.label for r in results] == ["healthy-1", "flaky-once", "healthy-2"]
        assert runner.crash_count == 1 and runner.retry_count == 1
        assert runner.failure_count == 0
