"""Runtime lock-discipline harness: TrackedLock + instrument()."""

import threading

import pytest

from repro.analysis.runtime import (
    LockDisciplineViolation,
    TrackedLock,
    instrument,
)
from repro.succinct.stats import AccessStats


class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0
        self.label = "box"


class TestTrackedLock:
    def test_held_by_current_tracks_ownership(self):
        lock = TrackedLock()
        assert not lock.held_by_current()
        with lock:
            assert lock.held_by_current()
        assert not lock.held_by_current()

    def test_other_thread_not_counted_as_holder(self):
        lock = TrackedLock()
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with lock:
                entered.set()
                release.wait(timeout=5.0)

        worker = threading.Thread(target=hold)
        worker.start()
        try:
            assert entered.wait(timeout=5.0)
            assert not lock.held_by_current()
        finally:
            release.set()
            worker.join(timeout=5.0)


class TestInstrumentLockPolicy:
    def test_unlocked_write_raises(self):
        box = Box()
        instrument(box, guarded=("value",))
        with pytest.raises(LockDisciplineViolation):
            box.value = 1

    def test_locked_write_allowed(self):
        box = Box()
        instrument(box, guarded=("value",))
        with box._lock:
            box.value = 1
        assert box.value == 1

    def test_unguarded_attr_unaffected(self):
        box = Box()
        instrument(box, guarded=("value",))
        box.label = "renamed"  # not in the guarded set
        assert box.label == "renamed"

    def test_catches_racy_access_stats_increment(self):
        stats = AccessStats()
        instrument(stats, guarded=("npa_hops",))
        errors = []

        def racy():
            try:
                stats.npa_hops += 1  # unlocked write from a second thread
            except LockDisciplineViolation as exc:
                errors.append(exc)

        worker = threading.Thread(target=racy)
        worker.start()
        worker.join(timeout=5.0)
        assert len(errors) == 1

        with stats._lock:
            stats.npa_hops += 1
        assert stats.npa_hops == 1


class TestInstrumentSingleWriterPolicy:
    def test_first_unlocked_writer_claims_ownership(self):
        box = Box()
        instrument(box, guarded=("value",), policy="single-writer")
        box.value = 1
        box.value = 2  # same thread: still fine
        assert box.value == 2

    def test_second_thread_unlocked_write_raises(self):
        box = Box()
        instrument(box, guarded=("value",), policy="single-writer")
        box.value = 1  # this thread becomes the owner
        errors = []

        def foreign_write():
            try:
                box.value = 99
            except LockDisciplineViolation as exc:
                errors.append(exc)

        worker = threading.Thread(target=foreign_write)
        worker.start()
        worker.join(timeout=5.0)
        assert len(errors) == 1
        assert box.value == 1

    def test_locked_write_from_any_thread_allowed(self):
        box = Box()
        instrument(box, guarded=("value",), policy="single-writer")
        box.value = 1
        done = []

        def locked_write():
            with box._lock:
                box.value = 7
            done.append(True)

        worker = threading.Thread(target=locked_write)
        worker.start()
        worker.join(timeout=5.0)
        assert done and box.value == 7


class TestInstrumentApi:
    def test_returns_tracked_lock_replacing_original(self):
        box = Box()
        tracked = instrument(box, guarded=("value",))
        assert isinstance(tracked, TrackedLock)
        assert box._lock is tracked

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            instrument(Box(), guarded=("value",), policy="chaos")

    def test_missing_lock_attr_rejected(self):
        with pytest.raises(AttributeError):
            instrument(Box(), guarded=("value",), lock_attr="_no_such_lock")


# ----------------------------------------------------------------------
# Lock-order trace recording
# ----------------------------------------------------------------------


from repro.analysis import analyze_paths
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.runtime import LockOrderRecorder, load_lock_trace

HALF_CYCLE_MODULE = '''\
"""One static leg of a lock-order cycle."""
import threading


class Half:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()
        self.n = 0

    def forward(self):
        with self._a:
            self._grab_b()

    def _grab_b(self):
        with self._b:
            self.n += 1
'''


class TestLockOrderRecorder:
    def test_nested_acquisition_records_edge_with_witnesses(self):
        recorder = LockOrderRecorder()
        outer = TrackedLock("A", recorder=recorder)
        inner = TrackedLock("B", recorder=recorder)
        with outer:
            with inner:
                pass
        edges = recorder.edges()
        assert [(e["held"], e["acquired"]) for e in edges] == [("A", "B")]
        assert edges[0]["held_stack"] and edges[0]["acquired_stack"]
        # witness frames point at this test, not the recorder internals
        assert any("test_analysis_runtime" in frame
                   for frame in edges[0]["acquired_stack"])

    def test_reentrant_reacquire_records_no_self_edge(self):
        recorder = LockOrderRecorder()
        lock = TrackedLock("A", reentrant=True, recorder=recorder)
        with lock:
            with lock:
                pass
        assert recorder.edges() == []

    def test_release_order_interleaving_tracked_per_thread(self):
        recorder = LockOrderRecorder()
        a = TrackedLock("A", recorder=recorder)
        b = TrackedLock("B", recorder=recorder)

        idents = {}

        def forward():
            idents["forward"] = threading.get_ident()
            with a:
                with b:
                    pass

        def backward():
            idents["backward"] = threading.get_ident()
            with b:
                with a:
                    pass

        first = threading.Thread(target=forward)
        first.start()
        first.join(timeout=5.0)
        second = threading.Thread(target=backward)
        second.start()
        second.join(timeout=5.0)
        by_pair = {(e["held"], e["acquired"]): e["thread"] for e in recorder.edges()}
        # Each witness carries the ident of the thread that recorded it
        # (idents may coincide: the OS reuses them after a join).
        assert by_pair == {
            ("A", "B"): idents["forward"],
            ("B", "A"): idents["backward"],
        }

    def test_main_thread_holds_do_not_leak_into_workers(self):
        recorder = LockOrderRecorder()
        a = TrackedLock("A", recorder=recorder)
        b = TrackedLock("B", recorder=recorder)
        seen = []

        def worker():
            with b:
                seen.append(recorder.held_by_current())

        with a:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=5.0)
        # the worker never held A, so no A->B edge may be fabricated
        assert seen == [["B"]]
        assert recorder.edges() == []

    def test_reset_clears_edges(self):
        recorder = LockOrderRecorder()
        with TrackedLock("A", recorder=recorder):
            pass
        outer = TrackedLock("A", recorder=recorder)
        inner = TrackedLock("B", recorder=recorder)
        with outer:
            with inner:
                pass
        assert recorder.edges()
        recorder.reset()
        assert recorder.edges() == []

    def test_save_load_roundtrip(self, tmp_path):
        recorder = LockOrderRecorder()
        outer = TrackedLock("A", recorder=recorder)
        inner = TrackedLock("B", recorder=recorder)
        with outer:
            with inner:
                pass
        trace_path = str(tmp_path / "trace.json")
        recorder.save(trace_path)
        loaded = load_lock_trace(trace_path)
        assert [(e["held"], e["acquired"]) for e in loaded] == [("A", "B")]


# ----------------------------------------------------------------------
# Trace -> DEADLOCK001 handoff
# ----------------------------------------------------------------------


class TestTraceDeadlockHandoff:
    def _trace(self, tmp_path, pairs):
        recorder = LockOrderRecorder()
        locks = {}
        for held, acquired in pairs:
            locks.setdefault(held, TrackedLock(held, recorder=recorder))
            locks.setdefault(
                acquired, TrackedLock(acquired, recorder=recorder)
            )

        for held, acquired in pairs:
            def nest(h=held, a=acquired):
                with locks[h]:
                    with locks[a]:
                        pass

            thread = threading.Thread(target=nest)
            thread.start()
            thread.join(timeout=5.0)
        trace_path = str(tmp_path / "trace.json")
        recorder.save(trace_path)
        return trace_path

    def test_runtime_only_inversion_reported(self, tmp_path):
        module = tmp_path / "plain.py"
        module.write_text("x = 1\n")
        trace = self._trace(tmp_path, [("A", "B"), ("B", "A")])
        findings, _ = analyze_paths(
            [str(module)], ["DEADLOCK001"],
            lock_traces=load_lock_trace(trace),
        )
        assert len(findings) == 1
        message = findings[0].message
        assert "lock-order cycle" in message
        assert message.count("runtime witness") == 2

    def test_static_leg_composes_with_runtime_leg(self, tmp_path):
        module = tmp_path / "half.py"
        module.write_text(HALF_CYCLE_MODULE)
        trace = self._trace(tmp_path, [("Half._b", "Half._a")])
        findings, _ = analyze_paths(
            [str(module)], ["DEADLOCK001"],
            lock_traces=load_lock_trace(trace),
        )
        assert len(findings) == 1
        message = findings[0].message
        assert "runtime witness" in message and "static witness" in message

    def test_without_trace_the_half_cycle_is_clean(self, tmp_path):
        module = tmp_path / "half.py"
        module.write_text(HALF_CYCLE_MODULE)
        findings, _ = analyze_paths([str(module)], ["DEADLOCK001"])
        assert findings == []

    def test_hand_crafted_self_edge_reported(self, tmp_path):
        import json

        module = tmp_path / "plain.py"
        module.write_text("x = 1\n")
        trace_path = tmp_path / "self.json"
        trace_path.write_text(json.dumps({
            "version": 1,
            "edges": [{
                "held": "L", "acquired": "L",
                "held_stack": ["app.py:10 in run"],
                "acquired_stack": ["app.py:12 in run"],
            }],
        }))
        findings, _ = analyze_paths(
            [str(module)], ["DEADLOCK001"],
            lock_traces=load_lock_trace(str(trace_path)),
        )
        assert len(findings) == 1
        assert "re-acquired" in findings[0].message

    def test_cli_lock_trace_flag(self, tmp_path, capsys):
        module = tmp_path / "plain.py"
        module.write_text("x = 1\n")
        trace = self._trace(tmp_path, [("A", "B"), ("B", "A")])
        code = analysis_main([
            str(module), "--lock-trace", trace, "--rules", "DEADLOCK001",
        ])
        assert code == 1
        assert "DEADLOCK001" in capsys.readouterr().out
