"""RACE001 fixture: unlocked shared-state writes reachable from a
thread entry point (and the locked shapes that must stay clean)."""

import threading


class SharedCounter:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0
        self.last = 0
        self.pending = 0

    def start(self):
        threading.Thread(target=self._worker, daemon=True).start()

    def _worker(self):
        self._bump_unsafe()
        self._bump_safe()
        self.flush()

    def _bump_unsafe(self):
        self.total += 1  # RACE001: no path holds the lock

    def _bump_safe(self):
        with self._lock:
            self.last += 1  # clean: syntactically under the lock

    def flush(self):
        with self._lock:
            self._write_through()

    def _write_through(self):
        self.pending = 0  # clean: every caller path holds the lock

