"""LOCK002 fixture: a static AB/BA lock-order inversion through helpers."""

import threading


class Pair:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()
        self.hits = 0

    def forward(self):
        with self._a:
            self._grab_b()  # edge Pair._a -> Pair._b

    def _grab_b(self):
        with self._b:
            self.hits += 1

    def backward(self):
        with self._b:
            self._grab_a()  # edge Pair._b -> Pair._a: the inversion

    def _grab_a(self):
        with self._a:
            self.hits -= 1

    def straight(self):
        with self._a:
            self.hits = 0  # clean: single lock, no ordering edge
