"""repro.chaos: deterministic fault injection + resilient executor."""

import io
import threading
import time

import pytest

from repro import chaos
from repro.chaos import ChaosInjector, FaultInjected, FaultRule, SimulatedCrash
from repro.core.errors import DeadlineExceeded
from repro.core.executor import ShardExecutor, ShardResult


@pytest.fixture(autouse=True)
def no_leftover_injector():
    yield
    chaos.uninstall()


# ----------------------------------------------------------------------
# FaultRule matching and triggers
# ----------------------------------------------------------------------


class TestFaultRule:
    def test_site_glob_matching(self):
        rule = FaultRule(site="save.*")
        assert rule.matches("save.write", {})
        assert rule.matches("save.committed", {})
        assert not rule.matches("wal.write", {})

    def test_tag_filters(self):
        rule = FaultRule(site="*", match={"server": 1})
        assert rule.matches("x", {"server": 1})
        assert not rule.matches("x", {"server": 2})
        assert not rule.matches("x", {})

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(site="x", fault="meteor")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(site="x", probability=1.5)

    def test_after_skips_initial_hits(self):
        injector = ChaosInjector(rules=[FaultRule(site="s", after=2)])
        injector.kick("s")
        injector.kick("s")
        with pytest.raises(FaultInjected):
            injector.kick("s")

    def test_times_caps_firings(self):
        injector = ChaosInjector(rules=[FaultRule(site="s", times=1)])
        with pytest.raises(FaultInjected):
            injector.kick("s")
        injector.kick("s")  # spent

    def test_custom_error_class_and_instance(self):
        injector = ChaosInjector(rules=[FaultRule(site="a", error=KeyError)])
        with pytest.raises(KeyError):
            injector.kick("a")
        boom = RuntimeError("boom")
        injector2 = ChaosInjector(rules=[FaultRule(site="a", error=boom)])
        with pytest.raises(RuntimeError) as info:
            injector2.kick("a")
        assert info.value is boom


class TestInjectorDeterminism:
    def rules(self):
        return [FaultRule(site="s", probability=0.5)]

    def fire_pattern(self, seed, hits=40):
        injector = ChaosInjector(seed=seed, rules=self.rules())
        pattern = []
        for _ in range(hits):
            try:
                injector.kick("s")
                pattern.append(0)
            except FaultInjected:
                pattern.append(1)
        return pattern

    def test_same_seed_same_schedule(self):
        assert self.fire_pattern(7) == self.fire_pattern(7)

    def test_different_seed_different_schedule(self):
        assert self.fire_pattern(7) != self.fire_pattern(8)

    def test_injection_log_records_fired_faults(self):
        injector = ChaosInjector(rules=[FaultRule(site="s", times=2)])
        for _ in range(3):
            try:
                injector.kick("s")
            except FaultInjected:
                pass  # expected: counting firings via the log
        assert injector.injection_log == [("s", "error"), ("s", "error")]


class TestFaultKinds:
    def test_crash_is_not_an_exception(self):
        assert not issubclass(SimulatedCrash, Exception)
        injector = ChaosInjector(rules=[FaultRule(site="s", fault="crash")])
        with pytest.raises(SimulatedCrash):
            injector.kick("s")

    def test_crash_point_only_fires_crash_rules(self):
        injector = ChaosInjector(rules=[FaultRule(site="s", fault="error")])
        injector.crash_point("s")  # error rules do not fire at crash points
        injector2 = ChaosInjector(rules=[FaultRule(site="s", fault="crash")])
        with pytest.raises(SimulatedCrash):
            injector2.crash_point("s")

    def test_latency_sleeps(self):
        injector = ChaosInjector(
            rules=[FaultRule(site="s", fault="latency", latency_s=0.02)]
        )
        start = time.monotonic()
        injector.kick("s")
        assert time.monotonic() - start >= 0.02

    def test_torn_write_persists_prefix_then_crashes(self):
        buffer = io.BytesIO()
        injector = ChaosInjector(
            rules=[FaultRule(site="w", fault="torn_write", keep_bytes=3)]
        )
        with pytest.raises(SimulatedCrash):
            injector.write_bytes("w", buffer, b"abcdef")
        assert buffer.getvalue() == b"abc"

    def test_write_without_due_rule_writes_everything(self):
        buffer = io.BytesIO()
        ChaosInjector().write_bytes("w", buffer, b"abcdef")
        assert buffer.getvalue() == b"abcdef"


class TestInstallation:
    def test_sites_are_noops_without_injector(self):
        chaos.kick("anything")
        chaos.crash_point("anything")
        buffer = io.BytesIO()
        chaos.write_bytes("anything", buffer, b"data")
        assert buffer.getvalue() == b"data"

    def test_injected_context_installs_and_removes(self):
        injector = ChaosInjector(rules=[FaultRule(site="s")])
        with chaos.injected(injector):
            assert chaos.active() is injector
            with pytest.raises(FaultInjected):
                chaos.kick("s")
        assert chaos.active() is None
        chaos.kick("s")  # no-op again


# ----------------------------------------------------------------------
# Resilient executor
# ----------------------------------------------------------------------


class Flaky:
    """Callable failing the first ``fail_first`` invocations per item."""

    def __init__(self, fail_first):
        self.fail_first = fail_first
        self.calls = {}
        self._lock = threading.Lock()

    def __call__(self, item):
        with self._lock:
            seen = self.calls.get(item, 0)
            self.calls[item] = seen + 1
        if seen < self.fail_first:
            raise RuntimeError(f"flaky {item} attempt {seen}")
        return item * 10


class TestExecutorResilience:
    @pytest.mark.parametrize("fail_first", [1, 4])
    def test_retries_recover_flaky_items(self, fail_first):
        flaky = Flaky(fail_first)
        assert ShardExecutor().map(flaky, [1, 2, 3], retries=fail_first) == [10, 20, 30]
        assert flaky.calls == {1: fail_first + 1, 2: fail_first + 1, 3: fail_first + 1}

    def test_failure_propagates_when_retries_exhausted(self):
        with pytest.raises(RuntimeError):
            ShardExecutor().map(Flaky(3), [1, 2], retries=1)

    @pytest.mark.parametrize("retries", [1, 3])
    def test_partial_mode_returns_structured_results(self, retries):
        def only_even(item):
            if item % 2:
                raise ValueError(f"odd {item}")
            return item

        results = ShardExecutor().map(only_even, [0, 1, 2, 3],
                                      retries=retries, partial=True)
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert all(isinstance(r, ShardResult) for r in results)
        assert [r.ok for r in results] == [True, False, True, False]
        assert results[2].value == 2
        assert isinstance(results[1].error, ValueError)
        assert results[1].attempts == retries + 1
        assert results[0].attempts == 1

    def test_deadline_converts_slow_calls(self):
        def slow(item):
            time.sleep(0.03)
            return item

        executor = ShardExecutor()
        results = executor.map(slow, [1], deadline_s=0.001, partial=True)
        assert not results[0].ok
        assert isinstance(results[0].error, DeadlineExceeded)

    def test_deadline_retry_can_succeed(self):
        """A fast failure retried within the remaining budget succeeds
        (the budget spans all attempts, not each one separately)."""
        calls = []

        def fail_once(item):
            calls.append(item)
            if len(calls) == 1:
                raise ValueError("transient")
            return item

        executor = ShardExecutor()
        assert executor.map(fail_once, [5], deadline_s=5.0, retries=1) == [5]
        assert len(calls) == 2

    def test_deadline_budgets_whole_retry_loop(self):
        """Regression: the deadline used to reset per attempt, so
        ``1 + retries`` slow attempts each got a fresh budget.  Now a
        first attempt that burns the whole budget makes the retry's
        result arrive over-deadline: total wall time stays bounded by
        ``deadline_s`` plus one attempt."""
        calls = []

        def slow(item):
            calls.append(item)
            time.sleep(0.03)
            return item

        executor = ShardExecutor()
        begin = time.monotonic()
        results = executor.map(slow, [5], deadline_s=0.02, retries=3,
                               partial=True)
        wall = time.monotonic() - begin
        assert not results[0].ok
        assert isinstance(results[0].error, DeadlineExceeded)
        # Old behavior: 4 attempts x 0.03s each = ~0.12s. New: the
        # budget (0.02s) plus at most one extra attempt (0.03s).
        assert len(calls) <= 2
        assert wall < 0.03 * 3

    def test_deadline_budget_exhausted_stops_retrying(self):
        """A failure with no budget left must not burn more attempts;
        the result chains the attempt's error under DeadlineExceeded."""
        calls = []

        def slow_fail(item):
            calls.append(item)
            time.sleep(0.03)
            raise ValueError("kaput")

        executor = ShardExecutor()
        results = executor.map(slow_fail, [5], deadline_s=0.02,
                               retries=5, partial=True)
        assert len(calls) == 1
        assert not results[0].ok
        assert isinstance(results[0].error, DeadlineExceeded)
        assert isinstance(results[0].error.__cause__, ValueError)

    def test_deadline_skips_backoff_that_overruns_budget(self):
        """A backoff sleep larger than the remaining budget is skipped
        so the final attempt gets the time instead of the pillow."""
        calls = []

        def fail_once(item):
            calls.append(item)
            if len(calls) == 1:
                raise ValueError("transient")
            return item

        executor = ShardExecutor()
        begin = time.monotonic()
        # backoff_s far exceeds the budget: sleeping would make the
        # retry pointless, so it must be skipped and still succeed.
        assert executor.map(fail_once, [5], deadline_s=0.5,
                            retries=1, backoff_s=10.0) == [5]
        wall = time.monotonic() - begin
        assert len(calls) == 2
        assert wall < 1.0

    def test_chaos_site_fires_inside_executor(self):
        injector = ChaosInjector(
            rules=[FaultRule(site=chaos.SITE_EXECUTOR_CALL,
                             match={"index": 1}, times=1)]
        )
        with chaos.injected(injector):
            executor = ShardExecutor()
            assert executor.map(lambda x: x, [7, 8, 9], retries=1) == [7, 8, 9]
        assert injector.injection_log == [(chaos.SITE_EXECUTOR_CALL, "error")]

    def test_simulated_crash_is_not_retried(self):
        injector = ChaosInjector(
            rules=[FaultRule(site=chaos.SITE_EXECUTOR_CALL, fault="crash")]
        )
        with chaos.injected(injector):
            executor = ShardExecutor()
            with pytest.raises(SimulatedCrash):
                executor.map(lambda x: x, [1], retries=5, partial=True)

    def test_backoff_waits_between_attempts(self):
        start = time.monotonic()
        executor = ShardExecutor()
        executor.map(Flaky(1), [1], retries=1, backoff_s=0.02)
        assert time.monotonic() - start >= 0.02
