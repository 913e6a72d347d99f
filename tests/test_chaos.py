"""repro.chaos: deterministic fault injection + the executor's chaos site."""

import io
import time

import pytest

from repro import chaos
from repro.chaos import ChaosInjector, FaultInjected, FaultRule, SimulatedCrash
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
# Executor fan-out
# ----------------------------------------------------------------------


class TestExecutorResilience:
    def test_first_failure_propagates(self):
        calls = []

        def fail_on_two(item):
            calls.append(item)
            if item == 2:
                raise RuntimeError(f"kaput {item}")
            return item

        with pytest.raises(RuntimeError):
            ShardExecutor().map(fail_on_two, [1, 2, 3])
        assert calls == [1, 2]

    @pytest.mark.parametrize("calls", [1, 3])
    def test_partial_mode_returns_structured_results(self, calls):
        seen = []

        def only_even(item):
            seen.append(item)
            if item % 2:
                raise ValueError(f"odd {item}")
            return item

        executor = ShardExecutor()
        for _ in range(calls):
            results = executor.map(only_even, [0, 1, 2, 3], partial=True)
            assert [r.index for r in results] == [0, 1, 2, 3]
            assert all(isinstance(r, ShardResult) for r in results)
            assert [r.ok for r in results] == [True, False, True, False]
            assert results[2].value == 2
            assert isinstance(results[1].error, ValueError)
        # No retries: every item, failed or not, is called once per map.
        assert seen == [0, 1, 2, 3] * calls

    def test_chaos_site_fires_inside_executor(self):
        injector = ChaosInjector(
            rules=[FaultRule(site=chaos.SITE_EXECUTOR_CALL,
                             match={"index": 1}, times=1)]
        )
        with chaos.injected(injector):
            executor = ShardExecutor()
            results = executor.map(lambda x: x, [7, 8, 9], partial=True)
            assert [r.ok for r in results] == [True, False, True]
            assert isinstance(results[1].error, FaultInjected)
            assert executor.map(lambda x: x, [7, 8, 9]) == [7, 8, 9]
        assert injector.injection_log == [(chaos.SITE_EXECUTOR_CALL, "error")]

    def test_simulated_crash_is_not_retried(self):
        injector = ChaosInjector(
            rules=[FaultRule(site=chaos.SITE_EXECUTOR_CALL, fault="crash")]
        )
        with chaos.injected(injector):
            executor = ShardExecutor()
            with pytest.raises(SimulatedCrash):
                executor.map(lambda x: x, [1], partial=True)
