"""Open-loop gateway load test: latency vs offered load, shed behavior.

Drives the TAO mix (Table 2 percentages) through the gateway service at
three offered loads anchored to a measured closed-loop capacity
estimate -- below saturation (0.5x), at saturation (1.0x), and past it
(2.0x) -- plus a no-gateway control straight at the backend, run
interleaved with a gateway twin in one open loop so a stall of the
machine lands on both.  The backend is a ``ZipGClient`` of an
in-process master, as behind ``repro serve-gateway``.  The artifact
(``BENCH_gateway_loadtest.json``) carries the full
latency-vs-offered-load curve; the gates pin ratios only:

* the gateway's p99 overhead below saturation (twin vs direct path);
* the served fraction below saturation (admission must be invisible
  when there is capacity);
* the handled fraction above saturation (every request ends
  structurally -- a result or a typed ``RetryAfter``, never a stall
  or an unstructured error);
* the shed fraction above saturation (overload must actually shed --
  a gateway that queues without bound "passes" every latency gate
  right up until it falls over).
"""

from conftest import record_bench

from repro.bench.loadtest import (
    admission_config_for,
    build_load_graph,
    direct_point,
    gateway_closed_loop_capacity,
    gateway_point,
    served_backend,
    tao_calls,
)
from repro.bench.reporting import format_table

CAPACITY_OPS = 400
WARMUP_OPS = 200
POINT_OPS = 800
#: Offered loads as fractions of the gateway's measured closed-loop
#: capacity.  Anchoring to the *gateway's* saturation point (not the
#: bare backend's, which is higher) is what makes "below saturation"
#: honest.  The overload point sits at 2x because the
#: closed-loop estimate is itself noisy (it self-throttles, so it
#: *under*-states true capacity): at 1.5x a fast run can absorb most
#: of the nominal excess, while 2x sheds decisively on every machine.
LOAD_FRACTIONS = (0.5, 1.0, 2.0)
BELOW, AT, ABOVE = LOAD_FRACTIONS


def test_gateway_open_loop_curve(benchmark):
    # Not named ``run``: the analyzer's name-fallback would bind a
    # closure of that name to ``contextvars.Context.run`` fan-out
    # sites and pull this whole driver into the threaded region.
    def measure():
        graph = build_load_graph()
        with served_backend(graph) as backend:
            capacity = gateway_closed_loop_capacity(
                backend, tao_calls(graph, CAPACITY_OPS, seed=3)
            )
            calls = tao_calls(graph, POINT_OPS, seed=7)
            config = admission_config_for(capacity)
            # Warm both paths (pooled connections, first-touch costs)
            # before anything is measured.
            direct_point(backend, calls[:WARMUP_OPS], capacity * BELOW,
                         config)
            curve = [
                gateway_point(backend, calls, capacity * fraction, config)
                for fraction in LOAD_FRACTIONS
            ]
            direct, twin = direct_point(backend, calls, capacity * BELOW,
                                        config)
        return capacity, curve, direct, twin

    capacity, curve, direct, twin = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    below_point, at_point, above_point = curve

    print(format_table(
        f"Gateway open-loop TAO curve (capacity ~{capacity:.0f} rps)",
        ["offered", "rps", "p50 ms", "p99 ms", "served", "shed"],
        [
            (f"{name} {BELOW:.1f}x", f"{point.offered_load:.0f}",
             f"{point.p50_ms:.2f}", f"{point.p99_ms:.2f}",
             f"{point.completed}/{point.offered}",
             f"{point.shed_fraction:.2f}")
            for name, point in (("direct", direct), ("twin", twin))
        ] + [
            (f"gateway {fraction:.1f}x", f"{point.offered_load:.0f}",
             f"{point.p50_ms:.2f}", f"{point.p99_ms:.2f}",
             f"{point.completed}/{point.offered}",
             f"{point.shed_fraction:.2f}")
            for fraction, point in zip(LOAD_FRACTIONS, curve)
        ],
    ))

    p99_overhead = (twin.p99_ms / direct.p99_ms
                    if direct.p99_ms > 0 else 1.0)

    record_bench(
        "gateway_loadtest",
        result={
            "capacity_rps": capacity,
            "direct": direct.to_payload(),
            "twin": twin.to_payload(),
            "curve": [point.to_payload() for point in curve],
        },
        gate={
            "gateway.p99_overhead_below_saturation":
                (p99_overhead, "lower_better"),
            "gateway.served_fraction_below_saturation":
                (below_point.handled_fraction, "higher_better"),
            "gateway.handled_fraction_above_saturation":
                (above_point.handled_fraction, "higher_better"),
            "gateway.shed_fraction_above_saturation":
                (above_point.shed_fraction, "higher_better"),
        },
    )

    # Structural acceptance, independent of machine speed: nothing may
    # end unstructured at any offered load, and overload must shed.
    for point in curve:
        assert point.errors == 0, point.to_payload()
        assert point.handled_fraction == 1.0, point.to_payload()
    assert direct.errors == 0 and twin.errors == 0
    # Below saturation the gateway is effectively transparent: nothing
    # shed, and p99 within small-integer multiples of the direct path
    # (this bound only catches a pathological pileup).
    assert below_point.shed == 0, below_point.to_payload()
    assert twin.shed == 0, twin.to_payload()
    assert p99_overhead < 6.0, p99_overhead
    # Past saturation the excess is shed with the typed error.
    assert above_point.shed_fraction > 0.05, above_point.to_payload()
