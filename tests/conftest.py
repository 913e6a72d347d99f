"""Shared test configuration: Hypothesis profiles, chaos seeds, the
cluster transport switch, and the replicated cluster's failover
contract helpers.

The property suites pin ``max_examples`` inline, and an inline
``@settings(...)`` always overrides a registered profile -- so example
counts scale through :func:`hypothesis_examples` instead, which reads
the profile name from ``$HYPOTHESIS_PROFILE``:

* ``default`` -- the fast PR-gate counts;
* ``nightly`` -- 10x examples, run by the scheduled CI job.
"""

from __future__ import annotations

import os

from hypothesis import settings

_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
_SCALE = {"default": 1, "nightly": 10}

settings.register_profile("default", deadline=None)
settings.register_profile("nightly", deadline=None)
settings.load_profile(_PROFILE)


def hypothesis_examples(base: int) -> int:
    """``base`` scaled by the active profile's example multiplier."""
    return base * _SCALE.get(_PROFILE, 1)


#: Default seeds for deterministic fault-injection tests; CI's chaos
#: job runs one seed per matrix leg via ``$ZIPG_CHAOS_SEED``.
CHAOS_SEEDS = (101, 211, 307)


def chaos_seeds() -> list:
    """Seeds the fault-injection suites parametrize over: the single
    pinned ``$ZIPG_CHAOS_SEED`` when set (CI chaos matrix), else all
    of :data:`CHAOS_SEEDS`."""
    pinned = os.environ.get("ZIPG_CHAOS_SEED")
    if pinned is not None:
        return [int(pinned)]
    return list(CHAOS_SEEDS)


#: Transport backend the cluster suites dispatch through.  The default
#: in-process backend is byte-identical to pre-serving-layer dispatch;
#: CI's socket-transport job sets ``ZIPG_TRANSPORT=socket`` to run the
#: same suites over real loopback RPC (framing, codec, pooling, rpc.*
#: chaos sites).
def socket_transport_enabled() -> bool:
    return os.environ.get("ZIPG_TRANSPORT") == "socket"


class TransportHook:
    """Wraps a cluster's current transport (in-process or socket):
    records each call as ``(server, method, unit, catching_up)`` --
    the cluster's catch-up hold-out at call time -- and runs
    ``on_call(server, method)`` before forwarding it."""

    def __init__(self, cluster, on_call=None):
        self.cluster = cluster
        self.inner = cluster.transport
        self.on_call = on_call
        self.calls = []
        cluster.transport = self

    def call(self, server_id, method, args, unit=None, kwargs=None):
        self.calls.append((server_id, method, unit,
                           set(self.cluster.catching_up_servers)))
        if self.on_call is not None:
            self.on_call(server_id, method)
        return self.inner.call(server_id, method, args, unit=unit,
                               kwargs=kwargs)


# ----------------------------------------------------------------------
# The replicated cluster's failover contract (tests/test_resilient_cluster
# .py for placement="replication", tests/test_ec_cluster.py for "ec")
# ----------------------------------------------------------------------

#: Units one read can address: one shard, the LogStore, and the
#: store-level node-property read.
CONTRACT_UNITS = ("shard", "logstore", "node_property")

#: The state of the unit's first candidate server during the read.
CONTRACT_CONDITIONS = ("healthy", "down", "raises", "catching_up")


def contract_rows(expected):
    """``(unit, condition, seed, expected)`` parameter rows; only the
    ``raises`` rows vary the chaos seed.  ``expected`` maps
    ``(unit, condition)`` to an exception type, absent meaning "the
    healthy answer"."""
    return [
        (unit, condition, seed, expected.get((unit, condition)))
        for unit in CONTRACT_UNITS
        for condition in CONTRACT_CONDITIONS
        for seed in (chaos_seeds() if condition == "raises" else [None])
    ]


def contract_probe(cluster, store, unit):
    """``(server, probe, answer)`` for one unit: the unit's first
    candidate server, a zero-argument read of the unit, and the answer
    that read gives on a healthy cluster."""
    from repro.cluster.replication import LOGSTORE_UNIT

    query = {"kind": "x"}
    if unit == "node_property":
        node = 5
        server = cluster.replica_servers(store.route(node))[0]
        return (server, lambda: cluster.get_node_property(node, "name"),
                {"name": f"n{node}"})
    if unit == "logstore":
        unit_id, server = LOGSTORE_UNIT, cluster.logstore_server
        answer = store.logstore.find_live_nodes(query)
    else:
        unit_id = 1
        server = cluster.replica_servers(unit_id)[0]
        answer = store.shards[unit_id].find_live_nodes(query)
    return (server,
            lambda: sorted(cluster._unit_call(unit_id, "find_live_nodes",
                                              [query])),
            sorted(answer))


def outcome_under(cluster, condition, server, probe, seed, catch_up_call):
    """``probe()``'s value -- or the exception it raised -- with
    ``server`` in ``condition``:

    * ``healthy``;
    * ``down`` -- ``fail_server``;
    * ``raises`` -- every replica call to it raises (a ``FaultRule``
      seeded by ``seed``);
    * ``catching_up`` -- probed from inside its ``recover_server``, on
      the first ``catch_up_call`` RPC to it (``apply_write`` for the
      tail replay, ``ec_has_fragment`` for the ec rebuild).
    """
    from repro import chaos
    from repro.chaos import ChaosInjector, FaultRule

    def run():
        try:
            return probe()
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            return exc

    if condition == "healthy":
        return run()
    if condition == "down":
        cluster.fail_server(server)
        return run()
    if condition == "raises":
        injector = ChaosInjector(seed=seed, rules=[
            FaultRule(site=chaos.SITE_REPLICA_CALL, match={"server": server}),
        ])
        with chaos.injected(injector):
            return run()
    assert condition == "catching_up"
    cluster.fail_server(server)
    cluster.append_node(98, {"name": "behind", "kind": "z"})  # a tail to replay
    outcomes = []

    def probe_mid_recovery(target, method):
        if target == server and method == catch_up_call and not outcomes:
            outcomes.append((set(cluster.catching_up_servers), run()))

    TransportHook(cluster, on_call=probe_mid_recovery)
    cluster.recover_server(server)
    assert cluster.wait_for_rebuild(server, timeout_s=60)
    assert cluster.down_servers == set()
    [(catching_up, outcome)] = outcomes
    assert catching_up == {server}
    return outcome
