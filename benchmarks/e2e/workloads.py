"""The four benchmark workloads and their seeded call streams.

A workload is a query mix (TAO / LinkBench / Graph Search) over a
registry dataset, run either *served* (client -> gateway -> master ->
shard processes over loopback sockets) or *embedded* (in-process
``ZipGSystem``).  The program under test only ever sees the generated
``(method, args, kwargs)`` calls: :func:`call_stream` runs the
repository's own workload generators against a recorder, so the
stream is a pure function of ``(workload, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Tuple

from repro.bench.datasets import build_dataset
from repro.bench.systems import ZipGSystem
from repro.core.model import GraphData
from repro.server.master import WRITE_METHODS
from repro.workloads import GraphSearchWorkload, LinkBenchWorkload, TAOWorkload
from repro.workloads.base import assoc_get_generic

#: Every PropertyID a write op may append after compression (the
#: delimiter map is immutable, §3.3) -- the list ``benchmarks/conftest.py``
#: uses, which the CLI's ``--file`` graph format cannot carry.
EXTRA_PROPERTY_IDS = tuple(
    ["city", "interest"] + [f"attr{i:02d}" for i in range(38)] + ["payload", "data"]
)
NUM_SHARDS = 4
ALPHA = 32

_GENERATORS = {
    "tao": TAOWorkload,
    "linkbench": LinkBenchWorkload,
    "search": GraphSearchWorkload,
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``warmup_ops`` calls run before the timed region (a fixed count, so
    the store state at its start and the answer digest repeat exactly
    for a seed); the timed region then runs whole blocks of
    ``block_ops`` calls until ``--seconds`` of measured time.
    """

    name: str
    mix: str
    dataset: str
    served: bool
    warmup_ops: int
    block_ops: int
    logstore_threshold_bytes: int = 1 << 20


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("tao_served", "tao", "orkut", served=True,
                 warmup_ops=1000, block_ops=250),
        # 8 KiB LogStore threshold: a freeze completes about every 800
        # ops of this mix, so the 1500-op warm-up holds one or two and a
        # 10 s timed region (~5500 ops) at least five.
        Workload("linkbench_served", "linkbench", "linkbench-small", served=True,
                 warmup_ops=1500, block_ops=250,
                 logstore_threshold_bytes=8 << 10),
        Workload("tao_embedded", "tao", "uk", served=False,
                 warmup_ops=10000, block_ops=5000),
        Workload("search_embedded", "search", "uk", served=False,
                 warmup_ops=1000, block_ops=250),
    )
}


class Call(NamedTuple):
    """One generated request: the Table 2/3 query name plus the public
    method call that implements it."""

    query: str
    method: str
    args: Tuple
    kwargs: Dict[str, object]

    @property
    def is_write(self) -> bool:
        return self.method in WRITE_METHODS


class _Recorder:
    """Stands in for a store while a workload ``Operation`` closure
    runs and captures the one public call it makes."""

    def __init__(self) -> None:
        self.call: Tuple = ()

    def __getattr__(self, method: str):
        def record(*args: object, **kwargs: object) -> None:
            self.call = (method, args, kwargs)

        return record


def call_stream(workload: Workload, graph: GraphData, seed: int) -> Iterator[Call]:
    """The endless seeded call stream of ``workload`` over ``graph``."""
    generator = _GENERATORS[workload.mix](graph, seed=seed)
    recorder = _Recorder()
    for operation in generator.operations(1 << 62):
        operation.run(recorder)
        yield Call(operation.name, *recorder.call)


def take(stream: Iterator[Call], count: int) -> List[Call]:
    return [next(stream) for _ in range(count)]


def invoke(target: object, call: Call) -> object:
    """Issue ``call`` on any store, client or cluster object."""
    if call.method == "assoc_get":
        # Algorithm 2: native where the target has it (ZipG, clients),
        # a filtered time-range scan on the reference store.
        return assoc_get_generic(target, *call.args)
    return getattr(target, call.method)(*call.args, **call.kwargs)


def load_graph(workload: Workload) -> GraphData:
    return build_dataset(workload.dataset)


def load_system(workload: Workload, graph: GraphData,
                encoding: str = "succinct") -> ZipGSystem:
    """The store every process of a topology builds for ``workload``
    (compression is deterministic, so they are identical)."""
    return ZipGSystem.load(
        graph,
        num_shards=NUM_SHARDS,
        alpha=ALPHA,
        logstore_threshold_bytes=workload.logstore_threshold_bytes,
        extra_property_ids=EXTRA_PROPERTY_IDS,
        encoding=encoding,
    )
