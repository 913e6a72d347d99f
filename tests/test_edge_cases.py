"""Edge-case and failure-injection tests across the public API."""

import pytest

from repro.baselines.kvgraph import KVGraphStore
from repro.baselines.lsm import LSMStore
from repro.baselines.pointerstore import PointerGraphStore
from repro.core import GraphData, NodeNotFound, ZipG, WILDCARD
from repro.core.delimiters import DelimiterMap
from repro.core.edgefile import EdgeFile
from repro.core.errors import GraphFormatError


class TestEmptyStores:
    def test_zipg_on_empty_graph(self):
        store = ZipG.compress(GraphData(), num_shards=2, alpha=4,
                              extra_property_ids=["a"])
        assert store.get_node_ids({"a": "x"}) == []
        assert store.get_edge_record(0, 0).is_empty
        with pytest.raises(NodeNotFound):
            store.get_node_property(0)

    def test_zipg_nodes_without_properties(self):
        graph = GraphData()
        graph.add_node(1)
        graph.add_node(2)
        graph.add_edge(1, 2, 0, 5)
        store = ZipG.compress(graph, num_shards=1, alpha=4,
                              extra_property_ids=["a"])
        assert store.get_node_property(1) == {}
        assert store.get_neighbor_ids(1, 0) == [2]

    def test_baselines_on_empty_graph(self):
        for system in (PointerGraphStore.load(GraphData()),
                       KVGraphStore.load(GraphData())):
            assert system.get_node_ids({"a": "b"}) == []
            assert system.edge_count(0, 0) == 0

    def test_lsm_empty(self):
        store = LSMStore()
        assert store.get_fragments(b"x") == []
        assert store.scan_prefix(b"") == []
        store.flush()  # no-op
        assert store.num_sstables == 0


class TestInvalidArguments:
    def test_edgefile_rejects_bad_width_policy(self):
        with pytest.raises(ValueError):
            EdgeFile({}, DelimiterMap(["a"]), width_policy="adaptive")

    def test_zipg_rejects_unknown_append_property(self):
        graph = GraphData()
        graph.add_node(1, {"a": "1"})
        store = ZipG.compress(graph, num_shards=1, alpha=4)
        with pytest.raises(GraphFormatError):
            store.append_node(2, {"zzz": "not in the delimiter map"})
            store.freeze_logstore()  # serialization happens at freeze

    def test_control_bytes_in_value_rejected_at_compress(self):
        graph = GraphData()
        graph.add_node(1, {"a": "bad\x02value"})
        with pytest.raises(GraphFormatError):
            ZipG.compress(graph, num_shards=1, alpha=4)


class TestWildcardSemantics:
    @pytest.fixture
    def store(self):
        graph = GraphData()
        graph.add_node(1, {"a": "x", "b": "y"})
        graph.add_node(2, {"a": "x"})
        graph.add_edge(1, 2, 0, 10)
        graph.add_edge(1, 2, 3, 20)
        return ZipG.compress(graph, num_shards=2, alpha=4)

    def test_wildcard_property_ids(self, store):
        assert store.get_node_property(1, WILDCARD) == {"a": "x", "b": "y"}

    def test_wildcard_edge_type(self, store):
        record = store.get_edge_record(1, WILDCARD)
        assert record.edge_count == 2
        assert sorted(t for t in (record.timestamp_at(0), record.timestamp_at(1))) == [10, 20]

    def test_wildcard_time_bounds(self, store):
        record = store.get_edge_record(1, WILDCARD)
        assert store.get_edge_range(record, None, None) == (0, 2)
        assert store.get_edge_range(record, 15, None) == (1, 2)
        assert store.get_edge_range(record, None, 15) == (0, 1)

    def test_empty_property_list_matches_all(self, store):
        assert store.get_node_ids({}) == [1, 2]


class TestDanglingAndDuplicateEdges:
    def test_duplicate_edges_kept(self):
        graph = GraphData()
        graph.add_edge(1, 2, 0, 10)
        graph.add_edge(1, 2, 0, 10)
        store = ZipG.compress(graph, num_shards=1, alpha=4)
        assert store.get_edge_record(1, 0).edge_count == 2

    def test_delete_removes_all_duplicates(self):
        graph = GraphData()
        graph.add_edge(1, 2, 0, 10)
        graph.add_edge(1, 2, 0, 30)
        store = ZipG.compress(graph, num_shards=1, alpha=4)
        assert store.delete_edge(1, 0, 2) == 2
        assert store.get_edge_record(1, 0).edge_count == 0

    def test_edges_to_deleted_node_still_listed(self):
        graph = GraphData()
        graph.add_node(2, {"a": "x"})
        graph.add_edge(1, 2, 0, 10)
        store = ZipG.compress(graph, num_shards=1, alpha=4)
        store.delete_node(2)
        # Lazy node deletes do not cascade to edge records (§3.5)...
        assert store.get_neighbor_ids(1, 0) == [2]
        # ...but property-filtered traversals skip the dead node.
        assert store.get_neighbor_ids(1, 0, {"a": "x"}) == []


class TestLargeValuesAndIds:
    def test_huge_node_ids(self):
        graph = GraphData()
        big = 2**48
        graph.add_node(big, {"a": "v"})
        graph.add_edge(big, big + 1, 7, 2**40)
        store = ZipG.compress(graph, num_shards=2, alpha=4)
        assert store.get_node_property(big) == {"a": "v"}
        record = store.get_edge_record(big, 7)
        assert record.destination_at(0) == big + 1
        assert record.timestamp_at(0) == 2**40

    def test_long_property_values(self):
        graph = GraphData()
        graph.add_node(1, {"bio": "words " * 400})
        store = ZipG.compress(graph, num_shards=1, alpha=16)
        assert store.get_node_property(1, "bio")["bio"] == "words " * 400

    def test_many_edge_types_per_node(self):
        graph = GraphData()
        for edge_type in range(25):
            graph.add_edge(1, 100 + edge_type, edge_type, edge_type * 10)
        store = ZipG.compress(graph, num_shards=1, alpha=4)
        for edge_type in range(25):
            assert store.get_neighbor_ids(1, edge_type) == [100 + edge_type]
        assert store.get_edge_record(1, WILDCARD).edge_count == 25


class TestCorruptionDetection:
    def test_kvgraph_rejects_corrupt_fragment(self):
        store = KVGraphStore()
        store.lsm.put(b"e:1", b"Zgarbage")
        with pytest.raises(ValueError):
            store.get_neighbor_ids(1, 0)
