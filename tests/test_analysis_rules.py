"""The repro.analysis static checker: rules, suppression, CLI."""

import os

import pytest

import repro
from repro.analysis import analyze_paths
from repro.analysis.__main__ import main as analysis_main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "analysis")
SRC_REPRO = os.path.dirname(os.path.abspath(repro.__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fixture(name):
    return os.path.join(FIXTURES, name)


def line_of(path, needle):
    """1-based line number of the first line containing ``needle``."""
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            if needle in line:
                return number
    raise AssertionError(f"{needle!r} not found in {path}")


def findings_for(name, rule_ids=None):
    findings, _ = analyze_paths([fixture(name)], rule_ids)
    return findings


def hits(findings):
    return {(f.rule_id, f.line) for f in findings}


# ----------------------------------------------------------------------
# Lock discipline
# ----------------------------------------------------------------------


class TestLockRules:
    def test_unguarded_mutation_flagged(self):
        path = fixture("lock_violation.py")
        found = hits(findings_for("lock_violation.py", ["LOCK001"]))
        assert ("LOCK001", line_of(path, "LOCK001(a)")) in found

    def test_cross_class_private_mutation_flagged(self):
        path = fixture("lock_violation.py")
        found = hits(findings_for("lock_violation.py", ["LOCK001"]))
        assert ("LOCK001", line_of(path, "LOCK001(b)")) in found

    def test_locked_helper_call_without_lock_flagged(self):
        path = fixture("lock_violation.py")
        found = hits(findings_for("lock_violation.py", ["LOCK001"]))
        assert ("LOCK001", line_of(path, "LOCK001(c)")) in found

    def test_guarded_mutation_under_lock_not_flagged(self):
        path = fixture("lock_violation.py")
        found = hits(findings_for("lock_violation.py", ["LOCK001"]))
        assert ("LOCK001", line_of(path, "establishes _total")) not in found
        assert ("LOCK001", line_of(path, "fine: lock held")) not in found

    def test_self_deadlock_detected(self):
        path = fixture("lock_order_cycle.py")
        found = findings_for("lock_order_cycle.py", ["LOCK002"])
        lines = {f.line for f in found}
        assert line_of(path, "non-reentrant self re-acquire") - 1 in lines

    def test_cross_class_cycle_detected(self):
        found = findings_for("lock_order_cycle.py", ["LOCK002"])
        messages = " ".join(f.message for f in found)
        assert "acquisition-order cycle" in messages
        assert "Right._right_lock" in messages


# ----------------------------------------------------------------------
# Byte-layout invariants
# ----------------------------------------------------------------------


class TestLayoutRules:
    def test_raw_reserved_byte_flagged(self):
        path = fixture("layout_violation.py")
        found = hits(findings_for("layout_violation.py", ["LAYOUT001"]))
        assert ("LAYOUT001", line_of(path, "raw END_OF_RECORD byte")) in found

    def test_raw_control_payload_flagged(self):
        path = fixture("layout_violation.py")
        found = hits(findings_for("layout_violation.py", ["LAYOUT001"]))
        assert ("LAYOUT001", line_of(path, "raw control byte as payload")) in found

    def test_named_constant_not_flagged(self):
        path = fixture("layout_violation.py")
        found = hits(findings_for("layout_violation.py", ["LAYOUT001"]))
        named = line_of(path, "bytes([EDGE_FIELD_SEPARATOR])")
        assert ("LAYOUT001", named) not in found

    def test_bare_width_in_layout_function_flagged(self):
        path = fixture("layout_violation.py")
        found = findings_for("layout_violation.py", ["LAYOUT002"])
        lines = {f.line for f in found}
        assert line_of(path, "LAYOUT002: bare 4") in lines

    def test_parser_constant_skew_flagged(self):
        found = findings_for("layout_violation.py", ["LAYOUT002"])
        messages = " ".join(f.message for f in found)
        assert "EDGE_FIELD_SEPARATOR" in messages

    def test_orphan_parser_flagged(self):
        found = findings_for("layout_violation.py", ["LAYOUT002"])
        messages = " ".join(f.message for f in found)
        assert "layout-parser[orphan]" in messages


# ----------------------------------------------------------------------
# Hot-path lint
# ----------------------------------------------------------------------


class TestHotPathRules:
    def test_scalar_kernel_in_loop_flagged(self):
        path = fixture("hotpath_violation.py")
        found = hits(findings_for("hotpath_violation.py", ["HOT001"]))
        assert ("HOT001", line_of(path, "# HOT001") ) in found

    def test_npa_indexing_in_loop_flagged(self):
        path = fixture("hotpath_violation.py")
        found = hits(findings_for("hotpath_violation.py", ["HOT001"]))
        assert ("HOT001", line_of(path, "per-element NPA indexing")) in found

    def test_per_record_accessor_flagged_with_alternative(self):
        found = findings_for("hotpath_violation.py", ["HOT002"])
        assert len(found) == 1
        assert "edge_data_range" in found[0].message

    def test_inline_ignore_suppresses(self):
        path = fixture("hotpath_violation.py")
        found = hits(findings_for("hotpath_violation.py", ["HOT001"]))
        assert ("HOT001", line_of(path, "zipg: ignore[HOT001]")) not in found

    def test_scalar_ok_directive_suppresses_function(self):
        path = fixture("hotpath_violation.py")
        found = hits(findings_for("hotpath_violation.py", ["HOT001"]))
        sanctioned = line_of(path, "def sanctioned_walk")
        assert not any(line > sanctioned for _, line in found)

    def test_not_flagged_without_hot_path_marker(self, tmp_path):
        source = fixture("hotpath_violation.py")
        with open(source) as handle:
            body = handle.read().replace("# zipg: hot-path", "")
        cold = tmp_path / "cold_module.py"
        cold.write_text(body)
        findings, _ = analyze_paths([str(cold)], ["HOT001", "HOT002"])
        assert findings == []


# ----------------------------------------------------------------------
# API hygiene
# ----------------------------------------------------------------------


class TestHygieneRules:
    def test_missing_annotations_flagged(self):
        found = findings_for("hygiene_violation.py", ["API001"])
        assert any("untyped_lookup" in f.message for f in found)
        assert any("node_id" in f.message for f in found)

    def test_annotated_function_not_flagged(self):
        found = findings_for("hygiene_violation.py", ["API001"])
        assert not any("'typed_lookup'" in f.message for f in found)

    def test_bare_except_flagged(self):
        found = findings_for("hygiene_violation.py", ["API002"])
        assert any("bare 'except:'" in f.message for f in found)

    def test_swallowed_error_flagged(self):
        found = findings_for("hygiene_violation.py", ["API002"])
        assert any("ZipGError" in f.message for f in found)


# ----------------------------------------------------------------------
# Observability coverage
# ----------------------------------------------------------------------


class TestObsRule:
    def test_unwrapped_query_method_flagged(self):
        path = fixture("obs_violation.py")
        found = hits(findings_for("obs_violation.py", ["OBS001"]))
        assert ("OBS001", line_of(path, "OBS001(a)")) in found

    def test_executor_map_outside_span_flagged(self):
        path = fixture("obs_violation.py")
        found = findings_for("obs_violation.py", ["OBS001"])
        map_line = line_of(path, "self.executor.map(lambda shard: shard.find")
        assert any(
            f.line == map_line and "executor.map" in f.message for f in found
        )

    def test_traced_and_with_span_methods_not_flagged(self):
        found = findings_for("obs_violation.py", ["OBS001"])
        for name in ("get_node_ids", "update_node", "has_node",
                     "_get_internal", "route"):
            assert not any(name in f.message for f in found), name

    def test_not_flagged_without_query_api_marker(self, tmp_path):
        with open(fixture("obs_violation.py")) as handle:
            body = handle.read().replace("# zipg: query-api", "")
        cold = tmp_path / "unmarked_module.py"
        cold.write_text(body)
        findings, _ = analyze_paths([str(cold)], ["OBS001"])
        assert findings == []

    def test_graph_store_is_covered(self):
        src_path = os.path.join(SRC_REPRO, "core", "graph_store.py")
        findings, context = analyze_paths([src_path], ["OBS001"])
        assert findings == []
        module = context.modules[0]
        assert module.markers.module_has("query-api")


# ----------------------------------------------------------------------
# Robustness-path error handling
# ----------------------------------------------------------------------


class TestRobustnessRule:
    def test_bare_except_flagged(self):
        path = fixture("robust_violations.py")
        found = hits(findings_for("robust_violations.py", ["ROBUST001"]))
        assert ("ROBUST001", line_of(path, "ROBUST001: bare except")) in found

    def test_swallowed_pass_flagged(self):
        path = fixture("robust_violations.py")
        found = hits(findings_for("robust_violations.py", ["ROBUST001"]))
        assert ("ROBUST001",
                line_of(path, "ROBUST001: silently swallowed")) in found

    def test_swallowed_continue_flagged(self):
        path = fixture("robust_violations.py")
        found = hits(findings_for("robust_violations.py", ["ROBUST001"]))
        assert ("ROBUST001",
                line_of(path, "ROBUST001: silently skipped")) in found

    def test_acknowledged_swallow_suppressed(self):
        path = fixture("robust_violations.py")
        found = findings_for("robust_violations.py", ["ROBUST001"])
        ignored = line_of(path, "zipg: ignore[ROBUST001]")
        assert not any(f.line == ignored for f in found)

    def test_handled_reraise_not_flagged(self):
        found = findings_for("robust_violations.py", ["ROBUST001"])
        assert len(found) == 3

    def test_not_flagged_without_robust_marker(self, tmp_path):
        with open(fixture("robust_violations.py")) as handle:
            body = handle.read().replace("# zipg: robust-path", "")
        cold = tmp_path / "unmarked_module.py"
        cold.write_text(body)
        findings, _ = analyze_paths([str(cold)], ["ROBUST001"])
        assert findings == []

    def test_durability_modules_always_in_scope(self):
        from repro.analysis.rules.robustness import is_robust_path

        for rel in (("core", "persistence.py"), ("core", "wal.py"),
                    ("chaos", "injector.py"), ("cluster", "replication.py")):
            src_path = os.path.join(SRC_REPRO, *rel)
            findings, context = analyze_paths([src_path], ["ROBUST001"])
            assert findings == [], rel
            assert is_robust_path(context.modules[0]), rel


# ----------------------------------------------------------------------
# Cache-coherence (epoch bump) discipline
# ----------------------------------------------------------------------


class TestCacheRule:
    def test_mutator_without_bump_flagged(self):
        path = fixture("cache_violation.py")
        found = hits(findings_for("cache_violation.py", ["CACHE001"]))
        assert ("CACHE001", line_of(path, "def delete_item")) in found

    def test_direct_bump_not_flagged(self):
        found = findings_for("cache_violation.py", ["CACHE001"])
        assert not any("append_item" in f.message for f in found)

    def test_transitive_bump_through_self_call_not_flagged(self):
        found = findings_for("cache_violation.py", ["CACHE001"])
        assert not any("update_item" in f.message for f in found)

    def test_acknowledged_mutator_suppressed(self):
        found = findings_for("cache_violation.py", ["CACHE001"])
        assert not any("remove_quietly" in f.message for f in found)

    def test_non_mutator_not_flagged(self):
        found = findings_for("cache_violation.py", ["CACHE001"])
        assert len(found) == 1  # only delete_item

    def test_not_flagged_without_cache_backed_marker(self, tmp_path):
        with open(fixture("cache_violation.py")) as handle:
            body = handle.read().replace("# zipg: cache-backed", "")
        cold = tmp_path / "unmarked_module.py"
        cold.write_text(body)
        findings, _ = analyze_paths([str(cold)], ["CACHE001"])
        assert findings == []

    def test_cache_backed_store_modules_are_covered(self):
        # The store owns the only cache and the only epoch its keys read.
        src_path = os.path.join(SRC_REPRO, "core", "graph_store.py")
        findings, context = analyze_paths([src_path], ["CACHE001"])
        assert findings == []
        assert context.modules[0].markers.module_has("cache-backed")
        marked = []
        for folder, _, names in os.walk(SRC_REPRO):
            for name in names:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    if "\n# zipg: cache-backed\n" in handle.read():
                        marked.append(os.path.relpath(path, SRC_REPRO))
        assert marked == [os.path.join("core", "graph_store.py")]


# ----------------------------------------------------------------------
# RPC framing-boundary discipline
# ----------------------------------------------------------------------


class TestRpcRule:
    def test_raw_sendall_and_recv_flagged(self):
        path = fixture("rpc_violations.py")
        found = hits(findings_for("rpc_violations.py", ["RPC001"]))
        assert ("RPC001",
                line_of(path, "RPC001: bypasses length-prefix")) in found
        assert ("RPC001", line_of(path, "RPC001: unframed read")) in found

    def test_vectored_and_buffer_io_flagged(self):
        path = fixture("rpc_violations.py")
        found = hits(findings_for("rpc_violations.py", ["RPC001"]))
        assert ("RPC001",
                line_of(path, "RPC001: unframed vectored write")) in found
        assert ("RPC001",
                line_of(path, "RPC001: unframed read into")) in found

    def test_acknowledged_non_socket_send_suppressed(self):
        path = fixture("rpc_violations.py")
        found = findings_for("rpc_violations.py", ["RPC001"])
        ignored = line_of(path, "zipg: ignore[RPC001]")
        assert not any(f.line == ignored for f in found)

    def test_framed_helper_not_flagged(self):
        found = findings_for("rpc_violations.py", ["RPC001"])
        assert len(found) == 4

    def test_framing_module_is_exempt(self):
        src_path = os.path.join(SRC_REPRO, "server", "ipc.py")
        findings, _ = analyze_paths([src_path], ["RPC001"])
        assert findings == []

    def test_server_package_routes_through_framing(self):
        # Everything else in the server package (transport, protocol,
        # the server roles, the client) must hold the boundary.
        src_path = os.path.join(SRC_REPRO, "server")
        findings, _ = analyze_paths([src_path], ["RPC001"])
        assert findings == []


# ----------------------------------------------------------------------
# Engine behaviour + CLI
# ----------------------------------------------------------------------


class TestEngine:
    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError):
            analyze_paths([fixture("lock_violation.py")], ["NOPE999"])

    def test_findings_sorted(self):
        findings, _ = analyze_paths([FIXTURES])
        keys = [(f.path, f.line, f.rule_id) for f in findings]
        assert keys == sorted(keys)

    def test_to_json_shape(self):
        findings, _ = analyze_paths([fixture("lock_violation.py")])
        payload = findings[0].to_json()
        assert set(payload) == {"rule", "message", "path", "line", "severity"}


class TestCli:
    def test_shipped_tree_is_clean(self):
        # The same roots the CI gate scans.
        assert analysis_main([
            SRC_REPRO,
            os.path.join(REPO_ROOT, "benchmarks"),
            os.path.join(REPO_ROOT, "examples"),
        ]) == 0

    def test_fixtures_fail(self, capsys):
        assert analysis_main([FIXTURES]) == 1
        out = capsys.readouterr().out
        assert "LOCK001" in out and "error(s)" in out

    def test_each_fixture_fails_alone(self):
        for name in sorted(os.listdir(FIXTURES)):
            if name.endswith(".py"):
                assert analysis_main([fixture(name)]) == 1, name

    def test_json_output(self, capsys):
        import json

        assert analysis_main([FIXTURES, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        assert {"rule", "path", "line"} <= set(payload[0])

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "LOCK001", "LOCK002",
            "LAYOUT001", "LAYOUT002",
            "HOT001", "HOT002",
            "API001", "API002",
            "OBS001",
            "ROBUST001",
        ):
            assert rule_id in out
        assert "DEADLOCK001" not in out

    def test_missing_path_exits_2(self, capsys):
        assert analysis_main(["does/not/exist"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_repro_check_subcommand(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["check", FIXTURES]) == 1
        assert "LOCK001" in capsys.readouterr().out

    def test_repro_check_forwards_json_and_rules(self, capsys):
        import json

        from repro.cli import main as cli_main

        assert cli_main(["check", FIXTURES, "--json", "--rules", "LOCK002"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload and {f["rule"] for f in payload} == {"LOCK002"}

# ----------------------------------------------------------------------
# Lockset race detection
# ----------------------------------------------------------------------


class TestRaceRule:
    def test_unlocked_write_from_thread_entry_flagged(self):
        path = fixture("race_violation.py")
        found = hits(findings_for("race_violation.py", ["RACE001"]))
        assert ("RACE001", line_of(path, "RACE001: no path holds")) in found

    def test_entry_origin_named_in_message(self):
        found = findings_for("race_violation.py", ["RACE001"])
        assert any("Thread(target=...)" in f.message for f in found)

    def test_syntactically_locked_write_not_flagged(self):
        path = fixture("race_violation.py")
        found = hits(findings_for("race_violation.py", ["RACE001"]))
        assert not any(
            line == line_of(path, "clean: syntactically under the lock")
            for _, line in found
        )

    def test_caller_held_lock_not_flagged(self):
        path = fixture("race_violation.py")
        found = hits(findings_for("race_violation.py", ["RACE001"]))
        assert not any(
            line == line_of(path, "clean: every caller path holds")
            for _, line in found
        )

    def test_only_the_unsafe_writes_flagged(self):
        found = findings_for("race_violation.py", ["RACE001"])
        assert len(found) == 1


# ----------------------------------------------------------------------
# Global lock-order deadlock cycles
# ----------------------------------------------------------------------


class TestLockOrderInversion:
    """LOCK002 on a two-lock AB/BA inversion reached through helpers."""

    def test_inversion_flagged_at_each_leg(self):
        path = fixture("deadlock_cycle.py")
        found = findings_for("deadlock_cycle.py", ["LOCK002"])
        # Each finding sits on the outer ``with`` of its leg.
        assert {f.line for f in found} == {
            line_of(path, "edge Pair._a -> Pair._b") - 1,
            line_of(path, "edge Pair._b -> Pair._a") - 1,
        }
        for finding in found:
            assert "acquisition-order cycle" in finding.message
            assert "Pair._a" in finding.message and "Pair._b" in finding.message

    def test_each_leg_names_the_reverse_witness(self):
        path = fixture("deadlock_cycle.py")
        found = findings_for("deadlock_cycle.py", ["LOCK002"])
        by_line = {f.line: f.message for f in found}
        forward = line_of(path, "edge Pair._a -> Pair._b") - 1
        backward = line_of(path, "edge Pair._b -> Pair._a") - 1
        assert f"deadlock_cycle.py:{backward}" in by_line[forward]
        assert f"deadlock_cycle.py:{forward}" in by_line[backward]

    def test_single_lock_method_contributes_no_cycle(self):
        # 'straight' acquires only _a: no ordering edge, no finding.
        path = fixture("deadlock_cycle.py")
        found = findings_for("deadlock_cycle.py", ["LOCK002"])
        assert line_of(path, "clean: single lock") - 1 not in {
            f.line for f in found
        }


# ----------------------------------------------------------------------
# RPC exception-flow registry
# ----------------------------------------------------------------------


class TestExcFlowRule:
    def test_unregistered_raise_flagged(self):
        path = fixture("exc_violations.py")
        found = hits(findings_for("exc_violations.py", ["EXC001"]))
        assert (
            "EXC001",
            line_of(path, "EXC001: not in the codec registry"),
        ) in found

    def test_table_and_register_call_both_count(self):
        found = findings_for("exc_violations.py", ["EXC001"])
        assert len(found) == 1
        assert "UnknownError" in found[0].message

    def test_silent_without_registry_module(self, tmp_path):
        with open(fixture("exc_violations.py")) as handle:
            body = handle.read().replace("# zipg: exception-registry", "")
        cold = tmp_path / "no_registry.py"
        cold.write_text(body)
        findings, _ = analyze_paths([str(cold)], ["EXC001"])
        assert findings == []


# ----------------------------------------------------------------------
# Chaos-site coverage of raw I/O
# ----------------------------------------------------------------------


class TestChaosRule:
    def test_uncovered_truncate_and_fsync_flagged(self):
        path = fixture("chaos_gap.py")
        found = hits(findings_for("chaos_gap.py", ["CHAOS001"]))
        assert (
            "CHAOS001",
            line_of(path, "CHAOS001: fault injection cannot reach"),
        ) in found
        assert ("CHAOS001", line_of(path, "CHAOS001: same gap")) in found

    def test_hook_in_function_covers(self):
        path = fixture("chaos_gap.py")
        found = hits(findings_for("chaos_gap.py", ["CHAOS001"]))
        assert not any(
            line == line_of(path, "clean: hook in this function")
            for _, line in found
        )

    def test_covered_caller_covers_helper(self):
        path = fixture("chaos_gap.py")
        found = hits(findings_for("chaos_gap.py", ["CHAOS001"]))
        assert not any(
            line == line_of(path, "clean: every caller is chaos-covered")
            for _, line in found
        )

    def test_exactly_the_gap_flagged(self):
        found = findings_for("chaos_gap.py", ["CHAOS001"])
        assert len(found) == 2

    def test_not_flagged_without_robust_marker(self, tmp_path):
        with open(fixture("chaos_gap.py")) as handle:
            body = handle.read().replace("# zipg: robust-path", "")
        cold = tmp_path / "unmarked_module.py"
        cold.write_text(body)
        findings, _ = analyze_paths([str(cold)], ["CHAOS001"])
        assert findings == []


# ----------------------------------------------------------------------
# Suppression scopes: decorated functions, multi-line statements
# ----------------------------------------------------------------------


DECORATED_MODULE = '''\
"""Fixture."""
# zipg: public-api


def deco(fn: object) -> object:
    return fn


# zipg: ignore[API001]
@deco
def untyped_but_acknowledged(x):
    return x
'''

MULTILINE_DEF_MODULE = '''\
"""Fixture."""
# zipg: public-api


def spread(
    a,
    b,
):  # zipg: ignore[API001]
    return a
'''

class TestCopyRule:
    def test_full_tobytes_flagged(self):
        path = fixture("copy_violation.py")
        found = hits(findings_for("copy_violation.py", ["COPY001"]))
        assert ("COPY001", line_of(path, "COPY001: whole-buffer")) in found

    def test_bytes_of_name_flagged(self):
        path = fixture("copy_violation.py")
        found = hits(findings_for("copy_violation.py", ["COPY001"]))
        assert ("COPY001", line_of(path, "COPY001: copies the underlying")) in found

    def test_bytes_of_attribute_flagged(self):
        path = fixture("copy_violation.py")
        found = hits(findings_for("copy_violation.py", ["COPY001"]))
        assert ("COPY001", line_of(path, "attribute arg is still")) in found

    def test_frombuffer_copy_flagged(self):
        path = fixture("copy_violation.py")
        found = hits(findings_for("copy_violation.py", ["COPY001"]))
        assert (
            "COPY001",
            line_of(path, "np.frombuffer(payload, dtype=np.uint8).copy()"),
        ) in found

    def test_owned_copy_marker_suppresses(self):
        path = fixture("copy_violation.py")
        found = hits(findings_for("copy_violation.py", ["COPY001"]))
        assert ("COPY001", line_of(path, "zipg: owned-copy")) not in found

    def test_generic_ignore_suppresses(self):
        path = fixture("copy_violation.py")
        found = hits(findings_for("copy_violation.py", ["COPY001"]))
        assert ("COPY001", line_of(path, "zipg: ignore[COPY001]")) not in found

    def test_bounded_constructions_not_flagged(self):
        path = fixture("copy_violation.py")
        found = hits(findings_for("copy_violation.py", ["COPY001"]))
        for needle in ("allocation from an int", "slice arg", "ordered form"):
            assert ("COPY001", line_of(path, needle)) not in found

    def test_not_flagged_without_scope_marker(self, tmp_path):
        source = fixture("copy_violation.py")
        with open(source) as handle:
            body = handle.read().replace("# zipg: hot-path", "")
        module = tmp_path / "copy_violation.py"
        module.write_text(body)
        findings, _ = analyze_paths([str(module)], ["COPY001"])
        assert findings == []

    def test_storage_modules_are_in_scope(self):
        # The shipped serialization stack must carry explicit
        # owned-copy markers (CLI cleanliness already asserts zero
        # findings; this asserts the rule actually looks there).
        from repro.analysis.rules.copies import STORAGE_MODULES
        from repro.analysis.engine import load_module

        path = os.path.join(SRC_REPRO, "core", "persistence.py")
        assert load_module(path).name in STORAGE_MODULES


MULTILINE_STMT_MODULE = '''\
"""Fixture."""
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._total = 0

    def good(self, amount):
        with self._lock:
            self._total += amount

    def bad(self, amount):
        self._total = (
            self._total
            + amount
        )  # zipg: ignore[LOCK001]
'''


class TestSuppressionScopes:
    def test_ignore_above_decorator_suppresses_function(self, tmp_path):
        module = tmp_path / "decorated.py"
        module.write_text(DECORATED_MODULE)
        findings, _ = analyze_paths([str(module)], ["API001"])
        assert findings == []

    def test_without_directive_decorated_function_flagged(self, tmp_path):
        module = tmp_path / "decorated.py"
        module.write_text(
            DECORATED_MODULE.replace("# zipg: ignore[API001]\n", "")
        )
        findings, _ = analyze_paths([str(module)], ["API001"])
        assert any("untyped_but_acknowledged" in f.message for f in findings)

    def test_ignore_on_multiline_def_closing_line(self, tmp_path):
        module = tmp_path / "spread.py"
        module.write_text(MULTILINE_DEF_MODULE)
        findings, _ = analyze_paths([str(module)], ["API001"])
        assert findings == []

    def test_ignore_on_multiline_statement_closing_line(self, tmp_path):
        module = tmp_path / "multiline.py"
        module.write_text(MULTILINE_STMT_MODULE)
        findings, _ = analyze_paths([str(module)], ["LOCK001"])
        assert findings == []

    def test_without_directive_multiline_statement_flagged(self, tmp_path):
        module = tmp_path / "multiline.py"
        module.write_text(
            MULTILINE_STMT_MODULE.replace("  # zipg: ignore[LOCK001]", "")
        )
        findings, _ = analyze_paths([str(module)], ["LOCK001"])
        assert len(findings) == 1
