"""Erasure-coding units: GF(256), Reed-Solomon, striping, verify-store.

These suites pin the math (every erasure pattern the code budget
promises to survive must decode byte-exactly), the fragment-store
integrity contract (missing / torn / corrupt fragments all surface as
:class:`FragmentCorruptError`, never as wrong bytes), and the offline
``repro verify-store`` audit built on the same manifests.
"""

import itertools
import json
import os

import numpy as np
import pytest

from repro import chaos
from repro.chaos import ChaosInjector, FaultRule, SimulatedCrash
from repro.cli import main
from repro.core import GraphData, ZipG
from repro.core.errors import (
    FragmentCorruptError,
    ManifestCorruptError,
    ManifestMissingError,
    ReconstructionFailed,
    UnsupportedVersionError,
)
from repro.core.persistence import save_store, verify_store
from repro.ec import (
    EC_MANIFEST_NAME,
    ECManifest,
    ErasureCodedSnapshots,
    FragmentStore,
    RSCodec,
    encode_store,
    fragment_server,
    max_tolerable_server_failures,
)
from repro.ec.gf256 import (
    EXP_TABLE,
    LOG_TABLE,
    gf_inv,
    gf_inv_matrix,
    gf_matmul,
    gf_mul,
    vandermonde,
)


def _poly_mul(a: int, b: int) -> int:
    """Reference carry-less product mod the 0x11D primitive polynomial."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
        b >>= 1
    return product


class TestGF256:
    def test_tables_match_polynomial_reference(self):
        for a in (0, 1, 2, 3, 7, 53, 128, 255):
            for b in (0, 1, 2, 9, 76, 200, 255):
                assert gf_mul(a, b) == _poly_mul(a, b)

    def test_exp_log_are_inverse(self):
        for a in range(1, 256):
            assert int(EXP_TABLE[int(LOG_TABLE[a])]) == a

    def test_inverse(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ValueError):
            gf_inv(0)

    def test_matrix_inverse_roundtrip(self):
        matrix = vandermonde(4, 4)
        inverse = gf_inv_matrix(matrix)
        assert np.array_equal(
            gf_matmul(matrix, inverse), np.eye(4, dtype=np.uint8)
        )

    def test_singular_matrix_rejected(self):
        singular = np.zeros((3, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            gf_inv_matrix(singular)


PAYLOAD_SIZES = (0, 1, 3, 4, 5, 17, 4096, 10000)


def payload(size: int) -> bytes:
    return bytes((i * 31 + 7) % 256 for i in range(size))


class TestRSCodec:
    def test_every_two_erasure_pattern_decodes(self):
        """k=4, m=2 survives ANY two lost fragments, byte-exactly."""
        codec = RSCodec(4, 2)
        for size in PAYLOAD_SIZES:
            data = payload(size)
            fragments = dict(enumerate(codec.encode(data)))
            assert len(fragments) == 6
            for lost in itertools.combinations(range(6), 2):
                survivors = {i: f for i, f in fragments.items()
                             if i not in lost}
                assert codec.decode(survivors, size) == data

    def test_three_erasures_fail_loudly(self):
        codec = RSCodec(4, 2)
        data = payload(100)
        fragments = dict(enumerate(codec.encode(data)))
        survivors = {i: fragments[i] for i in (0, 1, 2)}
        with pytest.raises(ValueError):
            codec.decode(survivors, 100)

    def test_every_fragment_rebuilds(self):
        codec = RSCodec(4, 2)
        data = payload(999)
        fragments = codec.encode(data)
        for index, fragment in enumerate(fragments):
            assert codec.parity_of(index, data) == fragment

    def test_systematic_prefix_is_the_data(self):
        """Data fragments 0..k-1 concatenate back to the payload --
        the healthy read path never pays a matrix inversion."""
        codec = RSCodec(4, 2)
        data = payload(4096)
        fragments = codec.encode(data)
        assert b"".join(fragments[:4])[: len(data)] == data

    def test_other_geometries(self):
        for k, m in ((2, 1), (3, 3), (6, 2)):
            codec = RSCodec(k, m)
            data = payload(333)
            fragments = dict(enumerate(codec.encode(data)))
            for lost in itertools.combinations(range(k + m), m):
                survivors = {i: f for i, f in fragments.items()
                             if i not in lost}
                assert codec.decode(survivors, 333) == data


class TestPlacement:
    def test_round_robin_rotation(self):
        assert [fragment_server(0, i, 3) for i in range(6)] == \
            [0, 1, 2, 0, 1, 2]
        assert [fragment_server(1, i, 3) for i in range(6)] == \
            [1, 2, 0, 1, 2, 0]

    def test_tolerated_failures(self):
        # k=4,m=2: 2 fragments/server at n=3 -> one server loss; one
        # fragment/server at n>=6 -> any two.
        assert max_tolerable_server_failures(4, 2, 3) == 1
        assert max_tolerable_server_failures(4, 2, 6) == 2
        assert max_tolerable_server_failures(4, 2, 2) == 0


class TestFragmentStore:
    def test_roundtrip_and_verification(self, tmp_path):
        store = FragmentStore(str(tmp_path / "s0"))
        data = payload(256)
        store.write("file.bin", 3, data)
        crc = __import__("zlib").crc32(data) & 0xFFFFFFFF
        assert store.read("file.bin", 3, crc, len(data)) == data
        assert store.has("file.bin", 3, crc, len(data))

    def test_missing_fragment_raises(self, tmp_path):
        store = FragmentStore(str(tmp_path / "s0"))
        with pytest.raises(FragmentCorruptError, match="missing"):
            store.read("file.bin", 0)

    def test_torn_fragment_raises(self, tmp_path):
        store = FragmentStore(str(tmp_path / "s0"))
        data = payload(256)
        store.write("file.bin", 0, data)
        with open(store.path("file.bin", 0), "wb") as handle:
            handle.write(data[:100])
        with pytest.raises(FragmentCorruptError, match="torn"):
            store.read("file.bin", 0, 0, len(data))

    def test_corrupt_fragment_raises(self, tmp_path):
        store = FragmentStore(str(tmp_path / "s0"))
        data = payload(256)
        store.write("file.bin", 0, data)
        crc = __import__("zlib").crc32(data) & 0xFFFFFFFF
        flipped = bytes([data[0] ^ 0xFF]) + data[1:]
        with open(store.path("file.bin", 0), "wb") as handle:
            handle.write(flipped)
        with pytest.raises(FragmentCorruptError, match="corrupt"):
            store.read("file.bin", 0, crc, len(data))

    def test_wipe(self, tmp_path):
        store = FragmentStore(str(tmp_path / "s0"))
        store.write("a", 0, b"x")
        store.write("a", 1, b"y")
        assert store.wipe() == 2
        with pytest.raises(FragmentCorruptError):
            store.read("a", 0)


def build_store() -> ZipG:
    graph = GraphData()
    for i in range(15):
        graph.add_node(i, {"name": f"n{i}", "kind": "x" if i % 2 else "y"})
    for i in range(15):
        graph.add_edge(i, (i + 1) % 15, 0, timestamp=i,
                       properties={"w": str(i % 3)})
    return ZipG.compress(graph, num_shards=2, alpha=4,
                         logstore_threshold_bytes=1 << 20)


class TestStriping:
    def test_encode_reconstruct_degraded(self, tmp_path):
        root = str(tmp_path / "snap")
        ec_root = str(tmp_path / "ec")
        save_store(build_store(), root)
        manifest = encode_store(root, ec_root, num_servers=3)
        snaps = ErasureCodedSnapshots(ec_root, manifest)
        for name, stripe in manifest.files.items():
            with open(os.path.join(root, name), "rb") as handle:
                expected = handle.read()
            # Healthy and with any single server skipped: byte-exact.
            assert snaps.reconstruct_file(name, snaps.local_fetch) == expected
            for down in range(3):
                got = snaps.reconstruct_file(
                    name, snaps.local_fetch, skip_servers=(down,)
                )
                assert got == expected

    def test_storage_overhead_is_m_over_k(self, tmp_path):
        root = str(tmp_path / "snap")
        save_store(build_store(), root)
        manifest = encode_store(root, str(tmp_path / "ec"), num_servers=3)
        ratio = manifest.storage_bytes() / manifest.data_bytes()
        # (k+m)/k plus per-fragment padding; far under 2x replication.
        assert 1.49 <= ratio < 1.6

    def test_manifest_roundtrip(self, tmp_path):
        root = str(tmp_path / "snap")
        ec_root = str(tmp_path / "ec")
        save_store(build_store(), root)
        manifest = encode_store(root, ec_root, num_servers=3)
        loaded = ECManifest.load(os.path.join(ec_root, EC_MANIFEST_NAME))
        assert loaded == manifest

    def test_manifest_load_errors(self, tmp_path):
        path = str(tmp_path / EC_MANIFEST_NAME)
        with pytest.raises(ManifestMissingError):
            ECManifest.load(path)
        with open(path, "w") as handle:
            handle.write("{not json")
        with pytest.raises(ManifestCorruptError):
            ECManifest.load(path)
        with open(path, "w") as handle:
            json.dump({"version": 99}, handle)
        with pytest.raises(UnsupportedVersionError):
            ECManifest.load(path)

    def test_rebuild_restores_wiped_server(self, tmp_path):
        root = str(tmp_path / "snap")
        ec_root = str(tmp_path / "ec")
        save_store(build_store(), root)
        snaps = ErasureCodedSnapshots.encode_snapshot(
            root, ec_root, num_servers=3
        )
        manifest = snaps.manifest
        victim = snaps.store_for(1)
        assert victim.wipe() > 0
        for name, index in manifest.server_fragments(1):
            rebuilt = snaps.rebuild_fragment(
                name, index, snaps.local_fetch, skip_servers=(1,)
            )
            victim.write(name, index, rebuilt)
        for name, index in manifest.server_fragments(1):
            info = manifest.files[name].fragments[index]
            assert victim.has(name, index, info.crc32, info.bytes)

    def test_reconstruction_failure_is_typed(self, tmp_path):
        root = str(tmp_path / "snap")
        ec_root = str(tmp_path / "ec")
        save_store(build_store(), root)
        snaps = ErasureCodedSnapshots.encode_snapshot(
            root, ec_root, num_servers=3
        )
        name = next(iter(snaps.manifest.files))
        with pytest.raises(ReconstructionFailed, match="live"):
            snaps.reconstruct_file(name, snaps.local_fetch,
                                   skip_servers=(0, 1))
        with pytest.raises(ReconstructionFailed, match="no encoded file"):
            snaps.reconstruct_file("ghost.bin", snaps.local_fetch)


class TestDurableCommits:
    """Every EC commit fsyncs the directory its rename landed in, the
    same way ``save_store`` commits its manifest."""

    @pytest.fixture
    def synced(self, monkeypatch):
        import repro.core.persistence as persistence

        calls = []
        monkeypatch.setattr(persistence, "fsync_dir", calls.append)
        return calls

    def test_manifest_save_fsyncs_directory(self, tmp_path, synced):
        root = str(tmp_path / "snap")
        save_store(build_store(), root, fsync=False)
        manifest = encode_store(root, str(tmp_path / "ec"), num_servers=3,
                                fsync=False)
        assert synced == []
        path = str(tmp_path / "out" / EC_MANIFEST_NAME)
        os.makedirs(os.path.dirname(path))
        manifest.save(path)
        assert synced == [os.path.dirname(path)]

    def test_fragment_write_fsyncs_directory(self, tmp_path, synced):
        store = FragmentStore(str(tmp_path / "s0"))
        store.write("file.bin", 0, payload(64), fsync=False)
        assert synced == []
        store.write("file.bin", 1, payload(64))
        assert synced == [store.root]

    def test_materialize_fsyncs_directory(self, tmp_path, synced):
        root = str(tmp_path / "snap")
        save_store(build_store(), root, fsync=False)
        snaps = ErasureCodedSnapshots.encode_snapshot(
            root, str(tmp_path / "ec"), num_servers=3, fsync=False
        )
        name = next(iter(snaps.manifest.files))
        out_path = str(tmp_path / "rebuilt" / name)
        snaps.materialize_file(name, snaps.local_fetch, out_path)
        assert synced == [str(tmp_path / "rebuilt")]


class TestAtomicWriters:
    """A torn write through any EC writer leaves the final path as it
    was -- the previous bytes, or no file -- and a retry lands."""

    @pytest.mark.parametrize("writer", ["ec_manifest", "fragment",
                                        "materialize"])
    def test_torn_write_leaves_final_path(self, tmp_path, writer):
        root = str(tmp_path / "snap")
        save_store(build_store(), root, fsync=False)
        snaps = ErasureCodedSnapshots.encode_snapshot(
            root, str(tmp_path / "ec"), num_servers=3, fsync=False
        )
        if writer == "ec_manifest":
            site = chaos.SITE_EC_ENCODE
            path = str(tmp_path / "out" / EC_MANIFEST_NAME)
            expected = json.dumps(snaps.manifest.to_payload()).encode()

            def write():
                snaps.manifest.save(path)
        elif writer == "fragment":
            site = chaos.SITE_EC_ENCODE
            store = FragmentStore(str(tmp_path / "s9"))
            path = store.path("file.bin", 0)
            expected = payload(64)

            def write():
                store.write("file.bin", 0, expected)
        else:
            site = chaos.SITE_EC_REBUILD
            name = next(iter(snaps.manifest.files))
            path = str(tmp_path / "rebuilt" / name)
            expected = snaps.reconstruct_file(name, snaps.local_fetch)

            def write():
                snaps.materialize_file(name, snaps.local_fetch, path)

        for previous in (None, b"previous bytes"):
            if previous is not None:
                with open(path, "wb") as handle:
                    handle.write(previous)
            injector = ChaosInjector(seed=3, rules=[
                FaultRule(site=site, fault="torn_write", keep_bytes=5),
            ])
            with chaos.injected(injector):
                with pytest.raises(SimulatedCrash):
                    write()
            assert injector.injection_log == [(site, "torn_write")]
            if previous is None:
                assert not os.path.exists(path)
            else:
                assert open(path, "rb").read() == previous
            write()
            assert open(path, "rb").read() == expected


class TestVerifyStore:
    def build_roots(self, tmp_path):
        root = str(tmp_path / "snap")
        ec_root = str(tmp_path / "ec")
        save_store(build_store(), root)
        encode_store(root, ec_root, num_servers=3)
        return root, ec_root

    def test_clean_store_passes(self, tmp_path):
        root, ec_root = self.build_roots(tmp_path)
        report = verify_store(root, ec_root=ec_root)
        assert report.ok
        assert report.files_checked > 0
        assert report.fragments_checked > 0
        assert main(["verify-store", root, "--ec-root", ec_root]) == 0

    def test_corrupt_snapshot_file_reported(self, tmp_path):
        root, _ = self.build_roots(tmp_path)
        name = next(
            entry for entry in os.listdir(root)
            if entry.startswith("shard-")
        )
        path = os.path.join(root, name)
        with open(path, "r+b") as handle:
            handle.seek(10)
            byte = handle.read(1)
            handle.seek(10)
            handle.write(bytes([byte[0] ^ 0xFF]))
        report = verify_store(root)
        assert not report.ok
        assert any(issue.kind == "file-corrupt" for issue in report.issues)
        assert main(["verify-store", root]) == 1

    def test_corrupt_fragment_reported(self, tmp_path):
        root, ec_root = self.build_roots(tmp_path)
        store = FragmentStore(os.path.join(ec_root, "server-0"))
        name = next(entry for entry in os.listdir(store.root)
                    if not entry.endswith(".tmp"))
        with open(os.path.join(store.root, name), "ab") as handle:
            handle.write(b"junk")
        report = verify_store(root, ec_root=ec_root)
        assert not report.ok
        assert any(issue.kind == "fragment-corrupt"
                   for issue in report.issues)

    def test_torn_wal_tail_reported(self, tmp_path):
        from repro.core.wal import WriteAheadLog

        root, _ = self.build_roots(tmp_path)
        wal = WriteAheadLog(os.path.join(root, "wal.log"))
        wal.append_record("node", [99, {}])
        wal.close()
        with open(os.path.join(root, "wal.log"), "ab") as handle:
            handle.write(b"deadbeef {garbage")  # in-flight append at crash
        report = verify_store(root)
        assert not report.ok
        assert report.wal_records == 1
        assert any(issue.kind == "wal-torn-tail" for issue in report.issues)
        assert main(["verify-store", root]) == 1

    def test_missing_manifest_reported(self, tmp_path):
        report = verify_store(str(tmp_path / "empty"))
        assert not report.ok
        assert any(issue.kind == "manifest-missing"
                   for issue in report.issues)
        assert main(["verify-store", str(tmp_path / "empty")]) == 1

    def test_json_output(self, tmp_path, capsys):
        root, ec_root = self.build_roots(tmp_path)
        assert main(["verify-store", root, "--ec-root", ec_root,
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert out["issues"] == []
