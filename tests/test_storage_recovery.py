"""Crash-injection harness for the durable storage layer.

The contract under test: **whatever fault point the process dies at,
recovery returns the store to the exact pre-crash graph version, with
query answers bit-identical to an in-memory mirror that replayed the
same acknowledged update log.**

The harness kills the store at every announced fault point
(:data:`repro.storage.faults.FAULT_POINTS`) — torn last WAL record,
fully-written-but-uncommitted snapshot, committed snapshot with a
stale WAL — plus externally-inflicted corruption (truncated run file,
bit flips, missing manifest), and checks either exact recovery or a
loud :class:`StorageCorruptionError`, never silent wrong answers.
"""

import json
import os
import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.db import RDFDatabase, Strategy
from repro.rdf import Graph, Triple
from repro.rdf.namespaces import RDF, RDFS
from repro.rdf.ntriples import serialize_ntriples
from repro.reasoning import saturate
from repro.storage import (FAULT_POINTS, DurableStore, FaultInjector,
                           FaultRecorder, InjectedCrash,
                           StorageCorruptionError, WriteAheadLog,
                           read_records, set_fault_hook)

from conftest import EX, random_rdfs_graph

SETTINGS = dict(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

WAL_POINTS = tuple(p for p in FAULT_POINTS if p.startswith("wal.append."))
SNAPSHOT_POINTS = tuple(p for p in FAULT_POINTS
                        if p.startswith("snapshot."))
SAVE_POINTS = tuple(p for p in FAULT_POINTS if p.startswith("save."))

PROBE_QUERIES = (
    "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
    "SELECT ?x WHERE { ?x a <http://example.org/C1> }",
    "SELECT ?x ?y WHERE { ?x <http://example.org/p0> ?y }",
)


@pytest.fixture(autouse=True)
def _clean_fault_hook():
    """No test leaks its injector into the next (or into recovery)."""
    yield
    set_fault_hook(None)


def make_batches(seed: int, count: int = 12):
    """A deterministic mixed insert/delete workload over a small term
    universe (deletions have real targets, schema triples included so
    maintenance does non-trivial work)."""
    rng = random.Random(seed)
    classes = [EX.term(f"C{i}") for i in range(4)]
    props = [EX.term(f"p{i}") for i in range(3)]
    inds = [EX.term(f"i{i}") for i in range(8)]
    live = []
    batches = []
    for __ in range(count):
        if live and rng.random() < 0.3:
            victims = rng.sample(live, min(len(live), rng.randint(1, 2)))
            for victim in victims:
                live.remove(victim)
            batches.append(("delete", victims))
            continue
        fresh = []
        for __ in range(rng.randint(1, 3)):
            if rng.random() < 0.25:
                a, b = rng.sample(range(len(classes)), 2)
                fresh.append(Triple(classes[a], RDFS.subClassOf, classes[b]))
            elif rng.random() < 0.4:
                fresh.append(Triple(rng.choice(inds), RDF.type,
                                    rng.choice(classes)))
            else:
                fresh.append(Triple(rng.choice(inds), rng.choice(props),
                                    rng.choice(inds)))
        live.extend(fresh)
        batches.append(("insert", fresh))
    return batches


def apply_batch(db, op, batch):
    if op == "insert":
        db.insert(batch)
    else:
        db.delete(batch)


def mirror_at_version(seed: int, batches, version: int, *,
                      strategy=Strategy.SATURATION,
                      backend="columnar") -> RDFDatabase:
    """An in-memory database replaying the workload prefix that ends
    at exactly ``version`` (every version is a batch boundary)."""
    mirror = RDFDatabase(random_rdfs_graph(seed, size=10),
                         strategy=strategy, backend=backend)
    if mirror.graph.version == version:
        return mirror
    for op, batch in batches:
        apply_batch(mirror, op, batch)
        if mirror.graph.version == version:
            return mirror
    raise AssertionError(
        f"recovered version {version} is not any batch boundary "
        f"(mirror ended at {mirror.graph.version})")


def assert_same_answers(recovered: RDFDatabase, mirror: RDFDatabase):
    """Bit-identical: explicit dumps byte-for-byte, answers row-for-row."""
    assert recovered.graph.version == mirror.graph.version
    assert (serialize_ntriples(recovered.graph, sort=True)
            == serialize_ntriples(mirror.graph, sort=True))
    for text in PROBE_QUERIES:
        assert sorted(recovered.query(text)) == sorted(mirror.query(text))


# ----------------------------------------------------------------------
# the kill schedule: every fault point, exact-version recovery
# ----------------------------------------------------------------------

class TestWALCrashRecovery:
    @pytest.mark.parametrize("point", WAL_POINTS)
    @pytest.mark.parametrize("hit", [1, 4])
    def test_recovers_to_exact_pre_crash_version(self, tmp_path, point, hit):
        seed = 7 * hit
        batches = make_batches(seed)
        db = RDFDatabase(random_rdfs_graph(seed, size=10),
                         strategy=Strategy.SATURATION, backend="columnar",
                         storage_dir=str(tmp_path))
        acked = [db.graph.version]
        injector = FaultInjector(point, hits=hit)
        set_fault_hook(injector)
        crashed = False
        for op, batch in batches:
            try:
                apply_batch(db, op, batch)
                acked.append(db.graph.version)
            except InjectedCrash:
                crashed = True
                break
        set_fault_hook(None)
        assert crashed, f"workload never reached {point} hit {hit}"
        db.close()

        recovered = RDFDatabase(storage_dir=str(tmp_path))
        # acked updates are durable: fsync happens before the ack, so
        # recovery can never land before the last acknowledged version
        assert recovered.graph.version >= acked[-1]
        mirror = mirror_at_version(seed, batches, recovered.graph.version)
        assert_same_answers(recovered, mirror)
        # the in-flight record is durable exactly when the crash came
        # at or after the full record hitting the (unbuffered) file
        if point == "wal.append.start":
            assert recovered.graph.version == acked[-1]
        if point in ("wal.append.full", "wal.append.synced"):
            assert recovered.graph.version > acked[-1]
        recovered.close()

    @pytest.mark.parametrize("point", WAL_POINTS)
    def test_store_stays_usable_after_recovery(self, tmp_path, point):
        """Post-recovery appends land after the truncated torn tail —
        the continued workload must survive a second crash-free run."""
        seed = 11
        batches = make_batches(seed, count=10)
        db = RDFDatabase(random_rdfs_graph(seed, size=10),
                         strategy=Strategy.SATURATION, backend="columnar",
                         storage_dir=str(tmp_path))
        set_fault_hook(FaultInjector(point, hits=3))
        applied = 0
        for op, batch in batches:
            try:
                apply_batch(db, op, batch)
                applied += 1
            except InjectedCrash:
                break
        set_fault_hook(None)
        db.close()

        recovered = RDFDatabase(storage_dir=str(tmp_path))
        for op, batch in batches[applied:]:
            apply_batch(recovered, op, batch)
        final_version = recovered.graph.version
        recovered.close()

        reopened = RDFDatabase(storage_dir=str(tmp_path))
        mirror = mirror_at_version(seed, batches, final_version)
        assert_same_answers(reopened, mirror)
        reopened.close()


class TestSnapshotCrashRecovery:
    @pytest.mark.parametrize("point", SNAPSHOT_POINTS)
    def test_recovers_to_exact_pre_crash_version(self, tmp_path, point):
        seed = 3
        batches = make_batches(seed)
        db = RDFDatabase(random_rdfs_graph(seed, size=10),
                         strategy=Strategy.SATURATION, backend="columnar",
                         storage_dir=str(tmp_path))
        for op, batch in batches[:6]:
            apply_batch(db, op, batch)
        pre_crash = db.graph.version

        set_fault_hook(FaultInjector(point, hits=1))
        with pytest.raises(InjectedCrash):
            db.snapshot()
        set_fault_hook(None)
        if point in ("snapshot.current_written", "snapshot.done"):
            # crash landed after the commit point: the snapshot stands
            with open(tmp_path / "CURRENT", encoding="utf-8") as handle:
                assert handle.read().strip().endswith(f"v{pre_crash}")
        db.close()

        recovered = RDFDatabase(storage_dir=str(tmp_path))
        assert recovered.graph.version == pre_crash
        mirror = mirror_at_version(seed, batches, pre_crash)
        assert_same_answers(recovered, mirror)

        # the store must keep working: apply the rest, snapshot clean,
        # reopen, and still agree with the mirror
        for op, batch in batches[6:]:
            apply_batch(recovered, op, batch)
        recovered.snapshot()
        final_version = recovered.graph.version
        recovered.close()
        reopened = RDFDatabase(storage_dir=str(tmp_path))
        assert_same_answers(reopened,
                            mirror_at_version(seed, batches, final_version))
        reopened.close()

    def test_crash_during_wal_truncation_after_commit(self, tmp_path):
        """``wal.reset`` fires after CURRENT commits: the crash leaves
        a committed snapshot plus a stale WAL tail, and recovery must
        not double-apply those already-folded records."""
        seed = 13
        batches = make_batches(seed)
        db = RDFDatabase(random_rdfs_graph(seed, size=10),
                         strategy=Strategy.SATURATION, backend="columnar",
                         storage_dir=str(tmp_path))
        for op, batch in batches:
            apply_batch(db, op, batch)
        acked = db.graph.version

        set_fault_hook(FaultInjector("wal.reset", hits=1))
        with pytest.raises(InjectedCrash):
            db.snapshot()
        set_fault_hook(None)
        # the snapshot committed before the truncation died
        with open(tmp_path / "CURRENT", encoding="utf-8") as handle:
            assert handle.read().strip().endswith(f"v{acked}")
        db.close()

        recovered = RDFDatabase(storage_dir=str(tmp_path))
        assert recovered.graph.version == acked
        assert_same_answers(recovered,
                            mirror_at_version(seed, batches, acked))
        # the reopened store still writes and snapshots cleanly
        recovered.insert([Triple(EX.term("post"), RDF.type,
                                 EX.term("C0"))])
        recovered.snapshot()
        final_version = recovered.graph.version
        recovered.close()
        reopened = RDFDatabase(storage_dir=str(tmp_path))
        assert reopened.graph.version == final_version
        reopened.close()

    def test_crash_before_first_commit_reads_as_empty(self, tmp_path):
        """A store that died before its first CURRENT write has no
        committed state — it must re-initialize, not half-recover."""
        set_fault_hook(FaultInjector("snapshot.renamed", hits=1))
        with pytest.raises(InjectedCrash):
            RDFDatabase(random_rdfs_graph(1, size=10),
                        strategy=Strategy.SATURATION, backend="columnar",
                        storage_dir=str(tmp_path))
        set_fault_hook(None)
        assert not DurableStore.exists(str(tmp_path))
        db = RDFDatabase(random_rdfs_graph(1, size=10),
                        strategy=Strategy.SATURATION, backend="columnar",
                        storage_dir=str(tmp_path))
        db.snapshot()  # garbage-collects the orphaned first attempt
        assert len([e for e in os.listdir(str(tmp_path))
                    if e.startswith("snapshot-")]) == 1
        db.close()

    def test_every_fault_point_is_announced(self, tmp_path):
        """The kill schedule covers reality: one workload with a
        recorder hook must visit every declared WAL/snapshot/save
        point, so a new fault point cannot silently go untested."""
        recorder = FaultRecorder()
        set_fault_hook(recorder)
        db = RDFDatabase(random_rdfs_graph(2, size=10),
                         strategy=Strategy.SATURATION, backend="columnar",
                         storage_dir=str(tmp_path / "store"))
        for op, batch in make_batches(2, count=4):
            apply_batch(db, op, batch)
        db.snapshot()
        db.save(str(tmp_path / "dump"))
        db.close()
        set_fault_hook(None)
        assert set(recorder.seen) == set(FAULT_POINTS)


# ----------------------------------------------------------------------
# seeded property test: random workloads, random kill sites
# ----------------------------------------------------------------------

class TestRandomizedCrashes:
    @given(seed=st.integers(0, 10_000),
           point=st.sampled_from(WAL_POINTS + SNAPSHOT_POINTS),
           hit=st.integers(1, 6))
    @settings(**SETTINGS)
    def test_any_crash_site_recovers_exactly(self, tmp_path_factory,
                                             seed, point, hit):
        storage = str(tmp_path_factory.mktemp("crash"))
        batches = make_batches(seed)
        db = RDFDatabase(random_rdfs_graph(seed, size=10),
                         strategy=Strategy.SATURATION, backend="columnar",
                         storage_dir=storage, snapshot_every=5)
        acked = [db.graph.version]
        set_fault_hook(FaultInjector(point, hits=hit))
        try:
            for op, batch in batches:
                apply_batch(db, op, batch)
                acked.append(db.graph.version)
            db.snapshot()
        except InjectedCrash:
            pass
        set_fault_hook(None)
        db.close()

        recovered = RDFDatabase(storage_dir=storage)
        assert recovered.graph.version >= acked[-1]
        mirror = mirror_at_version(seed, batches, recovered.graph.version)
        assert_same_answers(recovered, mirror)
        recovered.close()


# ----------------------------------------------------------------------
# externally-inflicted corruption: detected, never silently wrong
# ----------------------------------------------------------------------

def _build_store(tmp_path, seed=5) -> int:
    db = RDFDatabase(random_rdfs_graph(seed, size=20),
                     strategy=Strategy.SATURATION, backend="columnar",
                     storage_dir=str(tmp_path))
    for op, batch in make_batches(seed, count=4):
        apply_batch(db, op, batch)
    db.snapshot()
    version = db.graph.version
    db.close()
    return version


def _snapshot_dir(tmp_path) -> str:
    with open(tmp_path / "CURRENT", encoding="utf-8") as handle:
        return str(tmp_path / handle.read().strip())


class TestCorruptionDetection:
    def test_truncated_run_file(self, tmp_path):
        _build_store(tmp_path)
        snapdir = _snapshot_dir(tmp_path)
        run = next(f for f in sorted(os.listdir(snapdir))
                   if f.endswith(".run"))
        path = os.path.join(snapdir, run)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 8)
        with pytest.raises(StorageCorruptionError):
            RDFDatabase(storage_dir=str(tmp_path))

    def test_bit_flip_in_run_file(self, tmp_path):
        _build_store(tmp_path)
        snapdir = _snapshot_dir(tmp_path)
        run = next(f for f in sorted(os.listdir(snapdir))
                   if f.endswith(".run"))
        path = os.path.join(snapdir, run)
        with open(path, "r+b") as handle:
            handle.seek(os.path.getsize(path) - 3)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0x40]))
        with pytest.raises(StorageCorruptionError):
            RDFDatabase(storage_dir=str(tmp_path))

    def test_corrupt_terms_file(self, tmp_path):
        _build_store(tmp_path)
        snapdir = _snapshot_dir(tmp_path)
        path = os.path.join(snapdir, "explicit.terms")
        with open(path, "ab") as handle:
            handle.write(b'{"t":"u","v":"x"}\n')
        with pytest.raises(StorageCorruptionError):
            RDFDatabase(storage_dir=str(tmp_path))

    def test_missing_manifest(self, tmp_path):
        _build_store(tmp_path)
        os.remove(os.path.join(_snapshot_dir(tmp_path), "manifest.json"))
        with pytest.raises(StorageCorruptionError):
            RDFDatabase(storage_dir=str(tmp_path))

    def test_garbage_manifest(self, tmp_path):
        _build_store(tmp_path)
        path = os.path.join(_snapshot_dir(tmp_path), "manifest.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        with pytest.raises(StorageCorruptionError):
            RDFDatabase(storage_dir=str(tmp_path))

    def test_corrupt_wal_tail_is_cut_not_fatal(self, tmp_path):
        """Garbage *appended* to the WAL is the torn-tail case: the
        intact prefix replays and the junk is truncated away."""
        version = _build_store(tmp_path)
        with open(tmp_path / "wal.log", "ab") as handle:
            handle.write(b"\x99" * 11)
        db = RDFDatabase(storage_dir=str(tmp_path))
        assert db.graph.version == version
        db.close()
        records, valid, torn = read_records(str(tmp_path / "wal.log"))
        assert not torn  # recovery truncated the junk away


# ----------------------------------------------------------------------
# WAL unit behavior
# ----------------------------------------------------------------------

class TestWriteAheadLog:
    def test_round_trip_and_reset(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append({"op": "insert", "nt": ["<a> <b> <c> ."], "version": 1})
        wal.append({"op": "delete", "nt": [], "version": 2})
        wal.close()
        records, valid, torn = read_records(path)
        assert [r["version"] for r in records] == [1, 2]
        assert valid == os.path.getsize(path) and not torn
        wal = WriteAheadLog(path, truncate_to=valid, existing_records=2)
        wal.reset()
        wal.close()
        assert read_records(path) == ([], 0, False)

    def test_torn_tail_is_reported_and_truncated(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append({"version": 1})
            wal.append({"version": 2})
        records, valid, __ = read_records(path)
        with open(path, "r+b") as handle:  # tear the last record
            handle.truncate(os.path.getsize(path) - 3)
        records, new_valid, torn = read_records(path)
        assert torn and [r["version"] for r in records] == [1]
        WriteAheadLog(path, truncate_to=new_valid).close()
        assert os.path.getsize(path) == new_valid

    def test_crc_mismatch_stops_the_scan(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append({"version": 1})
            wal.append({"version": 2})
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:  # flip a payload byte in #2
            handle.seek(size - 2)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0x01]))
        records, __, torn = read_records(path)
        assert torn and [r["version"] for r in records] == [1]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_records(str(tmp_path / "absent.log")) == ([], 0, False)


# ----------------------------------------------------------------------
# atomic save(): mid-save failure leaves the old state readable
# ----------------------------------------------------------------------

class TestAtomicSave:
    @pytest.mark.parametrize("point", SAVE_POINTS)
    def test_mid_save_failure_preserves_previous_state(self, tmp_path,
                                                       point):
        target = str(tmp_path / "dump")
        first = RDFDatabase(random_rdfs_graph(9, size=15))
        first.save(target)
        before = json.dumps(sorted(t.n3() for t in first.graph))

        second = RDFDatabase(random_rdfs_graph(10, size=25))
        set_fault_hook(FaultInjector(point, hits=1))
        with pytest.raises(InjectedCrash):
            second.save(target)
        set_fault_hook(None)

        reloaded = RDFDatabase.load(target)
        assert json.dumps(sorted(t.n3() for t in reloaded.graph)) == before
        # and a clean retry still succeeds over the crash debris
        second.save(target)
        assert (sorted(RDFDatabase.load(target).graph)
                == sorted(second.graph))

    def test_save_is_a_swap_not_a_merge(self, tmp_path):
        target = str(tmp_path / "dump")
        db = RDFDatabase(random_rdfs_graph(12, size=15))
        db.save(target)
        marker = os.path.join(target, "stale-file")
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("left over from the old generation")
        db.save(target)
        assert not os.path.exists(marker)
        assert sorted(RDFDatabase.load(target).graph) == sorted(db.graph)


# ----------------------------------------------------------------------
# stores written while materialized views existed
# ----------------------------------------------------------------------

#: the DISTINCT 2-hop chain those stores installed as a view
CHAIN_VIEW = ("SELECT DISTINCT ?x ?z WHERE { "
              f"?x <{EX.knows}> ?y . ?y <{EX.knows}> ?z }}")

#: the ``"views"`` block every manifest and meta.json used to carry
VIEWS_META = {"enabled": True, "budget_rows": 50_000,
              "definitions": [CHAIN_VIEW]}


def _social_graph():
    graph = Graph()
    people = [EX.term(f"p{i}") for i in range(8)]
    for i, person in enumerate(people):
        for hop in (1, 3):
            graph.add(Triple(person, EX.knows, people[(i + hop) % 8]))
    graph.add(Triple(EX.knows, RDFS.domain, EX.Person))
    return graph


def _config_meta(strategy: Strategy) -> dict:
    return {"strategy": strategy.value, "ruleset": "rdfs-default",
            "maintenance": "dred", "reformulation_strategy": "ucq",
            "backend": "hash", "views": VIEWS_META}


class TestViewsEraStores:
    """Stores whose metadata carries a ``"views"`` block reopen under
    their recorded strategy; the block is ignored, so answers equal a
    fresh database's, and nothing written afterwards carries it."""

    QUERIES = (CHAIN_VIEW, f"SELECT ?x WHERE {{ ?x a <{EX.Person}> }}")

    def _assert_answers_like_fresh(self, db, strategy):
        fresh = RDFDatabase(_social_graph(), strategy=strategy)
        for text in self.QUERIES:
            assert db.query(text).to_set() == fresh.query(text).to_set()

    def test_durable_store_reopens_and_drops_the_views_key(self, tmp_path):
        graph = _social_graph()
        store = DurableStore(str(tmp_path))
        store.initialize(_config_meta(Strategy.SATURATION), graph,
                         saturate(graph).graph)
        store.close()

        db = RDFDatabase(storage_dir=str(tmp_path))
        try:
            assert db.strategy == Strategy.SATURATION
            assert "views" not in db.stats()
            self._assert_answers_like_fresh(db, Strategy.SATURATION)
            db.snapshot()
        finally:
            db.close()
        with open(os.path.join(_snapshot_dir(tmp_path), "manifest.json"),
                  encoding="utf-8") as handle:
            assert "views" not in json.load(handle)["meta"]

    def test_saved_directory_reopens_and_drops_the_views_key(self, tmp_path):
        source = str(tmp_path / "old")
        os.makedirs(source)
        with open(os.path.join(source, "data.nt"), "w",
                  encoding="utf-8") as handle:
            handle.write(serialize_ntriples(_social_graph(), sort=True))
        meta = dict(_config_meta(Strategy.REFORMULATION),
                    format="repro-database", version=1,
                    triples=len(_social_graph()))
        with open(os.path.join(source, "meta.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(meta, handle)

        db = RDFDatabase.load(source)
        assert db.strategy == Strategy.REFORMULATION
        self._assert_answers_like_fresh(db, Strategy.REFORMULATION)
        target = str(tmp_path / "new")
        db.save(target)
        with open(os.path.join(target, "meta.json"),
                  encoding="utf-8") as handle:
            assert "views" not in json.load(handle)
