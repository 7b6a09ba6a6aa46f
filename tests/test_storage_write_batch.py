"""Atomic write batches: one WAL record per batch, all-or-none everywhere.

Covers the :class:`~repro.storage.database.WriteBatch` primitive (apply,
undo, log, replay), the statements built on it (``Database.insert_rows``
and every SQL INSERT/UPDATE/DELETE: all or nothing, one record each), the
row-coercion fast path, and the Query Storage guarantee built on batches:
after a crash at any byte, every qid is in all relations or none.
"""

from __future__ import annotations

import os

import pytest

from repro import CQMS, CQMSConfig, build_database
from repro.core.query_store import QueryStore
from repro.core.records import LoggedQuery, OutputSummary
from repro.errors import DurabilityError, IntegrityError, SchemaError
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import EngineTelemetry
from repro.storage.database import Database, WriteBatch
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.table import HEAP_PAGE_SLOTS
from repro.storage.types import DataType
from repro.storage.wal import WAL_FILE_NAME, read_wal


def wal_path(data_dir) -> str:
    return os.path.join(data_dir, WAL_FILE_NAME)


def two_tables(db: Database) -> None:
    db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, v TEXT)")
    db.execute("CREATE TABLE b (k INTEGER, w FLOAT)")


def contents(db: Database) -> dict[str, list]:
    return {
        name: sorted(db.execute(f"SELECT * FROM {name}").rows) for name in ("a", "b")
    }


class TestWriteBatch:
    def test_batch_is_one_wal_record_and_replays(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="commit") as db:
            two_tables(db)
            db.insert_rows("a", [{"id": 1, "v": "x"}])
            before = db.wal_stats().records
            batch = WriteBatch()
            batch.insert("a", [{"id": 2, "v": "y"}, {"id": 3, "v": "z"}])
            batch.insert("b", [{"k": i, "w": i / 2} for i in range(5)])
            batch.update("a", 0, {"v": "x2"})
            batch.delete("b", 1)
            db.apply_batch(batch)
            assert db.wal_stats().records == before + 1
            expected = contents(db)
        records = read_wal(wal_path(d)).records
        assert records[-1].data["op"] == "batch"
        insert_a = records[-1].data["ops"][0]
        assert insert_a["cols"] == ["id", "v"] and insert_a["rid"] == 1
        assert insert_a["rows"] == [[2, "y"], [3, "z"]]
        with Database.open(d) as db:
            assert contents(db) == expected
            assert db.execute("SELECT v FROM a WHERE id = 1").scalar() == "x2"
            assert db.table("b").next_row_id == 5

    def test_rejected_row_undoes_the_whole_batch(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="commit") as db:
            two_tables(db)
            db.insert_rows("a", [{"id": 1, "v": "x"}])
            before, records = contents(db), db.wal_stats().records
            batch = WriteBatch()
            batch.insert("b", [{"k": 1, "w": 1.0}])
            batch.update("a", 0, {"v": "changed"})
            batch.delete("a", 0)
            batch.insert("a", [{"id": 7, "v": "ok"}, {"id": 7, "v": "dup"}])
            with pytest.raises(IntegrityError):
                db.apply_batch(batch)
            assert contents(db) == before
            assert db.wal_stats().records == records
            # Indexes agree with the restored heap.
            assert db.execute("SELECT v FROM a WHERE id = 1").scalar() == "x"
            assert db.execute("SELECT COUNT(*) FROM a WHERE id = 7").scalar() == 0

    def test_failed_append_undoes_every_applied_row(self, tmp_path):
        d = str(tmp_path / "db")
        db = Database.open(d, wal_sync="commit")
        two_tables(db)
        db.insert_rows("a", [{"id": 1, "v": "x"}, {"id": 2, "v": "y"}])
        before = contents(db)

        def boom(record):
            raise DurabilityError("disk full")

        original = db._wal.append
        db._wal.append = boom
        batch = WriteBatch()
        batch.insert("a", [{"id": 3, "v": "z"}])
        batch.insert("b", [{"k": i, "w": 0.5} for i in range(300)])
        batch.update("a", 0, {"id": 10})
        batch.delete("a", 1)
        with pytest.raises(DurabilityError):
            db.apply_batch(batch)
        db._wal.append = original
        assert contents(db) == before
        assert len(db.table("b")) == 0 and db.table("b").page_count == 0
        assert db.execute("SELECT v FROM a WHERE id = 1").scalar() == "x"
        assert db.execute("SELECT COUNT(*) FROM a WHERE id = 10").scalar() == 0
        db.close()
        with Database.open(d) as recovered:
            assert contents(recovered) == before

    def test_inserts_pin_each_heap_page_once_and_bump_version_once(self):
        db = Database()
        two_tables(db)
        table = db.table("b")
        fetches = []
        fetch = db._store.fetch

        def counting_fetch(page_id, codec):
            fetches.append(page_id)
            return fetch(page_id, codec)

        db._store.fetch = counting_fetch
        version = table.version
        batch = WriteBatch()
        batch.insert("b", [{"k": i, "w": 0.0} for i in range(2 * HEAP_PAGE_SLOTS + 10)])
        db.apply_batch(batch)
        assert len(fetches) == 3 == len(set(fetches))
        assert table.version == version + 1
        assert [row_id for row_id, _ in table.scan()] == list(range(2 * HEAP_PAGE_SLOTS + 10))

    def test_torn_batch_record_is_dropped_whole(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="commit") as db:
            two_tables(db)
            committed = len(open(wal_path(d), "rb").read())
            batch = WriteBatch()
            batch.insert("a", [{"id": i, "v": "v"} for i in range(20)])
            batch.insert("b", [{"k": i, "w": 1.0} for i in range(20)])
            db.apply_batch(batch)
        blob = open(wal_path(d), "rb").read()
        for cut in (committed + 1, (committed + len(blob)) // 2, len(blob) - 1):
            with open(wal_path(d), "wb") as handle:
                handle.write(blob[:cut])
            with Database.open(d) as db:
                assert contents(db) == {"a": [], "b": []}, f"cut at byte {cut}"

    def test_group_commit_counts_rows(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="batch", wal_group_size=64) as db:
            two_tables(db)
            db.flush_wal()
            flushes = db.wal_stats().flushes
            small = WriteBatch()
            small.insert("b", [{"k": i, "w": 0.0} for i in range(10)])
            db.apply_batch(small)
            assert db.wal_stats().flushes == flushes  # 10 rows < group_size
            db.flush_wal()
            flushes = db.wal_stats().flushes
            large = WriteBatch()
            large.insert("b", [{"k": i, "w": 0.0} for i in range(100)])
            db.apply_batch(large)
            stats = db.wal_stats()
            assert stats.flushes == flushes + 1  # one record, one flush
            assert stats.max_batch_records >= 1

    def test_checkpoint_interval_counts_rows(self, tmp_path):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="off", checkpoint_interval=50) as db:
            two_tables(db)
            batch = WriteBatch()
            batch.insert("b", [{"k": i, "w": 0.0} for i in range(60)])
            db.apply_batch(batch)
            assert db.wal_stats().checkpoints == 1
        # Recovered rows press toward the interval too.
        with Database.open(d, wal_sync="off") as db:
            batch = WriteBatch()
            batch.insert("b", [{"k": i, "w": 0.0} for i in range(40)])
            db.apply_batch(batch)
        with Database.open(d, wal_sync="off", checkpoint_interval=30) as db:
            assert db.last_recovery.wal_records_scanned == 1
            assert db.last_recovery.wal_rows_scanned == 40
            assert db.wal_stats().checkpoints == 1
            assert len(db.table("b")) == 100


class TestInsertRowsAtomicity:
    @pytest.mark.parametrize(
        "bad",
        [
            {"id": "not a number", "v": "x"},  # coercion
            {"id": 1, "v": "x"},  # unique against the table
            {"id": 5, "v": "x"},  # unique against an earlier row of the call
            {"nope": 1},  # unknown column
        ],
    )
    def test_bad_row_inserts_nothing(self, tmp_path, bad):
        d = str(tmp_path / "db")
        with Database.open(d, wal_sync="commit") as db:
            two_tables(db)
            db.insert_rows("a", [{"id": 1, "v": "x"}])
            records = db.wal_stats().records
            rows = [{"id": 4, "v": "a"}, {"id": 5, "v": "b"}, bad, {"id": 6, "v": "c"}]
            with pytest.raises((SchemaError, IntegrityError)):
                db.insert_rows("a", rows)
            assert table_ids(db) == [1]
            assert db.wal_stats().records == records
        with Database.open(d) as db:
            assert table_ids(db) == [1]

    def test_good_rows_share_one_record(self, tmp_path):
        with Database.open(str(tmp_path / "db"), wal_sync="commit") as db:
            two_tables(db)
            records = db.wal_stats().records
            assert db.insert_rows("a", [{"id": i, "v": "x"} for i in range(4)]) == 4
            assert db.wal_stats().records == records + 1


@pytest.fixture(params=["memory", "durable"])
def unique_db(request, tmp_path):
    """Rows (1, 1), (2, 2), (3, 12) in ``t`` with both columns unique, in an
    in-memory database or a durable one (``wal_sync='commit'``)."""
    d = str(tmp_path / "db")
    db = Database() if request.param == "memory" else Database.open(d, wal_sync="commit")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER UNIQUE)")
    db.execute("INSERT INTO t VALUES (1, 1), (2, 2), (3, 12)")
    yield db
    db.close()


def t_rows(db: Database) -> list[tuple]:
    return sorted(db.execute("SELECT id, v FROM t").rows)


def assert_unchanged_and_unlogged(db: Database, rows, records) -> None:
    """``t`` still holds ``rows`` (through both unique indexes too), nothing
    was logged, and a durable database recovers the same rows."""
    assert t_rows(db) == rows
    for key, v in rows:
        assert db.execute(f"SELECT v FROM t WHERE id = {key}").scalar() == v
        assert db.execute(f"SELECT id FROM t WHERE v = {v}").scalar() == key
    if not db.is_durable:
        return
    assert db.wal_stats().records == records
    d = db.data_dir
    db.close()
    with Database.open(d) as recovered:
        assert t_rows(recovered) == rows


def wal_records(db: Database) -> int | None:
    return db.wal_stats().records if db.is_durable else None


class TestStatementAtomicity:
    """Each SQL DML statement is one batch: it applies wholly or not at all."""

    def test_multi_row_insert_with_duplicate_in_last_row_inserts_nothing(
        self, unique_db
    ):
        before, records = t_rows(unique_db), wal_records(unique_db)
        with pytest.raises(IntegrityError):
            unique_db.execute("INSERT INTO t VALUES (4, 4), (5, 5), (1, 6)")
        assert_unchanged_and_unlogged(unique_db, before, records)

    def test_update_violating_unique_on_second_row_leaves_first_unchanged(
        self, unique_db
    ):
        before, records = t_rows(unique_db), wal_records(unique_db)
        with pytest.raises(IntegrityError):
            # id 1 -> v 11 is fine; id 2 -> v 12 collides with id 3.
            unique_db.execute("UPDATE t SET v = v + 10 WHERE id <= 2")
        assert_unchanged_and_unlogged(unique_db, before, records)

    def test_delete_that_fails_on_its_second_row_leaves_every_row(self, unique_db):
        """Durable: logging the second row (row id 1) fails.  In memory there
        is no log, so deleting that row from the heap raises instead."""
        before, records = t_rows(unique_db), wal_records(unique_db)
        if unique_db.is_durable:
            target, name = unique_db._wal, "append"
        else:
            target, name = unique_db.table("t"), "apply_delete"
        original = getattr(target, name)

        def failing(subject):
            if isinstance(subject, dict):  # a WAL record: one row or a batch
                row_ids = [entry.get("rid") for entry in subject.get("ops", [subject])]
            else:
                row_ids = [subject]
            if 1 in row_ids:
                raise DurabilityError("disk full")
            return original(subject)

        setattr(target, name, failing)
        with pytest.raises(DurabilityError):
            unique_db.execute("DELETE FROM t WHERE id <= 2")
        delattr(target, name)  # back to the class method
        assert_unchanged_and_unlogged(unique_db, before, records)

    def test_each_statement_is_one_record_and_one_sync(self, tmp_path):
        with Database.open(str(tmp_path / "db"), wal_sync="commit") as db:
            db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
            stats = db.wal_stats()
            for sql in (
                "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4)",
                "INSERT INTO t SELECT id + 10, v FROM t",
                "UPDATE t SET v = v * 2 WHERE id > 2",
                "DELETE FROM t WHERE v > 4",
            ):
                records, syncs = stats.records, stats.syncs
                assert db.execute(sql).rowcount > 1
                assert (stats.records, stats.syncs) == (records + 1, syncs + 1), sql
            records = stats.records
            db.execute("DELETE FROM t WHERE id > 1000")  # changes nothing
            assert stats.records == records
            expected = sorted(db.execute("SELECT * FROM t").rows)
            d = db.data_dir
        with Database.open(d) as recovered:
            assert sorted(recovered.execute("SELECT * FROM t").rows) == expected


def table_ids(db: Database) -> list[int]:
    return [row[0] for row in db.execute("SELECT id FROM a ORDER BY id").rows]


class TestCoerceRowFastPath:
    schema = TableSchema(
        name="t",
        columns=[
            ColumnSchema("id", DataType.INTEGER, not_null=True),
            ColumnSchema("Score", DataType.FLOAT),
            ColumnSchema("flag", DataType.BOOLEAN),
        ],
    )

    def test_exact_keys_still_coerce_every_value(self):
        row = self.schema.coerce_row({"id": "7", "Score": 2, "flag": "true"})
        assert row == {"id": 7, "Score": 2.0, "flag": True}
        assert isinstance(row["Score"], float)
        with pytest.raises(SchemaError, match="NOT NULL"):
            self.schema.coerce_row({"id": None, "Score": 1.0, "flag": False})
        with pytest.raises(SchemaError, match="cannot coerce"):
            self.schema.coerce_row({"id": 1, "Score": "high", "flag": False})

    def test_mixed_case_keys_are_accepted(self):
        assert self.schema.coerce_row({"ID": 1, "score": 0.5, "FLAG": False}) == {
            "id": 1,
            "Score": 0.5,
            "flag": False,
        }

    def test_unknown_key_raises_the_same_error(self):
        with pytest.raises(SchemaError, match="table 't' has no column 'bogus'"):
            self.schema.coerce_row({"id": 1, "Score": 0.5, "bogus": 1})
        with pytest.raises(SchemaError, match="table 't' has no column 'bogus'"):
            self.schema.coerce_row({"id": 1, "bogus": 1})

    def test_missing_columns_become_null(self):
        assert self.schema.coerce_row({"id": 1}) == {"id": 1, "Score": None, "flag": None}


# -- the Query Storage on top of batches ------------------------------------------

FEATURE_TABLES = (
    "Queries",
    "DataSources",
    "Attributes",
    "Predicates",
    "Projections",
    "Joins",
    "RuntimeStats",
    "OutputSamples",
)


def logged(qid: int, user: str = "ana") -> LoggedQuery:
    return LoggedQuery(
        qid=qid,
        user=user,
        group="g",
        text="SELECT * FROM Lakes",
        timestamp=1.0,
        output=OutputSummary(columns=["name"], rows=[("Union",)], total_rows=1),
    )


def rows_per_qid(store: QueryStore) -> dict[int, dict[str, int]]:
    counts: dict[int, dict[str, int]] = {}
    for name in FEATURE_TABLES:
        for row in store.meta_database.table(name).rows():
            per_table = counts.setdefault(row["qid"], dict.fromkeys(FEATURE_TABLES, 0))
            per_table[name] += 1
    return counts


def high_water(store: QueryStore) -> int:
    return store.execute_meta_sql(
        "SELECT value FROM StoreMeta WHERE key = 'next_qid'"
    ).scalar()


class TestQueryStoreAtomicity:
    def test_failed_log_leaves_no_record_series_or_rows(self, tmp_path):
        store = QueryStore(data_dir=str(tmp_path / "store"), wal_sync="commit")
        registry = MetricsRegistry()
        store.attach_telemetry(EngineTelemetry(registry=registry, engine="query_storage"))
        store.add(logged(store.next_qid()))
        series_before = registry.series_count()
        counts_before = rows_per_qid(store)
        wal = store.meta_database._wal

        def boom(record):
            raise DurabilityError("disk full")

        original, wal.append = wal.append, boom
        qid = store.next_qid()
        with pytest.raises(DurabilityError):
            store.add(logged(qid, user="bob"))
        with pytest.raises(DurabilityError):
            store.add(logged(store.next_qid()))
        wal.append = original
        assert qid not in store and len(store) == 1
        assert store.queries_of_user("bob") == []
        assert [r.qid for r in store.queries_of_user("ana")] == [1]
        assert registry.series_count() == series_before  # no series for bob
        assert registry.counter("user_queries", user="ana").value == 1
        assert rows_per_qid(store) == counts_before
        assert high_water(store) == 2
        # The store is still usable, and the qid stays retired.
        store.add(logged(store.next_qid()))
        assert sorted(rows_per_qid(store)) == [1, 4]
        store.close()

    def test_add_with_explicit_qid_advances_the_high_water_mark(self, tmp_path):
        store = QueryStore(data_dir=str(tmp_path / "store"))
        store.add(logged(5))
        assert high_water(store) == 6
        assert store.next_qid() == 6
        store.close()

    def test_remove_repair_and_sessions_are_one_record_each(self, tmp_path):
        d = str(tmp_path / "store")
        db = build_database("limnology", scale=1)
        with CQMS(db, config=CQMSConfig(data_dir=d)) as cqms:
            cqms.register_user("ana", group="g")
            for limit in (18, 19, 20):
                cqms.submit("ana", f"SELECT * FROM WaterTemp WHERE temp < {limit}")
                cqms.clock.advance(30)
            stats = cqms.store.wal_stats()
            records = stats.records
            cqms.run_miner()  # record_sessions
            assert stats.records == records + 1
            cqms.store.remove(3)
            assert stats.records == records + 2
            record = cqms.store.get(2)
            cqms.store.replace_text(
                2, record.text, record.features, record.canonical_text, record.template_text
            )
            assert stats.records == records + 3
            expected = rows_per_qid(cqms.store)
        with CQMS(build_database("limnology", scale=1), config=CQMSConfig(data_dir=d)) as cqms:
            assert rows_per_qid(cqms.store) == expected
            assert cqms.store.execute_meta_sql("SELECT COUNT(*) FROM Sessions").scalar() >= 1

    def test_kill_at_any_byte_keeps_every_qid_whole(self, tmp_path):
        d = str(tmp_path / "store")
        db = build_database("limnology", scale=1)
        cqms = CQMS(db, config=CQMSConfig(data_dir=d, wal_sync="commit"))
        cqms.register_user("ana", group="g")
        cqms.submit("ana", "SELECT name FROM Lakes WHERE area_km2 > 1")
        cqms.store.checkpoint()
        boundaries = [os.path.getsize(wal_path(d))]
        for sql in (
            "SELECT COUNT(*) FROM WaterTemp T WHERE T.temp < 18",
            "SELECT L.name FROM Lakes L, WaterTemp T "
            "WHERE L.lake_id = T.lake_id AND T.month = 7 LIMIT 2",
        ):
            cqms.submit("ana", sql)
            boundaries.append(os.path.getsize(wal_path(d)))
        expected = rows_per_qid(cqms.store)
        cqms.close()
        assert sorted(expected) == [1, 2, 3]
        blob = open(wal_path(d), "rb").read()
        assert len(read_wal(wal_path(d)).records) == 2  # one record per submit
        for cut in range(boundaries[0], boundaries[-1] + 1):
            with open(wal_path(d), "wb") as handle:
                handle.write(blob[:cut])
            survivors = sum(1 for boundary in boundaries if boundary <= cut)
            store = QueryStore(data_dir=d)
            try:
                recovered = rows_per_qid(store)
                assert recovered == {
                    qid: expected[qid] for qid in range(1, survivors + 1)
                }, f"cut at byte {cut}"
                assert [r.qid for r in store.all_queries()] == sorted(recovered)
                assert high_water(store) > max(recovered), f"cut at byte {cut}"
            finally:
                store.close()
