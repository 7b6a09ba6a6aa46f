"""Tests for heap tables, indexes, and table-level schema evolution.

A table never logs: these tests drive its unlogged mutators directly, the
way :meth:`Database.apply_batch` and crash recovery do.
"""

import pytest

from repro.errors import IntegrityError, SchemaError
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType


def make_table():
    return Table(
        TableSchema(
            name="lakes",
            columns=[
                ColumnSchema("id", DataType.INTEGER, primary_key=True),
                ColumnSchema("name", DataType.TEXT, unique=True),
                ColumnSchema("state", DataType.TEXT),
                ColumnSchema("area", DataType.FLOAT),
            ],
        )
    )


def insert(table, row):
    """Prepare and place one row as ``Database.apply_batch`` does; returns
    its row id."""
    row_id = table.next_row_id
    table.place_rows(row_id, table.prepare_rows([row]))
    return row_id


def seed(table):
    insert(table, {"id": 1, "name": "Washington", "state": "WA", "area": 87.6})
    insert(table, {"id": 2, "name": "Union", "state": "WA", "area": 2.3})
    insert(table, {"id": 3, "name": "Michigan", "state": "MI", "area": 58000.0})
    return table


class TestInsertDeleteUpdate:
    def test_insert_returns_increasing_row_ids(self):
        table = make_table()
        first = insert(table, {"id": 1, "name": "a", "state": "WA", "area": 1.0})
        second = insert(table, {"id": 2, "name": "b", "state": "WA", "area": 1.0})
        assert second == first + 1
        assert len(table) == 2

    def test_primary_key_uniqueness_enforced(self):
        table = seed(make_table())
        with pytest.raises(IntegrityError):
            insert(table, {"id": 1, "name": "dup", "state": "WA", "area": 1.0})

    def test_unique_column_enforced(self):
        table = seed(make_table())
        with pytest.raises(IntegrityError):
            insert(table, {"id": 9, "name": "Union", "state": "OR", "area": 1.0})

    def test_failed_insert_leaves_table_unchanged(self):
        table = seed(make_table())
        before = len(table)
        with pytest.raises(IntegrityError):
            insert(table, {"id": 1, "name": "x", "state": "WA", "area": 1.0})
        assert len(table) == before

    def test_delete_removes_row_and_index_entry(self):
        table = seed(make_table())
        row_id = next(rid for rid, row in table.scan() if row["id"] == 2)
        table.apply_delete(row_id)
        assert len(table) == 2
        assert table.lookup("id", 2) == []

    def test_delete_undo_restores_row_and_index_entry(self):
        table = seed(make_table())
        row_id = next(rid for rid, row in table.scan() if row["id"] == 1)
        row = table.apply_delete(row_id)
        assert table.apply_delete(row_id) is None  # already gone
        table.place_rows(row_id, [row])
        assert [rid for rid, _ in table.scan()] == [0, 1, 2]
        assert table.lookup("id", 1)[0]["name"] == "Washington"

    def test_update_changes_values_and_indexes(self):
        table = seed(make_table())
        row_id = next(rid for rid, row in table.scan() if row["id"] == 2)
        table.apply_update(row_id, {"name": "Lake Union", "area": 3.5})
        assert table.lookup("name", "Lake Union")[0]["area"] == 3.5
        assert table.lookup("name", "Union") == []

    def test_update_unique_violation_restores_index(self):
        table = seed(make_table())
        row_id = next(rid for rid, row in table.scan() if row["id"] == 2)
        with pytest.raises(IntegrityError):
            table.apply_update(row_id, {"name": "Washington"})
        # The old value is still findable after the failed update.
        assert table.lookup("name", "Union")[0]["id"] == 2

    def test_failed_update_rolls_back_earlier_indexes(self):
        # Two unique columns: the first (id, the primary key) accepts its new
        # value, then the second (name) raises — the first index must be
        # restored, not left pointing at the never-committed value.
        table = seed(make_table())
        row_id = next(rid for rid, row in table.scan() if row["id"] == 2)
        with pytest.raises(IntegrityError):
            table.apply_update(row_id, {"id": 99, "name": "Washington"})
        assert table.lookup("id", 2)[0]["name"] == "Union"
        assert table.lookup("id", 99) == []
        assert table.lookup("name", "Union")[0]["id"] == 2
        # A re-insert of the rejected id must not hit a phantom index entry.
        insert(table, {"id": 99, "name": "New", "state": "OR", "area": 1.0})

    def test_insert_coerces_types(self):
        table = make_table()
        insert(table, {"id": "5", "name": "x", "state": "WA", "area": "2.5"})
        row = table.lookup("id", 5)[0]
        assert row["area"] == 2.5

    def test_insert_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            insert(make_table(), {"id": 1, "nope": "x"})


class TestIndexes:
    def test_secondary_index_lookup(self):
        table = seed(make_table())
        index = table.create_index("by_state", "state")
        assert index.distinct_values() == 2
        assert {row["name"] for row in table.lookup("state", "WA")} == {"Washington", "Union"}

    def test_lookup_without_index_scans(self):
        table = seed(make_table())
        assert len(table.lookup("area", 2.3)) == 1

    def test_create_index_on_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            make_table().create_index("bad", "nope")

    def test_index_created_after_inserts_backfills(self):
        table = seed(make_table())
        index = table.create_index("by_state", "state")
        assert index.lookup("MI")

    def test_nulls_not_indexed(self):
        table = make_table()
        table.create_index("by_state", "state")
        insert(table, {"id": 10, "name": "n", "state": None, "area": 1.0})
        assert table.index_for("state").lookup(None) == set()

    def test_create_index_is_idempotent_for_matching_request(self):
        table = seed(make_table())
        first = table.create_index("by_state", "state")
        assert table.create_index("other_name", "state") is first

    def test_create_index_uniqueness_conflict_raises(self):
        # A unique index must never be silently satisfied by an existing
        # non-unique one (or vice versa).
        table = seed(make_table())
        table.create_index("by_state", "state", unique=False)
        with pytest.raises(SchemaError):
            table.create_index("by_state_unique", "state", unique=True)
        with pytest.raises(SchemaError):
            table.create_index("pk_again", "id", unique=False)

    def test_unknown_index_kind_raises(self):
        with pytest.raises(SchemaError):
            make_table().create_index("weird", "state", kind="rtree")

    def test_hash_and_sorted_coexist_on_one_column(self):
        table = seed(make_table())
        hash_index = table.create_index("area_hash", "area")
        sorted_index = table.create_index("area_sorted", "area", kind="sorted")
        assert hash_index is not sorted_index
        assert table.index_for("area") is hash_index
        assert table.sorted_index_for("area") is sorted_index
        # Both kinds are maintained through mutations.
        insert(table, {"id": 7, "name": "Tahoe", "state": "CA", "area": 191.0})
        assert hash_index.lookup(191.0)
        assert sorted_index.lookup(191.0)
        row_id = next(rid for rid, row in table.scan() if row["id"] == 7)
        table.apply_update(row_id, {"area": 192.0})
        assert not sorted_index.lookup(191.0)
        assert sorted_index.lookup(192.0)
        table.apply_delete(row_id)
        assert not hash_index.lookup(192.0)
        assert not sorted_index.lookup(192.0)

    def test_failed_unique_build_attaches_nothing_and_frees_its_pages(self):
        table = seed(make_table())
        resident = table.store.stats().resident
        with pytest.raises(IntegrityError):
            table.create_index("state_unique", "state", unique=True, kind="sorted")
        assert table.sorted_index_for("state") is None
        assert table.store.stats().resident == resident

    def test_drop_index_undoes_create_index(self):
        table = seed(make_table())
        schema_version = table.schema_version
        index = table.create_index("area_sorted", "area", kind="sorted")
        table.drop_index(index)
        assert table.sorted_index_for("area") is None
        assert table.schema_version == schema_version + 2
        assert table.create_index("area_sorted", "area", kind="sorted") is not index

    def test_sorted_index_backfills_existing_rows(self):
        table = seed(make_table())
        index = table.create_index("area_sorted", "area", kind="sorted")
        assert index.distinct_values() == 3

    def test_rename_column_moves_all_index_kinds(self):
        table = seed(make_table())
        table.create_index("area_sorted", "area", kind="sorted")
        table.rename_column("area", "surface")
        assert table.sorted_index_for("surface") is not None
        assert table.sorted_index_for("surface").column == "surface"
        assert table.sorted_index_for("area") is None


class TestSchemaEvolution:
    def test_add_column_fills_nulls(self):
        table = seed(make_table())
        table.add_column(ColumnSchema("depth", DataType.FLOAT))
        assert all(row["depth"] is None for row in table.rows())

    def test_add_column_with_default(self):
        table = seed(make_table())
        table.add_column(ColumnSchema("kind", DataType.TEXT), default="freshwater")
        assert all(row["kind"] == "freshwater" for row in table.rows())

    def test_add_not_null_column_without_default_raises(self):
        table = seed(make_table())
        with pytest.raises(SchemaError):
            table.add_column(ColumnSchema("kind", DataType.TEXT, not_null=True))

    def test_drop_column(self):
        table = seed(make_table())
        table.drop_column("area")
        assert "area" not in table.rows()[0]
        assert not table.schema.has_column("area")

    def test_rename_column_moves_data_and_index(self):
        table = seed(make_table())
        table.rename_column("name", "lake_name")
        assert table.lookup("lake_name", "Union")[0]["id"] == 2
        with pytest.raises(SchemaError):
            table.schema.column("name")

    def test_rename_table(self):
        table = make_table()
        table.rename("water_bodies")
        assert table.name == "water_bodies"


class TestStatistics:
    def test_statistics_cached_until_mutation(self):
        table = seed(make_table())
        first = table.statistics()
        assert table.statistics() is first
        insert(table, {"id": 9, "name": "new", "state": "OR", "area": 4.0})
        assert table.statistics() is not first

    def test_statistics_row_count(self):
        assert seed(make_table()).statistics().row_count == 3
