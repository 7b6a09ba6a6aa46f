"""Paged heap tables with secondary indexes and cached statistics."""

from __future__ import annotations

from repro.errors import IntegrityError, SchemaError
from repro.storage.buffer_pool import PageStore
from repro.storage.indexes import INDEX_KINDS, HashIndex, SortedIndex
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.statistics import TableStatistics

#: Row slots per heap page.  A row id maps to ``(page ordinal, slot)`` as
#: ``divmod(row_id, HEAP_PAGE_SLOTS)`` — row ids are monotonic and never
#: reused, so the mapping is stable for the lifetime of the table.
HEAP_PAGE_SLOTS = 128


class _HeapPageCodec:
    """(De)serialize one heap page: a slot → row dict, ascending slot order."""

    @staticmethod
    def encode(page: dict) -> bytes:
        import json

        return json.dumps(
            [[slot, page[slot]] for slot in sorted(page)], separators=(",", ":")
        ).encode("utf-8")

    @staticmethod
    def decode(payload: bytes) -> dict:
        import json

        return {int(slot): row for slot, row in json.loads(payload.decode("utf-8"))}


HEAP_PAGE_CODEC = _HeapPageCodec()


def _install_slot(page: dict, slot: int, row: dict) -> None:
    """Place ``row`` at ``slot`` keeping the page's ascending slot order.

    Scans iterate pages in insertion order; normal inserts always append the
    highest slot so far, so the order is maintained for free.  Restore paths
    (WAL replay, failed-delete rollback) can re-add a low slot after higher
    ones — only then is the dict rebuilt sorted.
    """
    out_of_order = slot not in page and bool(page) and slot < next(reversed(page))
    page[slot] = row
    if out_of_order:
        ordered = sorted(page.items())
        page.clear()
        page.update(ordered)


class Table:
    """A heap table: slotted pages behind a buffer pool, plus its indexes.

    Rows are dicts keyed by the schema's column names (original case),
    stored ``HEAP_PAGE_SLOTS`` to a page; the page objects live in a
    :class:`~repro.storage.buffer_pool.PageStore` (shared database-wide, so
    one ``buffer_pool_pages`` budget bounds heap *and* index residency).
    Row ids are monotonically increasing and never reused, which lets
    indexes reference rows stably across deletes and pins each row to one
    ``(page, slot)`` forever.  Each column may carry one index per kind (a
    hash index for equality probes and a B+-tree-backed sorted index for
    range scans and ordered access).

    A table never logs.  Its mutators (``place_rows``, ``apply_update``,
    ``apply_delete``, ``create_index``) and their undos are called only by
    :class:`~repro.storage.database.Database` — which applies every row
    change through :meth:`~repro.storage.database.Database.apply_batch` and
    logs it there — and by crash recovery, which replays the log through the
    same methods.
    """

    def __init__(
        self,
        schema: TableSchema,
        store: PageStore | None = None,
        page_slots: int = HEAP_PAGE_SLOTS,
    ):
        self._schema = schema
        self._store = store if store is not None else PageStore()
        self._page_slots = max(1, int(page_slots))
        self._page_ids: dict[int, int] = {}  # page ordinal -> buffer-pool page id
        self._page_live: dict[int, int] = {}  # page ordinal -> live row count
        self._row_count = 0
        self._next_row_id = 0
        # column (lower-cased) → kind ("hash"/"sorted") → index
        self._indexes: dict[str, dict[str, HashIndex | SortedIndex]] = {}
        self._stats_cache: TableStatistics | None = None
        # Monotonic change counters consumed by the plan cache: ``version``
        # moves on every mutation (DML, DDL, index builds, statistics
        # refreshes); ``schema_version`` moves only on DDL and index changes,
        # where cached plans require an exact match instead of a drift check.
        self.version = 0
        self.schema_version = 0
        if schema.primary_key is not None:
            self.create_index(
                f"{schema.name.lower()}_pk", schema.primary_key.name, unique=True
            )
        for column in schema.columns:
            if column.unique and not column.primary_key:
                self.create_index(
                    f"{schema.name.lower()}_{column.name.lower()}_unique",
                    column.name,
                    unique=True,
                )

    # -- basic accessors -----------------------------------------------------

    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def name(self) -> str:
        return self._schema.name

    def __len__(self) -> int:
        return self._row_count

    @property
    def page_slots(self) -> int:
        return self._page_slots

    @property
    def page_count(self) -> int:
        """Heap pages the table occupies (the planner's I/O cost input)."""
        return len(self._page_ids)

    @property
    def store(self) -> PageStore:
        return self._store

    def rows(self) -> list[dict[str, object]]:
        """A snapshot list of all rows (copies are not made; do not mutate)."""
        return [row for _, row in self.scan()]

    def scan(self):
        """Iterate over ``(row_id, row)`` pairs in row-id order.

        Pages are read through the buffer pool without pinning: eviction
        only drops the store's reference, so a page dict being iterated
        stays valid for the iterator holding it, and read-only iteration is
        safe under the engine's statement-at-a-time mutation model.
        """
        for ordinal in sorted(self._page_ids):
            page = self._store.read(self._page_ids[ordinal], HEAP_PAGE_CODEC)
            base = ordinal * self._page_slots
            for slot, row in page.items():
                yield base + slot, row

    def scan_row_lists(self):
        """Per-page lists of stored row dicts, in :meth:`scan` order.

        The columnar scan's bulk feed: one C-speed ``list(page.values())``
        per page instead of a Python-level generator resumption per row,
        which is where a row-granular feed spends most of its time.  Rows
        are the same dict objects :meth:`scan` yields; callers must not
        mutate them or the returned lists they arrive in.
        """
        for ordinal in sorted(self._page_ids):
            page = self._store.read(self._page_ids[ordinal], HEAP_PAGE_CODEC)
            if page:
                yield list(page.values())

    def _bump(self, schema: bool = False) -> None:
        """Advance the change counters after a mutation."""
        self.version += 1
        if schema:
            self.schema_version += 1

    def get(self, row_id: int) -> dict[str, object] | None:
        ordinal, slot = divmod(row_id, self._page_slots)
        page_id = self._page_ids.get(ordinal)
        if page_id is None:
            return None
        return self._store.read(page_id, HEAP_PAGE_CODEC).get(slot)

    @property
    def next_row_id(self) -> int:
        """The row id the next insert will take (snapshotted for recovery)."""
        return self._next_row_id

    # -- slotted-page plumbing -------------------------------------------------

    def _store_slots(self, first_row_id: int, rows: list[dict]) -> None:
        """Write ``rows`` at consecutive ids from ``first_row_id``, one
        pin → mutate → mark dirty → unpin cycle per heap page touched."""
        end = first_row_id + len(rows)
        row_id = first_row_id
        while row_id < end:
            ordinal, slot = divmod(row_id, self._page_slots)
            stop = min(end, row_id - slot + self._page_slots)
            page_id = self._page_ids.get(ordinal)
            if page_id is None:
                page_id = self._store.allocate({}, HEAP_PAGE_CODEC)
                self._page_ids[ordinal] = page_id
                self._page_live[ordinal] = 0
            page = self._store.fetch(page_id, HEAP_PAGE_CODEC)
            try:
                before = len(page)
                for offset in range(row_id - first_row_id, stop - first_row_id):
                    _install_slot(page, slot, rows[offset])
                    slot += 1
                fresh = len(page) - before
                self._store.mark_dirty(page_id)
            finally:
                self._store.unpin(page_id)
            self._page_live[ordinal] += fresh
            self._row_count += fresh
            row_id = stop

    def _discard_slot(self, row_id: int) -> dict | None:
        """Remove and return the row at ``row_id``; frees emptied pages."""
        ordinal, slot = divmod(row_id, self._page_slots)
        page_id = self._page_ids.get(ordinal)
        if page_id is None:
            return None
        page = self._store.fetch(page_id, HEAP_PAGE_CODEC)
        try:
            row = page.pop(slot, None)
            if row is not None:
                self._store.mark_dirty(page_id)
        finally:
            self._store.unpin(page_id)
        if row is None:
            return None
        self._page_live[ordinal] -= 1
        self._row_count -= 1
        if self._page_live[ordinal] <= 0:
            del self._page_ids[ordinal]
            del self._page_live[ordinal]
            self._store.free(page_id)
        return row

    def heap_page_ids(self) -> list[int]:
        """The buffer-pool page ids of every heap page (checkpoint set)."""
        return [self._page_ids[ordinal] for ordinal in sorted(self._page_ids)]

    def page_directory(self) -> list[list[int]]:
        """``[ordinal, head_frame, live]`` rows for the checkpoint metadata.

        Valid only after the owning database flushed the heap pages — every
        page then has an on-disk chain whose head frame recovery can adopt.
        """
        return [
            [ordinal, self._store.chain_head(self._page_ids[ordinal]),
             self._page_live[ordinal]]
            for ordinal in sorted(self._page_ids)
        ]

    def restore_page(self, ordinal: int, page_id: int, live: int) -> None:
        """Recovery: attach an adopted on-disk page at ``ordinal``."""
        self._page_ids[ordinal] = page_id
        self._page_live[ordinal] = live
        self._row_count += live

    def rebuild_indexes(self) -> None:
        """Recovery: repopulate every index from one heap scan.

        Index pages are never checkpointed (they are derived data); after
        the heap pages are attached this rebuilds the exact access paths the
        planner expects.
        """
        for index in self._iter_indexes():
            index.clear()
        for row_id, row in self.scan():
            for index in self._iter_indexes():
                index.insert(row[index.column], row_id)
        self._stats_cache = None

    def drop_storage(self) -> None:
        """Release every buffer-pool page this table owns (DROP TABLE)."""
        for index in self._iter_indexes():
            index.drop()
        for page_id in self._page_ids.values():
            self._store.free(page_id)
        self._page_ids.clear()
        self._page_live.clear()
        self._row_count = 0

    # -- indexes --------------------------------------------------------------

    def create_index(
        self, name: str, column: str, unique: bool = False, kind: str = "hash"
    ) -> HashIndex | SortedIndex:
        try:
            index_class = INDEX_KINDS[kind.lower()]
        except KeyError:
            raise SchemaError(
                f"unknown index kind {kind!r}; expected one of {sorted(INDEX_KINDS)}"
            ) from None
        if not self._schema.has_column(column):
            raise SchemaError(f"table {self.name!r} has no column {column!r}")
        canonical = self._schema.column(column).name
        kinds = self._indexes.setdefault(canonical.lower(), {})
        existing = kinds.get(index_class.kind)
        if existing is not None:
            if existing.unique != unique:
                raise SchemaError(
                    f"index {existing.name!r} on {self.name}.{canonical} already "
                    f"exists with unique={existing.unique}; cannot create "
                    f"{name!r} with unique={unique}"
                )
            return existing
        if index_class.kind == "sorted":
            # Sorted indexes page their B+ tree nodes through the table's
            # store, so index residency shares the heap's pool budget.
            index = index_class(name=name, column=canonical, unique=unique,
                                store=self._store)
        else:
            index = index_class(name=name, column=canonical, unique=unique)
        try:
            for row_id, row in self.scan():
                index.insert(row[canonical], row_id)
        except BaseException:
            index.drop()  # e.g. a unique build over duplicates: free its pages
            raise
        kinds[index_class.kind] = index
        self._bump(schema=True)
        return index

    def drop_index(self, index: HashIndex | SortedIndex) -> None:
        """Undo :meth:`create_index`: detach ``index`` and free its pages."""
        del self._indexes[index.column.lower()][index.kind]
        index.drop()
        self._bump(schema=True)

    def index_definitions(self) -> list:
        """Every index in deterministic (column, kind) order — snapshotted so
        recovery rebuilds the exact same access paths."""
        definitions = []
        for column in sorted(self._indexes):
            kinds = self._indexes[column]
            definitions.extend(kinds[kind] for kind in sorted(kinds))
        return definitions

    def index_for(self, column: str) -> HashIndex | SortedIndex | None:
        """The column's equality-capable index (hash preferred, else sorted)."""
        kinds = self._indexes.get(column.lower())
        if not kinds:
            return None
        return kinds.get("hash") or kinds.get("sorted")

    def sorted_index_for(self, column: str) -> SortedIndex | None:
        """The column's sorted index, when one exists."""
        kinds = self._indexes.get(column.lower())
        if not kinds:
            return None
        return kinds.get("sorted")

    def _iter_indexes(self):
        for kinds in self._indexes.values():
            yield from kinds.values()

    def lookup(self, column: str, value: object) -> list[dict[str, object]]:
        """Equality lookup, via index when available, else a scan."""
        index = self.index_for(column)
        canonical = self._schema.column(column).name
        if index is not None:
            return [self.get(row_id) for row_id in sorted(index.lookup(value))]
        return [row for _, row in self.scan() if row[canonical] == value]

    # -- mutation -------------------------------------------------------------
    #
    # One unlogged method per mutation kind (``place_rows`` / ``apply_update``
    # / ``apply_delete``) applies it and returns what undoing it needs; each
    # has an undo (``unplace_rows`` / ``undo_update`` / ``place_rows``).
    # :meth:`Database.apply_batch` wraps many of them in one WAL record.

    def prepare_rows(self, rows) -> list[dict[str, object]]:
        """Coerce ``rows`` and check every unique index; applies nothing.

        Duplicates are caught against the table and among ``rows``
        themselves, so a caller that prepares before placing applies either
        every row or none.
        """
        coerced = [self._schema.coerce_row(row) for row in rows]
        for index in self._iter_indexes():
            if not index.unique:
                continue
            seen: set = set()
            for row in coerced:
                value = row[index.column]
                if value is None:
                    continue
                if value in seen or index.lookup(value):
                    raise IntegrityError(
                        f"duplicate value {value!r} for unique column "
                        f"{index.column!r} of table {self.name!r}"
                    )
                seen.add(value)
        return coerced

    def place_rows(self, first_row_id: int, rows: list[dict[str, object]]) -> None:
        """Install prepared rows at consecutive ids from ``first_row_id``.

        One pin per heap page touched and one version bump for the call;
        never logged.  Recovery places logged rows at their original ids
        (indexes and session references point at row ids, so they must stay
        stable); the next-id counter advances past them.
        """
        self._store_slots(first_row_id, rows)
        for index in self._iter_indexes():
            column = index.column
            for offset, row in enumerate(rows):
                index.insert(row[column], first_row_id + offset)
        self._next_row_id = max(self._next_row_id, first_row_id + len(rows))
        self._stats_cache = None
        self.version += 1

    def unplace_rows(self, first_row_id: int, rows: list[dict[str, object]]) -> None:
        """Undo :meth:`place_rows`.  The row ids stay consumed — ids are
        never reused anyway."""
        for offset, row in enumerate(rows):
            self._unindex(first_row_id + offset, row)
            self._discard_slot(first_row_id + offset)
        self._stats_cache = None

    def restore_rows(self, first_row_id: int, columns: list[str], value_lists) -> None:
        """Recovery: re-place the rows of one batch-record insert entry."""
        coerce = self._schema.coerce_row
        self.place_rows(
            first_row_id, [coerce(dict(zip(columns, values))) for values in value_lists]
        )

    def restore_counters(
        self, next_row_id: int, version: int, schema_version: int
    ) -> None:
        """Overwrite the change counters with snapshotted values (recovery)."""
        self._next_row_id = max(self._next_row_id, next_row_id)
        self.version = version
        self.schema_version = schema_version

    def _unindex(self, row_id: int, row: dict) -> None:
        for index in self._iter_indexes():
            index.delete(row[index.column], row_id)

    def apply_delete(self, row_id: int) -> dict | None:
        """Remove a row without logging; returns it (None when absent)."""
        row = self._discard_slot(row_id)
        if row is None:
            return None
        self._unindex(row_id, row)
        self._stats_cache = None
        self.version += 1
        return row

    def apply_update(
        self, row_id: int, changes: dict[str, object]
    ) -> tuple[dict, dict] | None:
        """Update a row without logging.

        Returns ``(old_row, changed)`` — the row before the update and the
        coerced new values keyed by canonical column name — or None when the
        row is absent.  A unique-index violation raises before anything is
        touched.
        """
        row = self.get(row_id)
        if row is None:
            return None
        changed = {self._schema.column(k).name: v for k, v in changes.items()}
        updated = dict(row)
        updated.update(changed)
        coerced = self._schema.coerce_row(updated)
        for index in self._iter_indexes():
            new_value = coerced[index.column]
            if (
                index.unique
                and new_value is not None
                and new_value != row[index.column]
                and index.lookup(new_value)
            ):
                raise IntegrityError(
                    f"duplicate value {new_value!r} for unique column "
                    f"{index.column!r} of table {self.name!r}"
                )
        self._repoint(row_id, row, coerced)
        self._store_slots(row_id, [coerced])
        self._stats_cache = None
        self.version += 1
        return row, {column: coerced[column] for column in changed}

    def undo_update(self, row_id: int, old_row: dict) -> None:
        self._repoint(row_id, self.get(row_id), old_row)
        self._store_slots(row_id, [old_row])
        self._stats_cache = None

    def _repoint(self, row_id: int, old_row: dict, new_row: dict) -> None:
        """Move ``row_id`` between index keys wherever a value changed."""
        for index in self._iter_indexes():
            old_value = old_row[index.column]
            new_value = new_row[index.column]
            if old_value != new_value:
                index.delete(old_value, row_id)
                index.insert(new_value, row_id)

    # -- schema evolution ------------------------------------------------------

    def _rewrite_pages(self, mutate_row) -> None:
        """Apply ``mutate_row(row)`` to every row, page by page, under pins."""
        for ordinal in sorted(self._page_ids):
            page_id = self._page_ids[ordinal]
            page = self._store.fetch(page_id, HEAP_PAGE_CODEC)
            try:
                for row in page.values():
                    mutate_row(row)
                self._store.mark_dirty(page_id)
            finally:
                self._store.unpin(page_id)

    def add_column(self, column: ColumnSchema, default: object = None) -> None:
        if column.not_null and default is None and self._row_count:
            raise SchemaError(
                f"cannot add NOT NULL column {column.name!r} without a default"
            )
        self._schema = self._schema.with_column_added(column)
        fill = column.coerce(default) if default is not None else None

        def mutate(row, name=column.name, value=fill):
            row[name] = value

        self._rewrite_pages(mutate)
        self._stats_cache = None
        self._bump(schema=True)

    def drop_column(self, name: str) -> None:
        canonical = self._schema.column(name).name
        kinds = self._indexes.pop(canonical.lower(), None)
        if kinds is not None:
            for index in kinds.values():
                index.drop()
        self._schema = self._schema.with_column_dropped(name)

        def mutate(row, name=canonical):
            row.pop(name, None)

        self._rewrite_pages(mutate)
        self._stats_cache = None
        self._bump(schema=True)

    def rename_column(self, old: str, new: str) -> None:
        canonical = self._schema.column(old).name
        self._schema = self._schema.with_column_renamed(old, new)
        new_canonical = self._schema.column(new).name

        def mutate(row, old_name=canonical, new_name=new_canonical):
            row[new_name] = row.pop(old_name)

        self._rewrite_pages(mutate)
        kinds = self._indexes.pop(canonical.lower(), None)
        if kinds is not None:
            for index in kinds.values():
                index.column = new_canonical
            self._indexes[new_canonical.lower()] = kinds
        self._stats_cache = None
        self._bump(schema=True)

    def rename(self, new_name: str) -> None:
        self._schema = self._schema.renamed(new_name)
        self._bump(schema=True)

    # -- statistics -------------------------------------------------------------

    def statistics(self, refresh: bool = False) -> TableStatistics:
        """Table statistics; cached until the next mutation."""
        if self._stats_cache is None or refresh:
            self._stats_cache = TableStatistics.compute(self.name, self.rows())
            if refresh:
                # An explicit refresh changes the planner's costing inputs;
                # let cached plans re-validate against the new snapshot.
                self.version += 1
        return self._stats_cache

    @property
    def cached_statistics(self) -> TableStatistics | None:
        """The statistics snapshot if still fresh, without recomputing.

        The planner consults this so planning never pays for a full statistics
        build on a hot path; stale or absent statistics fall back to cheap
        row-count and index-cardinality estimates.
        """
        return self._stats_cache
