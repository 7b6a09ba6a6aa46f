"""Spans recorded from outside the program, around each layer's entry points.

The traced run replaces the public entry points of the ``repro`` modules
with thin wrappers.  A wrapper records one span (name, start, end, parent)
while an operation is open and calls straight through otherwise.  Functions
are replaced in every ``repro`` module namespace that bound them by name
(``repro.core.profiler`` imports ``parse`` into its own namespace, so
wrapping ``repro.sql.parser.parse`` alone would miss it).  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` restores every original.

A layer's self time is its span time minus the time of its direct child
spans.  Every span nests inside the operation's root span, so the self
times of all spans of an operation add up to the root's duration; the
root's own self time is the part no layer accounts for.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import repro.core.profiler
from repro.core.access_control import AccessControl
from repro.core.completion import CompletionEngine
from repro.core.correction import CorrectionEngine
from repro.core.meta_query import MetaQueryExecutor
from repro.core.miner import QueryMiner
from repro.core.profiler import QueryProfiler
from repro.core.query_store import QueryStore
from repro.core.recommender import QueryRecommender
from repro.core.sessions import SessionDetector
from repro.mining.association_rules import mine_rules
from repro.mining.clustering import k_medoids
from repro.obs.admission import AdmissionController
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import EngineTelemetry
from repro.sql.canonicalize import canonical_text
from repro.sql.features import extract_features
from repro.sql.parser import parse
from repro.storage.database import Database
from repro.storage.statistics import summarize_output
from repro.storage.wal import WalWriter

#: The Query Storage names its meta-database; every other Database is a
#: user database.
META_DB_NAME = "query_storage"

#: Methods wrapped on their class: (class, attribute, span name).  A span
#: name of None means "user or meta database, by instance" (DATABASE_ENGINES).
METHOD_LAYERS = (
    (AdmissionController, "admit", "admission.admit"),
    (QueryProfiler, "profile", "profiler.profile"),
    (Database, "execute", None),
    (Database, "insert_rows", None),
    (Database, "open", "recovery.metadb_open"),
    # The store's own open work is rebuilding its record index.
    (QueryStore, "__init__", "recovery.index_rebuild"),
    (QueryStore, "add", "query_store.add"),
    (QueryStore, "next_qid", "query_store.next_qid"),
    (QueryStore, "record_sessions", "query_store.record_sessions"),
    (WalWriter, "append", "wal.append"),
    (WalWriter, "flush", "wal.flush"),
    (MetaQueryExecutor, "keyword_search", "meta_query.keyword"),
    (MetaQueryExecutor, "find_queries_like_partial", "meta_query.feature_sql"),
    (MetaQueryExecutor, "by_data", "meta_query.by_data"),
    (MetaQueryExecutor, "knn_candidates", "meta_query.knn"),
    (AccessControl, "visible_queries", "access_control.visible"),
    (CompletionEngine, "suggest", "completion.suggest"),
    (CompletionEngine, "refresh", "completion.refresh"),
    (CorrectionEngine, "correct_names", "correction.correct_names"),
    (QueryRecommender, "recommend", "recommender.recommend"),
    (QueryMiner, "run", "miner.run"),
    (SessionDetector, "detect", "sessions.detect"),
    (MetricsRegistry, "render", "metrics.render"),
    (EngineTelemetry, "sync_engine", "telemetry.sync"),
)

#: Functions wrapped wherever a ``repro`` module bound them by name.
FUNCTION_LAYERS = (
    (parse, "sql.parse"),
    (extract_features, "sql.features"),
    (canonical_text, "sql.canonicalize"),
    (summarize_output, "statistics.summarize_output"),
    (mine_rules, "mining.rules"),
    (k_medoids, "mining.clustering"),
)


DATABASE_ENGINES = ("userdb", "metadb")


def _database_layer(database: Database, method: str) -> str:
    engine = "metadb" if database.name == META_DB_NAME else "userdb"
    return f"{engine}.{method}"


def layer_names() -> list[str]:
    """Every span name a wrapper can record, in table order."""
    names = []
    for _, attribute, name in METHOD_LAYERS:
        if name is None:
            names += [f"{engine}.{attribute}" for engine in DATABASE_ENGINES]
        else:
            names.append(name)
    return names + [name for _, name in FUNCTION_LAYERS]


class Tracer:
    """Collects spans in memory for the operations the harness opens."""

    def __init__(self):
        #: (op_id, span_id, parent_id, name, start, end); parent None = root.
        self.spans: list[tuple] = []
        #: Operation kind per op id.
        self.op_kinds: list[str] = []
        #: Counts recorded at the same boundaries as the spans.
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op: int | None = None
        self._op_start = 0.0
        self._next_id = 0
        self._restore: list = []

    # -- operations -----------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        """Open the root span of one operation the harness times."""
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        self._stack = [self._open()]
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        self.spans.append((self._op, self._stack[0], None, "op", self._op_start, end))
        self._op = None
        self._stack = []

    def _open(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, function, name, counter=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return function(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args[0])
            stack = tracer._stack
            parent = stack[-1]
            span_id = tracer._open()
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(
                    (tracer._op, span_id, parent, span_name, start, end)
                )
            if counter is not None:
                counter(span_name, args, result)
            return result

        return wrapper

    def _count_database(self, span_name, args, result) -> None:
        if self.op_kinds[self._op] != "submit":
            return
        if span_name == "userdb.execute":
            self.counts["userdb.rows_scanned"] += result.stats.rows_scanned
            self.counts["userdb.rows_returned"] += result.stats.result_cardinality
        elif span_name == "metadb.insert_rows":
            self.counts["metadb.rows"] += result

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per Tracer)."""
        if self._restore:
            return
        for cls, attribute, name in METHOD_LAYERS:
            original = cls.__dict__[attribute]
            counter = None
            if name is None:
                name = functools.partial(_database_layer, method=attribute)
                counter = self._count_database
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name))
            else:
                wrapped = self._wrap(original, name, counter)
            setattr(cls, attribute, wrapped)
            self._restore.append((cls, attribute, original))
        # Keyed by id: the originals stay alive in FUNCTION_LAYERS.
        wrappers = {
            id(function): self._wrap(function, name)
            for function, name in FUNCTION_LAYERS
        }
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attribute, wrappers[id(value)])
                    self._restore.append((module, attribute, value))
        if repro.core.profiler.parse is parse:
            raise RuntimeError("the profiler's parse was not wrapped")

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore = []

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float, float]:
        """Self seconds per span name, plus root self and root total seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        layers: dict[str, float] = defaultdict(float)
        root_self = root_total = 0.0
        for _, span_id, parent, name, start, end in self.spans:
            own = (end - start) - child_time.get(span_id, 0.0)
            if parent is None:
                root_self += own
                root_total += end - start
            else:
                layers[name] += own
        return dict(layers), root_self, root_total

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines (times in microseconds)."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with gzip.open(path, "wt") as handle:
            for op_id, span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "op": op_id,
                            "kind": self.op_kinds[op_id],
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start_us": round((start - origin) * 1e6, 1),
                            "dur_us": round((end - start) * 1e6, 1),
                        }
                    )
                    + "\n"
                )
