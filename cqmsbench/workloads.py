"""The two closed-loop CQMS workloads and the harness that times them.

Every workload is one client in one process, no threads: the CQMS API is
synchronous and each caller waits for its reply, so the loop sends the next
operation only after the previous one returned.  Inputs come from the seed
alone; the program only ever sees the generated SQL, keywords and values.

* ``ingest_durable`` replays a limnology log (8 users, 3 groups) through
  ``CQMS.submit`` into a durable Query Storage (``wal_sync="batch"``, 1024
  buffer-pool pages), then runs a fixed set of reads, closes the store and
  times one reopen.  Write-only while replaying; the meta-database outgrows
  the page pool, so evictions and writebacks happen.  A run does this once
  per ``ROUND_SECONDS`` of ``--seconds``, each round with a log of its own
  (drawn from the seed) on a fresh store, so that its samples span the run.
* ``explore_mixed`` is an in-memory CQMS with 128 users in 16 groups.  Set-up
  replays the first half of a limnology log and mines once; the timed loop is
  a seeded mix of assist, recommend, four kinds of search and submits of the
  log's second half, with a miner pass and a metrics scrape every 150
  operations.

The in-memory workload gets a restart probe: before the timed loop,
``PROBE_EVENTS`` events go into a fresh durable store, which is closed; the
loop reopens it ``PROBE_REOPENS`` times, spread among its other operations.
That gives it a ``reopen_s`` and WAL figures without putting logging I/O
into the rest of its loop.  The probe's log comes from ``PROBE_SEED`` on
every run: over ten seeds a 200-event log's store took 2.1 to 3.2 MB and
its reopen time moved with it, so a log that followed ``--seed`` would hide
a change to the reopen path behind the draw.

While an untraced pass runs, the host-speed kernel (``hostspeed.py``) runs
on a timer; the harness takes its time out of every operation's and scales
each operation's time to the reference host from the kernel times in and
around it.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import random
import re
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass

from repro import CQMS, CQMSConfig, SimulatedClock, build_database
from repro.core.meta_query import DataCondition
from repro.errors import ReproError
from repro.workloads import QueryLogGenerator, WorkloadConfig
from repro.workloads.schemas import CITY_NAMES, LAKE_NAMES

from hostspeed import HostMeter

SUBMIT = "submit"
ASSIST = "assist"
RECOMMEND = "recommend"
SEARCH = "search"
MINER = "miner"
SCRAPE = "scrape"
REOPEN = "reopen"
#: Durable submits of the restart probe (kept out of the submit metrics).
PROBE_SUBMIT = "probe_submit"

SEARCH_KINDS = ("keyword", "feature_sql", "by_data", "knn")

#: A full garbage collection runs after this many operations, outside every
#: timed call (automatic full collections are switched off; see
#: :func:`control_gc`).
GC_EVERY = 150
#: Events the restart probe of an in-memory workload logs durably, and the
#: seed of their log (the same on every run; see the module docstring).
PROBE_EVENTS = 200
PROBE_SEED = 0
PROBE_REOPENS = 10
#: The reads that follow each replay of ingest_durable: this many each of
#: assist, recommend and search, shuffled, with MINER_PASSES miner passes
#: spread among them.
READS_EACH = 100
MINER_PASSES = 3
#: Metrics scrapes spread through each replay of ingest_durable.  A scrape
#: reads counters only, so the replay still touches the store with writes
#: alone, and the scrape samples span the whole replay.
SCRAPES = 40

#: Both workloads run over the limnology user database at scale 1.
DOMAIN = "limnology"
#: Values that occur in that database, for query-by-data.
DATA_VALUES = [name for name, _ in CITY_NAMES] + ["WA", "OR", "MI"] + LAKE_NAMES

_CUT = re.compile(r" (?:WHERE|GROUP BY|ORDER BY) ")
_TABLE = re.compile(r"\b[A-Z][a-z]+[A-Za-z]*\b")
_COLUMN = re.compile(r"\.([a-z_]+)\b")


def control_gc() -> None:
    """Keep full collections out of timed calls.

    Young-generation collections stay automatic (they are short and spread
    evenly); the full collection, whose cost grows with the heap and which
    otherwise lands inside a random operation, runs only where the harness
    calls :meth:`Harness.collect`.
    """
    gc.set_threshold(700, 10, 1_000_000_000)


@dataclass
class Op:
    """One operation of the closed loop."""

    kind: str
    user: str
    text: str = ""
    search: str | None = None
    value: object = None
    timestamp: float = 0.0


class OutputError(Exception):
    """An operation returned a result that contradicts its inputs."""


class Harness:
    """Times operations, counts failures and folds results into a digest."""

    def __init__(self, meter: HostMeter):
        #: (kind, start, end, seconds, failed) of every operation, in
        #: order; ``seconds`` leaves out the host-speed kernel's runs.
        self.ops: list[tuple[str, float, float, float, bool]] = []
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.failed_submits = 0
        self.digest = hashlib.sha256()
        self.tracer = None
        #: Seconds spent inside operations, failed ones included.
        self.op_seconds = 0.0
        self.scrape_series = 0
        #: WAL and buffer-pool deltas summed over durable submits.
        self.durable = defaultdict(int)

    def call(self, kind: str, function):
        """Run one operation; returns its result, or None when it failed."""
        tracer = self.tracer
        self.attempted += 1
        failed = False
        result = None
        if tracer is not None:
            tracer.begin_op(kind)
        kernel_before = self.meter.spent
        start = time.perf_counter()
        try:
            result = function()
        except ReproError:
            failed = True
        finally:
            end = time.perf_counter()
            elapsed = end - start - (self.meter.spent - kernel_before)
            if tracer is not None:
                tracer.end_op()
            self.op_seconds += elapsed
        if kind in (SUBMIT, PROBE_SUBMIT) and not failed and result.error is not None:
            failed = True
        if failed:
            self.failed += 1
            if kind in (SUBMIT, PROBE_SUBMIT):
                self.failed_submits += 1
        self.ops.append((kind, start, end, elapsed, failed))
        self.fold(kind, None if failed else result)
        return None if failed else result

    def count(self, kind: str) -> int:
        return sum(1 for op_kind, *_ in self.ops if op_kind == kind)

    def fold(self, kind: str, result) -> None:
        """Add what an operation returned to the run's result digest."""
        if result is None:
            item = (kind, "failed")
        elif kind in (SUBMIT, PROBE_SUBMIT):
            cardinality = result.result.stats.result_cardinality if result.result else None
            item = (kind, result.record.qid, cardinality)
        elif kind == ASSIST:
            item = (
                kind,
                sorted((name, len(found)) for name, found in result.completions.items()),
                len(result.corrections),
                [rec.record.qid for rec in result.similar_queries],
            )
        elif kind == RECOMMEND:
            item = (kind, [rec.record.qid for rec in result])
        elif kind == SEARCH:
            item = (kind, [record.qid for record in result])
        elif kind == MINER:
            item = (kind, result.num_queries, result.num_sessions, result.num_rules)
        elif kind == REOPEN:
            item = (kind, len(result.store))
        else:  # a scrape holds timings, which differ run to run
            return
        self.digest.update(repr(item).encode())

    def collect(self) -> None:
        """A full garbage collection, outside every timed operation."""
        gc.collect()


# -- inputs --------------------------------------------------------------------


def generate_log(users: int, groups: int, events: int, seed: int) -> list:
    """Exactly ``events`` generated events (the earliest ones of a longer log)."""
    sessions = events // 4 + 20
    while True:
        log = QueryLogGenerator(
            WorkloadConfig(
                domain=DOMAIN,
                num_users=users,
                num_groups=groups,
                num_sessions=sessions,
                seed=seed,
            )
        ).generate()
        if len(log) >= events:
            return log[:events]
        sessions += sessions // 4


def partial_query(sql: str) -> str:
    """The query as typed so far: cut before WHERE (or GROUP BY / ORDER BY)."""
    return _CUT.split(sql, maxsplit=1)[0]


def submit_op(event) -> Op:
    return Op(SUBMIT, event.user, event.sql, timestamp=event.timestamp)


class ReadOps:
    """Builds assist, recommend and search ops from random logged events.

    Search kinds rotate in a fixed order, and the event behind each op comes
    from the next information goal in rotation.  Every seed then has the same
    share of each search kind and of each goal among the reads, so the read
    percentiles do not move with the seed's draw of the mix.
    """

    def __init__(self, rng: random.Random, log: list):
        self.rng = rng
        self.searches = itertools.cycle(SEARCH_KINDS)
        self.by_goal: dict[str, list] = defaultdict(list)
        for event in log:
            self.by_goal[event.goal].append(event)
        self.goals = itertools.cycle(sorted(self.by_goal))

    def next(self, kind: str) -> Op:
        rng = self.rng
        event = rng.choice(self.by_goal[next(self.goals)])
        if kind == ASSIST:
            return Op(ASSIST, event.user, partial_query(event.sql))
        if kind == RECOMMEND:
            return Op(RECOMMEND, event.user, event.sql)
        return self._search(next(self.searches), event)

    def _search(self, search: str, event) -> Op:
        rng = self.rng
        if search == "keyword":
            words = [rng.choice(_TABLE.findall(partial_query(event.sql)))]
            columns = _COLUMN.findall(event.sql)
            if columns:
                words.append(rng.choice(columns))
            return Op(SEARCH, event.user, " ".join(words), search=search)
        if search == "feature_sql":
            return Op(SEARCH, event.user, partial_query(event.sql), search=search)
        if search == "by_data":
            return Op(SEARCH, event.user, search=search, value=rng.choice(DATA_VALUES))
        return Op(SEARCH, event.user, event.sql, search=search)


def replay_reads(rng: random.Random, log: list) -> list[Op]:
    """READS_EACH each of assist, recommend and search, shuffled, with
    MINER_PASSES miner passes spread among them."""
    reads = ReadOps(rng, log)
    kinds = [ASSIST, RECOMMEND, SEARCH] * READS_EACH
    rng.shuffle(kinds)
    return spread([reads.next(kind) for kind in kinds], [Op(MINER, "")] * MINER_PASSES)


def spread(base: list[Op], extra: list[Op]) -> list[Op]:
    """``base`` with ``extra`` placed evenly among it, both in order."""
    placed = [(index / len(base), op) for index, op in enumerate(base)]
    placed += [((index + 0.5) / len(extra), op) for index, op in enumerate(extra)]
    placed.sort(key=lambda pair: pair[0])
    return [op for _, op in placed]


# -- running operations ----------------------------------------------------------


def perform(cqms: CQMS, op: Op):
    """Issue one operation through the CQMS's public API."""
    if op.kind == SUBMIT:
        return cqms.submit(op.user, op.text, timestamp=op.timestamp)
    if op.kind == ASSIST:
        return cqms.assist(op.user, op.text)
    if op.kind == RECOMMEND:
        return cqms.recommend(op.user, op.text)
    if op.kind == MINER:
        return cqms.run_miner()
    if op.kind == SCRAPE:
        return cqms.metrics_text()
    if op.search == "keyword":
        return cqms.search_keyword(op.user, op.text)
    if op.search == "feature_sql":
        return cqms.search_like_partial(op.user, op.text)
    if op.search == "by_data":
        return cqms.search_by_data(op.user, DataCondition(include_values=[op.value]))
    return cqms.similar_queries(op.user, op.text)


def check_search(cqms: CQMS, op: Op, records) -> None:
    """Every search hit is visible to its user and satisfies the search."""
    for record in records:
        if not cqms.access_control.can_see(op.user, record):
            raise OutputError(f"{op.search} search returned invisible query {record.qid}")
        if op.search == "keyword":
            haystack = (record.text + " " + " ".join(record.annotations)).lower()
            if not all(word.lower() in haystack for word in op.text.split()):
                raise OutputError(f"keyword search hit {record.qid} lacks {op.text!r}")
        elif op.search == "by_data":
            if record.output is None or not record.output.contains_value(op.value):
                raise OutputError(f"query-by-data hit {record.qid} lacks {op.value!r}")


def durable_counts(cqms: CQMS) -> tuple[int, ...]:
    wal, pool = cqms.store.wal_stats(), cqms.store.buffer_stats()
    return (wal.records, wal.bytes_written, wal.syncs, pool.evictions, pool.writebacks)


DURABLE_COUNTS = ("wal_records", "wal_bytes", "wal_syncs", "evictions", "writebacks")


def run_op(harness: Harness, cqms: CQMS, op: Op, kind: str | None = None):
    """Run one op, check its output, and return its result (None if it failed).

    ``kind`` overrides the op's kind in the harness.  When tracing, a submit
    into a durable store also adds its WAL and buffer-pool deltas (read
    outside the timed call) to ``harness.durable``.
    """
    if op.kind == SUBMIT and op.timestamp > cqms.clock.now:
        cqms.clock.set(op.timestamp)
    durable = harness.tracer is not None and op.kind == SUBMIT and cqms.store.is_durable
    if durable:
        before = durable_counts(cqms)
    result = harness.call(kind or op.kind, lambda: perform(cqms, op))
    if durable:
        for name, old, new in zip(DURABLE_COUNTS, before, durable_counts(cqms)):
            harness.durable[name] += new - old
        harness.durable["submits"] += 1
    if result is None:
        return None
    if op.kind == SEARCH:
        check_search(cqms, op, result)
    elif op.kind == SCRAPE:
        harness.scrape_series = sum(
            1 for line in result.splitlines() if line and not line.startswith("#")
        )
    return result


def relation_counts(cqms: CQMS) -> dict[str, int]:
    meta = cqms.store.meta_database
    return {name: len(meta.table(name)) for name in meta.table_names()}


@dataclass
class ClosedStore:
    """A closed durable Query Storage and what a reopen must restore."""

    data_dir: str
    counts: dict[str, int]
    qids: list[int]
    size_bytes: int


def close_store(cqms: CQMS, data_dir: str) -> ClosedStore:
    counts = relation_counts(cqms)
    qids = [record.qid for record in cqms.store.all_queries()]
    cqms.close()
    stored = sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(data_dir)
        for name in names
    )
    return ClosedStore(data_dir, counts, qids, stored)


def reopen_and_check(harness: Harness, store: ClosedStore) -> None:
    """Time one reopen of a closed durable store and check it restored every
    qid with the same per-relation row counts.

    The user database the reopened CQMS runs over is built before the timed
    call, so no store keeps one alive between reopens.
    """
    clock = SimulatedClock()
    db = build_database(DOMAIN, scale=1, clock=clock)
    harness.collect()
    reopened = harness.call(
        REOPEN,
        lambda: CQMS(db, config=CQMSConfig(data_dir=store.data_dir), clock=clock),
    )
    if reopened is None:
        raise OutputError("reopening the durable store failed")
    try:
        if [record.qid for record in reopened.store.all_queries()] != store.qids:
            raise OutputError("reopen did not restore every logged qid")
        if relation_counts(reopened) != store.counts:
            raise OutputError("reopen changed per-relation row counts")
    finally:
        reopened.close()


# -- workloads -------------------------------------------------------------------


@dataclass
class State:
    """What a workload's set-up built."""

    cqms: CQMS
    db: object
    log: list
    ops: list[Op]
    data_dir: str | None = None
    #: The closed durable store the REOPEN ops reopen.
    closed: ClosedStore | None = None


class Workload:
    name = ""
    #: Set-ups and timed loops per run; the metrics pool every round.
    rounds = 1
    #: Identical set-ups per round of an untraced run, the last one kept;
    #: setup_s is the median of all of them.
    setups = 3

    def __init__(self, seed: int, seconds: int, scratch: str):
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch

    def setup(self, harness: Harness, round_index: int) -> State:
        raise NotImplementedError

    def _cqms(self, db, clock, log, data_dir=None, users: int = 0, groups: int = 1) -> CQMS:
        """A CQMS with every user of ``log`` registered, plus any of the
        generator's ``users`` who never submitted (named and grouped the way
        the generator names them)."""
        cqms = CQMS(db, config=CQMSConfig(data_dir=data_dir), clock=clock)
        for event in log:
            if not cqms.access_control.has_principal(event.user):
                cqms.register_user(event.user, event.group)
        for index in range(users):
            user = f"user{index + 1:02d}"
            if not cqms.access_control.has_principal(user):
                cqms.register_user(user, f"group{index % groups + 1}")
        return cqms

    def prepare(self, harness: Harness, state: State) -> None:
        """Build the restart probe of an in-memory workload (see the module
        docstring).  It gets a user database of its own, so reopening it
        leaves the workload's telemetry attachment alone."""
        clock = SimulatedClock()
        db = build_database(DOMAIN, scale=1, clock=clock)
        data_dir = tempfile.mkdtemp(prefix="probe-", dir=self.scratch)
        events = generate_log(users=8, groups=3, events=PROBE_EVENTS, seed=PROBE_SEED)
        probe = self._cqms(db, clock, events, data_dir=data_dir)
        for event in events:
            run_op(harness, probe, submit_op(event), kind=PROBE_SUBMIT)
        state.closed = close_store(probe, data_dir)

    def timed_loop(self, harness: Harness, state: State) -> None:
        """Run the timed operations."""
        for index, op in enumerate(state.ops, start=1):
            if op.kind == REOPEN:
                reopen_and_check(harness, state.closed)
            else:
                run_op(harness, state.cqms, op)
            if index % GC_EVERY == 0:
                harness.collect()

    def restart(self, harness: Harness, state: State) -> ClosedStore:
        """The durable store whose size per query is reported."""
        return state.closed

    @staticmethod
    def with_reopens(ops: list[Op]) -> list[Op]:
        """``ops`` with the probe's reopens spread among them, so that their
        samples span the run like every other operation's."""
        return spread(ops, [Op(REOPEN, "") for _ in range(PROBE_REOPENS)])


class IngestDurable(Workload):
    name = "ingest_durable"
    EVENTS = 2000
    #: Each round replays a log of its own, drawn from the seed, into a
    #: fresh store and reopens it; a run makes one round per ROUND_SECONDS
    #: of --seconds.  The meta-database's size, and with it the submit and
    #: reopen times, moves with the log, so every extra log in a run
    #: narrows the spread between seeds.
    ROUND_SECONDS = 10
    #: Set-up here is short (no replay), so it repeats more often.
    setups = 9

    @property
    def rounds(self) -> int:
        return max(1, self.seconds // self.ROUND_SECONDS)

    def setup(self, harness: Harness, round_index: int) -> State:
        clock = SimulatedClock()
        db = build_database(DOMAIN, scale=1, clock=clock)
        seed = self.seed * 100 + round_index
        log = generate_log(users=8, groups=3, events=self.EVENTS, seed=seed)
        data_dir = tempfile.mkdtemp(prefix="ingest-", dir=self.scratch)
        cqms = self._cqms(db, clock, log, data_dir=data_dir)
        # The reads follow the replay, so the replay stays write-only.
        replay = spread([submit_op(event) for event in log], [Op(SCRAPE, "")] * SCRAPES)
        ops = replay + replay_reads(random.Random(seed), log)
        return State(cqms=cqms, db=db, log=log, ops=ops, data_dir=data_dir)

    def prepare(self, harness: Harness, state: State) -> None:
        """The workload's own store is the durable one: no probe."""

    def restart(self, harness: Harness, state: State) -> ClosedStore:
        state.closed = close_store(state.cqms, state.data_dir)
        reopen_and_check(harness, state.closed)
        return state.closed


class ExploreMixed(Workload):
    name = "explore_mixed"
    USERS = 128
    GROUPS = 16
    EVENTS = 2100
    #: Timed operations per second of --seconds.
    OPS_PER_SECOND = 150
    #: Weights of the seeded mix (assist, recommend, search, submit).
    MIX = ((ASSIST, 30), (RECOMMEND, 15), (SEARCH, 30), (SUBMIT, 20))
    MINER_EVERY = 150

    def setup(self, harness: Harness, round_index: int) -> State:
        clock = SimulatedClock()
        db = build_database(DOMAIN, scale=1, clock=clock)
        log = generate_log(users=self.USERS, groups=self.GROUPS, events=self.EVENTS, seed=self.seed)
        half = len(log) // 2
        cqms = self._cqms(db, clock, log, users=self.USERS, groups=self.GROUPS)
        for event in log[:half]:
            run_op(harness, cqms, submit_op(event))
        cqms.run_miner()
        rng = random.Random(self.seed)
        reads = ReadOps(rng, log)
        pending = [submit_op(event) for event in log[half:]]
        pending.reverse()
        kinds = [kind for kind, _ in self.MIX]
        weights = [weight for _, weight in self.MIX]
        ops: list[Op] = []
        for index in range(1, self.OPS_PER_SECOND * self.seconds + 1):
            kind = rng.choices(kinds, weights)[0]
            if kind == SUBMIT and pending:
                ops.append(pending.pop())
            else:
                ops.append(reads.next(kind if kind != SUBMIT else SEARCH))
            if index % self.MINER_EVERY == 0:
                ops.append(Op(MINER, ""))
                ops.append(Op(SCRAPE, ""))
        return State(cqms=cqms, db=db, log=log, ops=self.with_reopens(ops))


WORKLOADS = {cls.name: cls for cls in (IngestDurable, ExploreMixed)}
