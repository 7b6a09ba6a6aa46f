"""Crash-recovery smoke test: SIGKILL a writing process, reopen, verify.

This is the end-to-end version of the property the unit tests prove byte by
byte, run twice.  First a *real* child process appends rows under
``wal_sync="commit"``, acknowledging each durable insert through an
atomically-replaced progress file; the parent SIGKILLs it mid-write, reopens
the ``data_dir`` (the dead child's flock was released by the kernel), and
verifies that

* every acknowledged row survived (the ``commit`` policy's contract),
* at most one unacknowledged in-flight row appears beyond that,
* the recovered table and its indexes agree (point lookups work).

Then a child replays a generated query log through ``CQMS.submit`` into a
durable Query Storage (``wal_sync="commit"``), acknowledging each logged
qid, and is SIGKILLed mid-replay.  The parent replays the same log in memory
for the expected per-relation row counts of every qid and verifies that
every acknowledged qid is whole in every feature relation, that no qid is
partial, and that the durable qid high-water mark covers every survivor.

Run directly (CI does)::

    PYTHONPATH=src python benchmarks/recovery_smoke.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time

ACK_FILE = "acknowledged"
TARGET_ACKS = 200
#: Logged queries the Query Storage child acknowledges before it is killed
#: (its log is longer, so the kill lands mid-replay).
STORE_TARGET_ACKS = 60
STORE_EVENTS = 400
KILL_TIMEOUT_SECONDS = 60.0
#: The Query Storage relations every logged query is shredded into.
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


def acknowledge(data_dir: str, count: int) -> None:
    """Durably publish ``count``; replaced atomically so the parent never
    reads a torn value."""
    ack_path = os.path.join(data_dir, ACK_FILE)
    tmp_path = ack_path + ".tmp"
    with open(tmp_path, "w") as handle:
        handle.write(str(count))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, ack_path)


def child(data_dir: str) -> None:
    """Insert rows forever, acknowledging each durable commit."""
    from repro.storage.database import Database

    db = Database.open(data_dir, wal_sync="commit")
    if not db.has_table("events"):
        db.execute("CREATE TABLE events (id INTEGER PRIMARY KEY, payload TEXT)")
        db.execute("CREATE INDEX events_payload ON events (payload)")
    i = 0
    while True:
        db.execute(f"INSERT INTO events (id, payload) VALUES ({i}, 'p{i % 13}')")
        # The insert is fsynced (wal_sync="commit"): acknowledge it.
        acknowledge(data_dir, i + 1)
        i += 1


def kill_after_acks(mode: str, data_dir: str, target: int) -> int:
    """Run ``--<mode> data_dir`` in a child, SIGKILL it once it has
    acknowledged ``target`` units; returns the final acknowledged count."""
    ack_path = os.path.join(data_dir, ACK_FILE)
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), f"--{mode}", data_dir],
        env=dict(os.environ),
    )
    try:
        deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
        acknowledged = 0
        while acknowledged < target:
            if process.poll() is not None:
                raise SystemExit(
                    f"{mode} exited early with code {process.returncode}"
                )
            if time.monotonic() > deadline:
                raise SystemExit(
                    f"{mode} acknowledged only {acknowledged} of {target} in "
                    f"{KILL_TIMEOUT_SECONDS}s"
                )
            try:
                with open(ack_path) as handle:
                    acknowledged = int(handle.read().strip() or 0)
            except (FileNotFoundError, ValueError):
                pass
            time.sleep(0.01)
        # Kill the writer with no chance to clean up: the WAL tail may be
        # torn, and only the kernel releases its flock.
        os.kill(process.pid, signal.SIGKILL)
        process.wait()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    with open(ack_path) as handle:
        return int(handle.read().strip())


def parent() -> int:
    data_dir = tempfile.mkdtemp(prefix="recovery_smoke_")
    acknowledged = kill_after_acks("child", data_dir, TARGET_ACKS)

    from repro.storage.database import Database

    # Reopen: the dead child's flock is gone; recovery replays the log.
    with Database.open(data_dir) as db:
        report = db.last_recovery
        count = db.execute("SELECT COUNT(*) FROM events").scalar()
        assert count >= acknowledged, (
            f"lost acknowledged commits: recovered {count} < acked {acknowledged}"
        )
        assert count <= acknowledged + 1, (
            f"recovered {count} rows but only {acknowledged + 1} were ever written"
        )
        # Index consistency: the recovered hash index answers point queries.
        probe = db.execute("SELECT COUNT(*) FROM events WHERE id = 0")
        assert probe.scalar() == 1
        by_payload = db.execute("SELECT COUNT(*) FROM events WHERE payload = 'p0'")
        assert by_payload.scalar() == len(
            [i for i in range(count) if i % 13 == 0]
        )
        print(
            f"recovery smoke OK: killed after {acknowledged} acked inserts, "
            f"recovered {count} rows "
            f"(replayed {report.wal_records_applied} WAL records, "
            f"torn tail dropped {report.torn_bytes_dropped} bytes)"
        )
    return 0


# -- the Query Storage: one logged query is all or nothing ---------------------------


def replay_log(cqms, on_logged) -> None:
    """Submit the fixed generated log; ``on_logged(qid)`` after each query
    the store logged (the same qids in every process: the log, the user
    database and the simulated clock are all deterministic)."""
    from repro.workloads import QueryLogGenerator, WorkloadConfig

    events = QueryLogGenerator(
        WorkloadConfig(domain="limnology", num_users=4, num_groups=2,
                       num_sessions=STORE_EVENTS // 3, seed=7)
    ).generate()[:STORE_EVENTS]
    for event in events:
        if not cqms.access_control.has_principal(event.user):
            cqms.register_user(event.user, event.group)
        if event.timestamp > cqms.clock.now:
            cqms.clock.set(event.timestamp)
        execution = cqms.submit(event.user, event.sql, timestamp=event.timestamp)
        if execution.record is not None:
            on_logged(execution.record.qid)


def make_cqms(data_dir: str | None):
    from repro import CQMS, CQMSConfig, SimulatedClock, build_database

    clock = SimulatedClock()
    config = CQMSConfig(data_dir=data_dir, wal_sync="commit")
    return CQMS(build_database("limnology", scale=1, clock=clock), config=config, clock=clock)


def rows_per_qid(store) -> dict[int, tuple[int, ...]]:
    """Per qid, its row count in each feature relation."""
    counts: dict[int, list[int]] = {}
    for position, name in enumerate(FEATURE_TABLES):
        for row in store.meta_database.table(name).rows():
            counts.setdefault(row["qid"], [0] * len(FEATURE_TABLES))[position] += 1
    return {qid: tuple(per_table) for qid, per_table in counts.items()}


def store_child(data_dir: str) -> None:
    """Log queries until killed, acknowledging each durably logged qid."""
    cqms = make_cqms(os.path.join(data_dir, "store"))
    logged = 0

    def on_logged(qid: int) -> None:
        nonlocal logged
        logged += 1  # wal_sync="commit": the batch is fsynced
        acknowledge(data_dir, logged)

    replay_log(cqms, on_logged)
    while True:  # a finished replay waits for its kill like a running one
        time.sleep(1)


def store_parent() -> int:
    data_dir = tempfile.mkdtemp(prefix="recovery_smoke_store_")
    acknowledged = kill_after_acks("store-child", data_dir, STORE_TARGET_ACKS)

    # The same log in memory: the expected rows of every qid.
    reference = make_cqms(None)
    qids: list[int] = []
    replay_log(reference, qids.append)
    expected = rows_per_qid(reference.store)
    acked_qids = qids[:acknowledged]

    from repro.core.query_store import QueryStore

    store = QueryStore(data_dir=os.path.join(data_dir, "store"))
    try:
        recovered = rows_per_qid(store)
        for qid in acked_qids:
            assert recovered.get(qid) == expected[qid], (
                f"acknowledged qid {qid}: recovered rows {recovered.get(qid)} "
                f"!= logged rows {expected[qid]}"
            )
        for qid, counts in recovered.items():
            assert counts == expected.get(qid), (
                f"qid {qid} is partial: rows {counts} != {expected.get(qid)}"
            )
        in_flight = sorted(set(recovered) - set(acked_qids))
        assert in_flight in ([], qids[acknowledged:acknowledged + 1]), (
            f"unacknowledged qids {in_flight} beyond the one in flight"
        )
        assert sorted(record.qid for record in store.all_queries()) == sorted(recovered)
        high_water = store.execute_meta_sql(
            "SELECT value FROM StoreMeta WHERE key = 'next_qid'"
        ).scalar()
        assert high_water > max(recovered), (
            f"qid high-water mark {high_water} <= recovered qid {max(recovered)}"
        )
        print(
            f"query-storage recovery smoke OK: killed after {acknowledged} "
            f"acked submits, recovered {len(recovered)} whole queries "
            f"({len(in_flight)} in flight), none partial"
        )
    finally:
        store.close()
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        child(sys.argv[2])
    elif len(sys.argv) == 3 and sys.argv[1] == "--store-child":
        store_child(sys.argv[2])
    else:
        sys.exit(parent() or store_parent())
