"""wire_mixed: reads beside writes through the network server.

``python -m repro.server --port 0 --init <file> --journal <tmp> --fsync
batch --trigger-mode async --replicate`` runs as a subprocess (default
front end) and two ``Connection``s on two threads of this process drive
it, closed loop: 80 % parameterized point SELECT (plan-cache hits; one
sensitive ID disclosed when ``ward < 5``), 10 % UPDATE of a non-key
column, 5 % INSERT, 5 % DELETE of an earlier insert. After the window the
server gets SIGTERM, must exit 0 with no uncommitted intent in its
journal, and a fresh ``Database`` recovered from that journal must hold
exactly the table and audit-log row count the generator predicts.

``--replicate`` journals the ``--init`` script too, so recovery starts
from an empty database rather than from a replayed init script.
"""

from __future__ import annotations

import itertools
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro import Database
from repro.durability.journal import AuditJournal, scan_journal
from repro.durability.recovery import uncommitted_intents
from repro.errors import ServerOverloadedError
from repro.server import protocol
from repro.server.client import Connection

import constants as C
import measure
import streams
from spans import Tracer
from staged import StagedEngine, layer_metrics
from wl_point_cold import build_patients_db

BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
TEARDOWN_TIMEOUT_S = 15.0
WRITES = ("update", "insert", "delete")
#: journal records replayed into a scratch journal for append timing
APPEND_SAMPLE = 4000


def _init_script(patients: list[tuple]) -> str:
    lines = [C.PATIENTS_DDL, C.PATIENT_LOG_DDL]
    for start in range(0, len(patients), 500):
        values = ", ".join(
            f"({pid}, '{name}', {ward}, {age}, '{zip_code}')"
            for pid, name, ward, age, zip_code in patients[start:start + 500]
        )
        lines.append(f"INSERT INTO patients VALUES {values}")
    lines += ["ANALYZE", C.PATIENT_AUDIT_DDL, C.PATIENT_TRIGGER_DDL]
    return ";\n".join(lines) + ";\n"


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _verify(op, result) -> str | None:
    kind, _, parameters, expectation = op
    if kind != "select":
        if result.rowcount != expectation:
            return f"{kind} {parameters}: rowcount {result.rowcount}"
        return None
    pid, name, age, sensitive = expectation
    rows = [tuple(row) for row in result.rows]
    if len(rows) != 1 or rows[0][0] != name or age not in (None, rows[0][1]):
        return f"select {pid}: rows {rows!r}, expected ({name!r}, {age!r})"
    ids = set(result.accessed.get(C.PATIENT_AUDIT, ()))
    if ids != ({pid} if sensitive else set()):
        return f"select {pid}: ACCESSED {ids!r}, sensitive={sensitive}"
    return None


class WireMixed(measure.Workload):
    name = "wire_mixed"

    def __init__(self) -> None:
        self.server: subprocess.Popen | None = None
        self.tmp: Path | None = None
        self.connections: list[Connection] = []
        self.recorded: list[tuple] = []
        self.tracers: list[Tracer] = []

    # ------------------------------------------------------------------
    # set-up: boot the server, connect, warm up

    def setup(self, seed: int) -> None:
        C.OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="wire-", dir=C.OUT_DIR))
        self.patients = streams.patient_rows(C.WIRE_PATIENTS)
        init_path = self.tmp / "init.sql"
        init_path.write_text(_init_script(self.patients), encoding="utf-8")
        self.journal = self.tmp / "journal"
        begin = time.perf_counter()
        self.server_log = open(self.tmp / "server.err", "w", encoding="utf-8")
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.server", "--port", "0",
                "--init", str(init_path), "--journal", str(self.journal),
                "--fsync", "batch", "--trigger-mode", "async", "--replicate",
            ],
            stdout=subprocess.PIPE, stderr=self.server_log, text=True,
            env=dict(os.environ, PYTHONPATH=str(C.SRC_DIR)),
        )
        port = self._read_port()
        self.load_s = time.perf_counter() - begin
        self.load_rows = len(self.patients)
        self.connections = [
            Connection("127.0.0.1", port, user_id=f"client{index}")
            for index in range(C.WIRE_CLIENTS)
        ]
        self.streams = [
            streams.WireClientStream(seed, index)
            for index in range(C.WIRE_CLIENTS)
        ]
        self.blocks_drawn = [itertools.count() for _ in self.streams]
        self.shed = 0
        self.warmup = self._drive(
            lambda client, _: self.streams[client].block(
                -1, C.WIRE_WARMUP_OPS // C.WIRE_CLIENTS
            ),
            max_blocks=1,
        )
        scan = scan_journal(self.journal, strict=False)
        self.journal_base = (len(scan.records), _tree_bytes(self.journal))

    def _read_port(self) -> int:
        ready, _, _ = select.select(
            [self.server.stdout], [], [], BOOT_TIMEOUT_S
        )
        line = self.server.stdout.readline() if ready else ""
        match = re.search(r"listening on [^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(
                f"server did not start within {BOOT_TIMEOUT_S:.0f} s "
                f"(said {line!r}; see {self.tmp}/server.err)"
            )
        return int(match.group(1))

    def teardown(self) -> None:
        """Close connections, stop a server still running (SIGTERM, then
        SIGKILL and a report if it will not go), drop the temp dir. Safe
        to call at any point, and more than once."""
        for connection in self.connections:
            try:
                connection.close()
            except OSError:
                pass
        self.connections = []
        if self.server is not None:
            if self.server.poll() is None:
                self.server.terminate()
                try:
                    self.server.wait(TEARDOWN_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    print(f"killed server pid {self.server.pid}: it ignored "
                          "SIGTERM", file=sys.stderr)
            self.server.wait()
            self.server.stdout.close()
            self.server_log.close()
            self.server = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    # ------------------------------------------------------------------
    # the closed loop: one thread per connection

    def _drive(self, make_block, seconds: float = 0.0,
               max_blocks: int | None = None, traced: bool = False
               ) -> list[measure.Window]:
        """Run ``make_block(client, index)`` blocks on one thread per
        connection; returns one window per client. With ``traced`` every
        op gets spans and is recorded."""
        windows: dict[int, measure.Window] = {}
        shed: dict[int, int] = dict.fromkeys(range(C.WIRE_CLIENTS), 0)
        errors: list[BaseException] = []

        def body(client: int) -> None:
            connection = self.connections[client]
            tracer = self.tracers[client] if traced else None
            numbers = itertools.count(client * 1_000_000)

            def call(op):
                try:
                    if tracer is None:
                        return connection.execute(op[1], op[2])
                    stmt = next(numbers)
                    with tracer.span("stmt", stmt, op[0]):
                        with tracer.span("server.roundtrip", stmt, op[0]):
                            return connection.execute(op[1], op[2])
                except ServerOverloadedError:
                    shed[client] += 1  # this thread's own slot
                    raise

            def verify(op, result):
                if traced:
                    self.recorded.append((op, result))
                return _verify(op, result)

            try:
                windows[client] = measure.run_blocks(
                    lambda index: make_block(client, index),
                    call, verify, seconds, max_blocks,
                )
            except BaseException as error:  # noqa: BLE001 — re-raised below
                errors.append(error)

        threads = [
            threading.Thread(target=body, args=(client,), name=f"wire{client}")
            for client in range(C.WIRE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        self.shed += sum(shed.values())
        return [windows[client] for client in sorted(windows)]

    def _next_block(self, client: int, ops: int = C.WIRE_BLOCK_OPS):
        return self.streams[client].block(
            next(self.blocks_drawn[client]), ops
        )

    def window(self, seed: int, seconds: float) -> dict:
        per_client = self._drive(
            lambda client, _: self._next_block(client), seconds
        )
        window = measure.Window()
        for part in per_client:
            window.merge(part)
        for part in self.warmup:  # a warm-up failure fails the run too
            window.merge(part, blocks=False)
        self.ops_after_setup = sum(part.attempted for part in per_client)
        return {
            "window": window,
            # each client's median block rate, summed over the clients
            "stmt_per_s": sum(part.rate() for part in per_client),
            **measure.latency_metrics("select", window.latencies("select")),
            **measure.latency_metrics("write", window.latencies(*WRITES)),
        }

    def traced(self, seed: int, tracer: Tracer) -> dict:
        """Spans around each wire statement, one tracer per thread; the
        engine stages are measured in ``finish`` on in-process twins."""
        self.tracers = [
            Tracer(first_id=client * 10_000_000)
            for client in range(C.WIRE_CLIENTS)
        ]
        begin = time.perf_counter()
        replay = self._drive(
            lambda client, _: self._next_block(
                client, C.WIRE_TRACED_OPS // C.WIRE_CLIENTS
            ),
            max_blocks=1, traced=True,
        )
        wall_s = time.perf_counter() - begin
        self.replay = measure.Window()
        for part in replay:
            self.replay.merge(part)
        self.ops_after_setup += self.replay.attempted
        for client_tracer in self.tracers:
            tracer.spans.extend(client_tracer.spans)
        return {"trace.stmt_per_s": self.replay.attempted / wall_s}

    # ------------------------------------------------------------------
    # after the window: drain, journal, recovery, and the twins

    def finish(self, traced: bool) -> dict:
        """SIGTERM the server and check what it left behind.

        Returns metrics plus ``problems``, the failed correctness checks.
        """
        problems: list[str] = []
        health = self.connections[0].health()["audit_trail"]
        server_rss_mb = measure.process_hwm_mb(self.server.pid)
        for connection in self.connections:
            connection.close()
        self.connections = []
        begin = time.perf_counter()
        self.server.send_signal(signal.SIGTERM)
        try:
            code = self.server.wait(DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.server.kill()
            code = self.server.wait()
            problems.append(f"server ignored SIGTERM for {DRAIN_TIMEOUT_S} s")
        drain_s = time.perf_counter() - begin
        said = self.server.stdout.read()
        if code != 0:
            problems.append(f"server exited with {code}")
        timeouts = re.search(r"timeouts=(\d+)", said)
        uncommitted = uncommitted_intents(self.journal)
        if uncommitted:
            problems.append(f"{len(uncommitted)} uncommitted journal intents")
        scan = scan_journal(self.journal)
        records = len(scan.records) - self.journal_base[0]
        written = _tree_bytes(self.journal) - self.journal_base[1]

        recovered = Database(user_id="server")
        begin = time.perf_counter()
        report = recovered.recover(self.journal, apply_statements=True)
        recover_s = time.perf_counter() - begin
        log_rows = len(recovered.catalog.table("audit_log"))
        expected_rows = sum(s.expected_disclosures for s in self.streams)
        if log_rows != expected_rows:
            problems.append(
                f"recovered audit log has {log_rows} rows, the generator "
                f"disclosed {expected_rows}"
            )
        table = set(recovered.catalog.table("patients").rows())
        if table != streams.wire_final_table(self.streams, self.patients):
            problems.append("recovered patients table differs from the model")
        recovered.close()

        ops = max(1, self.ops_after_setup)
        metrics = {
            "problems": problems,
            "recover_s": recover_s,
            "peak_rss_mb": server_rss_mb,
            "triggers.firings": report.intents,
            "triggers.log_rows": log_rows,
            "triggers.lost_firings": expected_rows - log_rows,
            "concurrency.drain_s": drain_s,
            "concurrency.pipeline_retried": health.get("retried_batches", 0),
            "concurrency.pipeline_dead_letter": health.get("dead_letters", 0),
            "durability.journal_bytes_per_stmt": written / ops,
            "durability.appends_per_stmt": records / ops,
            "durability.recover_records_per_s": report.records / recover_s,
            "server.shed": self.shed,
            "server.timeouts": int(timeouts.group(1)) if timeouts else 0,
        }
        if traced:
            metrics.update(self._twins(scan.records))
        return metrics

    def _twins(self, journal_records) -> dict:
        """What the wire statements cost without the wire.

        The traced replay's op stream runs again in-process: on a
        database built exactly like the server's (same init script,
        journal, statement WAL, async firing) for the wire overhead, on
        an armed and an unarmed journal-free pair for the DML's audit
        maintenance, through the staged driver for the SELECT stages,
        and its recorded messages and journal payloads through the codec
        and a scratch journal for their own cost.
        """
        ops = [op for op, _ in self.recorded]
        wire = self.replay

        like_server = Database(
            user_id="server", journal_path=str(self.tmp / "twin-journal"),
            journal_fsync="batch",
        )
        like_server.trigger_mode = "async"
        like_server.replicate_statements = True
        like_server.execute_script(_init_script(self.patients))
        cache_before = like_server.plan_cache.stats()
        local = _time_ops(like_server, ops)
        cache = measure.plancache_metrics(
            cache_before, like_server.plan_cache.stats()
        )
        # only SELECTs are cached, and every DML lookup counts as a miss:
        # take the ratio over the SELECTs
        cache["plancache.hit_ratio"] = (
            like_server.plan_cache.stats()["hits"] - cache_before["hits"]
        ) / sum(op[0] == "select" for op in ops)
        like_server.close()

        armed, _ = build_patients_db(self.patients, None, armed=True)
        unarmed, _ = build_patients_db(self.patients, None, armed=False)
        writes = [op for op in ops if op[0] in WRITES]
        armed_writes = _time_ops(armed, writes)
        unarmed_writes = _time_ops(unarmed, writes)
        tracer = Tracer(first_id=100_000_000)
        engine = StagedEngine(armed, tracer)
        for stmt, op in enumerate(o for o in ops if o[0] == "select"):
            engine.select(stmt, op[1], op[2])
            engine.run_without_hook(stmt, op[1], op[2])
        metrics = layer_metrics(tracer.spans, tracer.counters)
        metrics.pop("trace.stmt_per_s")
        armed.close()
        unarmed.close()

        encode_s, decode_s, reply_bytes = [], [], []
        for op, result in self.recorded:
            request = {"type": "execute", "sql": op[1], "parameters": {
                name: protocol.encode_value(value)
                for name, value in op[2].items()
            }}
            begin = time.perf_counter()
            frames = [protocol.frame_bytes(request)]
            if result.rows:
                frames.append(protocol.frame_bytes({
                    "type": "rows",
                    "rows": [protocol.encode_row(r) for r in result.rows],
                }))
            frames.append(protocol.frame_bytes({
                "type": "done", "columns": list(result.columns),
                "rowcount": result.rowcount,
                "accessed": protocol.encode_accessed(result.accessed),
            }))
            middle = time.perf_counter()
            for data in frames:
                frame = protocol.decode_frame(data[4:])
                for row in frame.get("rows", ()):
                    protocol.decode_row(row)
                if "accessed" in frame:
                    protocol.decode_accessed(frame["accessed"])
            end = time.perf_counter()
            encode_s.append(middle - begin)
            decode_s.append(end - middle)
            reply_bytes.append(sum(len(data) for data in frames[1:]))

        scratch = AuditJournal(self.tmp / "append-journal", fsync="batch")
        append_s = []
        for record in journal_records[:APPEND_SAMPLE]:
            begin = time.perf_counter()
            scratch.append(record.kind, record.data)
            append_s.append(time.perf_counter() - begin)
        scratch.close()

        local_select = measure.p50_ms(local.latencies("select"))
        metrics.update(cache)
        metrics.update({
            "server.encode_ms": measure.p50_ms(encode_s),
            "server.decode_ms": measure.p50_ms(decode_s),
            "server.reply_bytes_per_stmt": sum(reply_bytes) / len(reply_bytes),
            "server.wire_overhead_ratio": (
                measure.p50_ms(wire.latencies("select")) / local_select
            ),
            "server.wire_overhead_base_ms": local_select,
            "audit.dml_maintain_ms": (
                measure.p50_ms(armed_writes.latencies(*WRITES))
                - measure.p50_ms(unarmed_writes.latencies(*WRITES))
            ),
            "durability.append_ms": measure.p50_ms(append_s),
        })
        return metrics


def _time_ops(db: Database, ops: list[tuple]) -> measure.Window:
    """Run ``ops`` once through ``db.execute``, timing each."""
    return measure.run_blocks(
        lambda _: ops,
        lambda op: db.execute(op[1], op[2]),
        lambda op, result: None,
        0.0, max_blocks=1,
    )
