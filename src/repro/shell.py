"""Interactive SQL shell: ``python -m repro``.

A small REPL over :class:`repro.Database` for exploring the auditing
features. Statements end with ``;``; dot-commands inspect state:

.. code-block:: text

    repro> CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR);
    repro> .tables
    repro> .audit
    repro> .explain SELECT * FROM patients
    repro> .user dr_house
    repro> .quit

The shell prints each SELECT's rows plus its ACCESSED state, making the
audit machinery visible interactively.

The same REPL also speaks to a remote server
(``python -m repro --connect host:port --user alice``): statements go
over the wire through :class:`repro.server.client.Connection`, errors
come back as the same typed exceptions, and ``.user`` re-authenticates
the connection. Engine-introspection dot commands (``.tables``,
``.explain``, ...) need the in-process engine and say so in remote mode.
"""

from __future__ import annotations

import sys
from typing import IO

from repro.database import Database, QueryResult
from repro.errors import ReproError

PROMPT = "repro> "
CONTINUATION = "  ...> "

_HELP = """\
Statements end with ';'. Dot commands:
  .help                 this text
  .tables               list tables with row counts
  .schema <table>       columns of a table
  .audit                audit expressions, views, and triggers
  .explain <statement>  SELECT plan (instrumented), or DML access path
  .user <name>          switch the session user (for user_id())
  .heuristic <name>     leaf-node | highest-commutative-node | highest-node
  .notifications        show and clear pending SEND EMAIL/NOTIFY messages
  .health               audit-trail damage counters (+ cluster state)
  .quit                 exit\
"""

#: dot commands that read engine internals and so need a local database
_LOCAL_ONLY = (".tables", ".schema", ".audit", ".explain", ".heuristic",
               ".notifications")


class Shell:
    """REPL state: one database (local engine or remote connection),
    one output stream."""

    def __init__(
        self,
        database: object | None = None,
        stdout: IO[str] | None = None,
    ) -> None:
        self.database = database or Database(user_id="shell")
        self.stdout = stdout or sys.stdout
        #: remote mode: ``database`` is a server Connection, not an engine
        self.remote = not hasattr(self.database, "catalog")
        # The shell's identity. Locally this is applied per statement via
        # the thread-local ``Session.override`` — NOT by mutating
        # ``session.user_id``, which would change the process-wide base
        # identity and mis-attribute concurrent queries (e.g. async
        # trigger batches of other threads) to the shell user.
        if self.remote:
            self.user_id = self.database.user_id
        else:
            self.user_id = self.database.session.user_id

    # ------------------------------------------------------------------

    def write(self, text: str = "") -> None:
        print(text, file=self.stdout)

    def run(self, stdin: IO[str] | None = None) -> None:
        """Read-eval-print until EOF or ``.quit``."""
        stream = stdin or sys.stdin
        buffer: list[str] = []
        interactive = stream is sys.stdin and sys.stdin.isatty()
        while True:
            if interactive:  # pragma: no cover - manual use only
                prompt = CONTINUATION if buffer else PROMPT
                try:
                    line = input(prompt)
                except EOFError:
                    break
            else:
                line = stream.readline()
                if not line:
                    break
                line = line.rstrip("\n")
            if not buffer and line.strip().startswith("."):
                if not self.dot_command(line.strip()):
                    break
                continue
            buffer.append(line)
            statement = "\n".join(buffer)
            if statement.rstrip().endswith(";"):
                buffer.clear()
                self.execute(statement)

    # ------------------------------------------------------------------

    def execute(self, sql: str) -> None:
        try:
            if self.remote:
                result = self.database.execute(sql)
            else:
                # thread-local impersonation: the statement (and the
                # ACCESSED metadata its trigger actions capture) runs as
                # the shell's user without touching the engine's base
                # identity
                with self.database.session.override(
                    sql.strip(), self.user_id
                ):
                    result = self.database.execute(sql)
        except ReproError as error:
            self.write(f"error: {error}")
            return
        self.print_result(result)

    def print_result(self, result: QueryResult) -> None:
        if result.columns:
            self.write(" | ".join(result.columns))
            self.write("-+-".join("-" * len(c) for c in result.columns))
            for row in result.rows:
                self.write(" | ".join(_render(value) for value in row))
            self.write(f"({len(result.rows)} rows)")
            for name, ids in sorted(result.accessed.items()):
                shown = ", ".join(map(_render, sorted(ids, key=repr)[:10]))
                more = "" if len(ids) <= 10 else f", ... ({len(ids)} total)"
                self.write(f"ACCESSED[{name}]: {shown}{more}")
        elif result.rowcount:
            self.write(f"ok ({result.rowcount} rows affected)")
        else:
            self.write("ok")

    # ------------------------------------------------------------------

    def dot_command(self, line: str) -> bool:
        """Handle a dot command; returns False to exit the loop."""
        command, __, argument = line.partition(" ")
        argument = argument.strip()
        if command in (".quit", ".exit"):
            return False
        if command == ".help":
            self.write(_HELP)
        elif command == ".user":
            self._switch_user(argument)
        elif command in _LOCAL_ONLY and self.remote:
            self.write(
                f"error: {command} needs the in-process engine "
                "(this shell is connected to a server)"
            )
        elif command == ".tables":
            for table in sorted(
                self.database.catalog.tables(),
                key=lambda table: table.schema.name,
            ):
                self.write(f"{table.schema.name}  ({len(table)} rows)")
        elif command == ".schema":
            self._schema(argument)
        elif command == ".audit":
            self._audit_summary()
        elif command == ".explain":
            try:
                self.write(self.database.explain(argument))
            except ReproError as error:
                self.write(f"error: {error}")
        elif command == ".heuristic":
            if argument:
                self.database.audit_manager.heuristic = argument
            self.write(
                f"placement heuristic: "
                f"{self.database.audit_manager.heuristic}"
            )
        elif command == ".health":
            self._health()
        elif command == ".notifications":
            for message in self.database.notifications:
                self.write(f"  {message}")
            self.write(
                f"({len(self.database.notifications)} notifications)"
            )
            self.database.notifications.clear()
        else:
            self.write(f"unknown command {command!r} (try .help)")
        return True

    def _health(self) -> None:
        """``.health``: audit-trail damage, locally or over the wire.

        Works in both modes — remotely it surfaces the server's
        ``{"type": "health"}`` frame, so an operator at a client shell
        sees the same counters an in-process caller would.
        """
        try:
            if self.remote:
                report = self.database.health()
            else:
                cluster_health = getattr(
                    self.database, "cluster_health", None
                )
                report = {
                    "audit_trail": self.database.audit_trail_health(),
                    "cluster": (
                        cluster_health()
                        if callable(cluster_health) else None
                    ),
                }
        except ReproError as error:
            self.write(f"error: {error}")
            return
        for key, value in sorted(report.get("audit_trail", {}).items()):
            self.write(f"audit_trail.{key}: {value}")
        cluster = report.get("cluster")
        if cluster is None:
            self.write("cluster: (single node)")
        else:
            for key, value in sorted(cluster.items()):
                self.write(f"cluster.{key}: {value}")

    def _switch_user(self, argument: str) -> None:
        if argument:
            if self.remote:
                try:
                    # re-authenticate: the server, not the client,
                    # decides whether the identity switch is allowed
                    self.user_id = self.database.set_user(argument)
                except ReproError as error:
                    self.write(f"error: {error}")
                    return
            else:
                self.user_id = argument
        self.write(f"user: {self.user_id}")

    def _schema(self, table_name: str) -> None:
        try:
            table = self.database.catalog.table(table_name)
        except ReproError as error:
            self.write(f"error: {error}")
            return
        for column in table.schema.columns:
            flags = []
            if column.name in table.schema.primary_key:
                flags.append("PRIMARY KEY")
            if not column.nullable:
                flags.append("NOT NULL")
            suffix = f"  {' '.join(flags)}" if flags else ""
            self.write(f"{column.name}  {column.data_type}{suffix}")

    def _audit_summary(self) -> None:
        manager = self.database.audit_manager
        expressions = manager.expressions()
        if not expressions:
            self.write("no audit expressions")
        for expression in expressions:
            view = manager.view(expression.name)
            self.write(
                f"{expression.name}: table={expression.sensitive_table} "
                f"partition_by={expression.partition_by} "
                f"ids={len(view)} probe={view.probe_structure}"
            )
        triggers = list(self.database.catalog.triggers())
        for trigger in triggers:
            kind = type(trigger).__name__
            self.write(f"trigger {trigger.name} ({kind})")
        self.write(f"heuristic: {manager.heuristic}")


def _render(value: object) -> str:
    if value is None:
        return "NULL"
    return str(value)


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    arguments = list(argv if argv is not None else sys.argv[1:])
    connect_to: str | None = None
    user = "shell"
    password: str | None = None
    tpch_scale: float | None = None
    index = 0
    while index < len(arguments):
        argument = arguments[index]
        if argument == "--connect":
            index += 1
            connect_to = arguments[index]
        elif argument == "--user":
            index += 1
            user = arguments[index]
        elif argument == "--password":
            index += 1
            password = arguments[index]
        elif argument == "--tpch":
            tpch_scale = 0.002
            if index + 1 < len(arguments):
                try:
                    tpch_scale = float(arguments[index + 1])
                    index += 1
                except ValueError:
                    pass
        else:
            print(f"unknown argument {argument!r}", file=sys.stderr)
            print(
                "usage: python -m repro [--tpch [SF]] "
                "[--connect HOST:PORT [--user NAME] [--password PW]]",
                file=sys.stderr,
            )
            return 2
        index += 1

    if connect_to is not None:
        from repro.server.client import Connection

        host, _, port_text = connect_to.rpartition(":")
        if not host:
            print(
                f"--connect expects HOST:PORT, got {connect_to!r}",
                file=sys.stderr,
            )
            return 2
        try:
            connection = Connection(
                host, int(port_text), user_id=user, password=password
            )
        except ReproError as error:
            print(f"cannot connect: {error}", file=sys.stderr)
            return 1
        shell = Shell(connection)
        shell.write(
            f"repro shell — connected to {connect_to} as "
            f"{connection.user_id}; .help for commands"
        )
        try:
            shell.run()
        finally:
            connection.close()
        return 0

    database = Database(user_id=user)
    if tpch_scale is not None:
        from repro.tpch import load_tpch

        counts = load_tpch(database, scale_factor=tpch_scale)
        print(
            "loaded TPC-H "
            + ", ".join(f"{name}={count}" for name, count in counts.items())
        )
    shell = Shell(database)
    shell.write("repro shell — type .help for commands, .quit to exit")
    shell.run()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
