"""Tests for the interactive shell."""

import io

from repro.database import Database
from repro.shell import Shell


def run_script(lines, database=None):
    stdout = io.StringIO()
    shell = Shell(database or Database(user_id="shell"), stdout=stdout)
    shell.run(io.StringIO("\n".join(lines) + "\n"))
    return stdout.getvalue()


class TestStatements:
    def test_create_insert_select(self):
        output = run_script([
            "CREATE TABLE t (a INT, b VARCHAR);",
            "INSERT INTO t VALUES (1, 'x'), (2, 'y');",
            "SELECT * FROM t ORDER BY a;",
        ])
        assert "ok (2 rows affected)" in output
        assert "a | b" in output
        assert "1 | x" in output
        assert "(2 rows)" in output

    def test_multiline_statement(self):
        output = run_script([
            "CREATE TABLE t (a INT);",
            "SELECT *",
            "FROM t;",
        ])
        assert "(0 rows)" in output

    def test_error_reported_not_fatal(self):
        output = run_script([
            "SELECT * FROM missing;",
            "SELECT 1 + 1;",
        ])
        assert "error:" in output
        assert "2" in output

    def test_null_rendering(self):
        output = run_script(["SELECT NULL;"])
        assert "NULL" in output

    def test_accessed_shown(self):
        db = Database(user_id="shell")
        db.execute("CREATE TABLE p (pid INT PRIMARY KEY, n VARCHAR)")
        db.execute("INSERT INTO p VALUES (1, 'Alice')")
        db.execute(
            "CREATE AUDIT EXPRESSION a AS SELECT * FROM p "
            "FOR SENSITIVE TABLE p, PARTITION BY pid"
        )
        output = run_script(["SELECT * FROM p;"], db)
        assert "ACCESSED[a]: 1" in output


class TestDotCommands:
    def test_help(self):
        assert ".tables" in run_script([".help"])

    def test_tables_and_schema(self):
        output = run_script([
            "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR NOT NULL);",
            ".tables",
            ".schema t",
        ])
        assert "t  (0 rows)" in output
        assert "PRIMARY KEY" in output
        assert "NOT NULL" in output

    def test_schema_unknown_table(self):
        assert "error:" in run_script([".schema nope"])

    def test_audit_summary(self):
        db = Database(user_id="shell")
        db.execute("CREATE TABLE p (pid INT PRIMARY KEY)")
        db.execute(
            "CREATE AUDIT EXPRESSION a AS SELECT * FROM p "
            "FOR SENSITIVE TABLE p, PARTITION BY pid"
        )
        output = run_script([".audit"], db)
        assert "a: table=p partition_by=pid" in output
        assert "heuristic: highest-commutative-node" in output

    def test_audit_summary_empty(self):
        assert "no audit expressions" in run_script([".audit"])

    def test_explain(self):
        output = run_script([
            "CREATE TABLE t (a INT PRIMARY KEY);",
            ".explain SELECT * FROM t",
            ".explain DELETE FROM t WHERE a = 1",
        ])
        assert "physical" in output
        assert "IndexSeek(t.t_pk)" in output

    def test_user_switch(self):
        output = run_script([".user alice", ".user"])
        assert output.count("user: alice") == 2

    def test_heuristic_switch(self):
        output = run_script([".heuristic leaf-node"])
        assert "placement heuristic: leaf-node" in output

    def test_notifications(self):
        db = Database(user_id="shell")
        db.notifications.append("ping")
        output = run_script([".notifications", ".notifications"], db)
        assert "ping" in output
        assert "(0 notifications)" in output  # cleared after first show

    def test_unknown_command(self):
        assert "unknown command" in run_script([".frobnicate"])

    def test_quit_stops_processing(self):
        output = run_script([".quit", "SELECT 1;"])
        assert "(1 rows)" not in output


class TestUserAttribution:
    def _audited_db(self) -> Database:
        db = Database(user_id="shell")
        db.execute("CREATE TABLE p (pid INT PRIMARY KEY, n VARCHAR)")
        db.execute("CREATE TABLE log (uid VARCHAR, pid INT)")
        db.execute("INSERT INTO p VALUES (1, 'Alice')")
        db.execute(
            "CREATE AUDIT EXPRESSION a AS SELECT * FROM p "
            "FOR SENSITIVE TABLE p, PARTITION BY pid"
        )
        db.execute(
            "CREATE TRIGGER t ON ACCESS TO a AS "
            "INSERT INTO log SELECT user_id(), pid FROM accessed"
        )
        return db

    def test_user_switch_does_not_mutate_base_identity(self):
        """.user impersonates via the thread-local override; the engine's
        process-wide base identity must stay untouched (other threads —
        e.g. async trigger batches — would otherwise inherit it)."""
        db = self._audited_db()
        run_script([".user dr_house", "SELECT * FROM p;"], db)
        assert db.session.user_id == "shell"
        db.drain_triggers()
        assert db.execute("SELECT uid FROM log").rows == [("dr_house",)]

    def test_async_firings_attribute_to_shell_user(self):
        db = self._audited_db()
        db.trigger_mode = "async"
        run_script([".user auditor", "SELECT * FROM p;"], db)
        db.drain_triggers()
        assert db.execute("SELECT uid FROM log").rows == [("auditor",)]
        db.close()


class TestRemoteShell:
    def test_remote_statements_and_user_switch(self):
        from repro.server.client import Connection

        db = Database(user_id="server")
        db.execute("CREATE TABLE p (pid INT PRIMARY KEY, n VARCHAR)")
        db.execute("CREATE TABLE log (uid VARCHAR, pid INT)")
        db.execute("INSERT INTO p VALUES (1, 'Alice')")
        db.execute(
            "CREATE AUDIT EXPRESSION a AS SELECT * FROM p "
            "FOR SENSITIVE TABLE p, PARTITION BY pid"
        )
        db.execute(
            "CREATE TRIGGER t ON ACCESS TO a AS "
            "INSERT INTO log SELECT user_id(), pid FROM accessed"
        )
        with db.serve(close_database=False) as server:
            conn = Connection(server.host, server.port, user_id="alice")
            try:
                output = run_script(
                    [
                        "SELECT * FROM p;",
                        ".user bob",
                        "SELECT n FROM p;",
                        ".tables",
                    ],
                    conn,
                )
            finally:
                conn.close()
        assert "ACCESSED[a]: 1" in output
        assert "user: bob" in output
        assert "needs the in-process engine" in output
        db.drain_triggers()
        rows = sorted(db.execute("SELECT uid, pid FROM log").rows)
        assert rows == [("alice", 1), ("bob", 1)]


class TestMain:
    def test_main_with_tpch(self, capsys, monkeypatch):
        import io as _io
        import sys

        from repro import shell as shell_module

        monkeypatch.setattr(
            sys, "stdin", _io.StringIO(".tables\n.quit\n")
        )
        code = shell_module.main(["--tpch", "0.0005"])
        captured = capsys.readouterr()
        assert code == 0
        assert "loaded TPC-H" in captured.out
        assert "customer" in captured.out
