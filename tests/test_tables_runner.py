"""The table runner ``jobs/tables.py``."""
import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "jobs" / "tables.py"
_spec = importlib.util.spec_from_file_location("tables_runner", _PATH)
tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tables)


def test_table02_block(spark, capsys, monkeypatch):
    monkeypatch.setattr(tables, "spark_session", lambda: spark)
    tables.main(["02", "--scale", "test"])
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("== Table II: difference graph statistics ==")
    header, *rows = lines[start + 1:]
    assert header.split() == tables.table02.COLUMNS
    assert len(rows) == 16


def test_unknown_table_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        tables.main(["99"])
    assert exc.value.code == 2
    assert "unknown table '99'" in capsys.readouterr().err

