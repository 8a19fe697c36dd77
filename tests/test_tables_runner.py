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



# The committed ``--scale bench`` output and the runner's blocks, in the
# default (all tables) order: (title, columns) per block.
_BENCH = _PATH.parent.parent / "bench_tables.txt"
_BENCH_LINES = _BENCH.read_text().splitlines()
_TITLE_ROWS = [i for i, line in enumerate(_BENCH_LINES)
               if line.startswith("== ") and line.endswith(" ==")]
_BLOCKS = [block for _, blocks in tables.TABLES.values() for block in blocks]


def test_bench_tables_titles_match_runner():
    """A renamed table key or title fails until the file is regenerated."""
    assert [_BENCH_LINES[i][3:-3] for i in _TITLE_ROWS] == [
        title for title, _ in _BLOCKS]


def test_bench_tables_headers_match_runner():
    """A renamed or reordered column fails until the file is regenerated."""
    assert len(_TITLE_ROWS) == len(_BLOCKS)
    for i, (title, columns) in zip(_TITLE_ROWS, _BLOCKS):
        assert _BENCH_LINES[i + 1].split() == columns, title
