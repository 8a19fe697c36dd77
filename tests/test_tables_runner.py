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


_DIFF_PATH = _PATH.parent / "diff_tables.py"
_dspec = importlib.util.spec_from_file_location("diff_tables", _DIFF_PATH)
diff_tables = importlib.util.module_from_spec(_dspec)
_dspec.loader.exec_module(diff_tables)


def _output(rows: list) -> str:
    cols = ["data", "members", "t_newsea"]
    return f"\n== Table T ==\n{tables.fmt_table(rows, cols)}\n"


def test_diff_tables_reads_cells_with_spaces():
    rows = [{"data": "a", "members": ["x y", "z"], "t_newsea": 0.5}]
    (names, parsed), = diff_tables.parse(_output(rows)).values()
    assert names == ["data", "members", "t_newsea"]
    assert parsed == [{"data": "a", "members": "['x y', 'z']",
                       "t_newsea": "0.5"}]


def test_diff_tables_skips_times_and_reports_cells(tmp_path, capsys):
    old = [{"data": "a", "members": [1, 2], "t_newsea": 0.5},
           {"data": "b", "members": [3], "t_newsea": 0.25}]
    slower = [{**r, "t_newsea": 9.0} for r in old]
    moved = [old[0], {**old[1], "members": [3, 4]}]
    paths = []
    for k, rows in enumerate((old, slower, moved)):
        paths.append(tmp_path / f"{k}.txt")
        paths[-1].write_text(_output(rows))
    assert diff_tables.main([str(paths[0]), str(paths[1])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "4 non-time cells compared, 0 differ"]
    assert diff_tables.main([str(paths[0]), str(paths[2])]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "Table T: row 1 members: '[3]' -> '[3, 4]'",
        "4 non-time cells compared, 1 differ"]


def test_diff_tables_bench_output_against_itself():
    bench = diff_tables.parse(_BENCH.read_text())
    assert set(bench) == {title for title, _ in _BLOCKS}
    compared, out = diff_tables.diff(bench, bench)
    assert out == [] and compared > 0
