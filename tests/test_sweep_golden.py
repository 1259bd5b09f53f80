"""Golden pins of what `bunred sweep` writes.

The sha256 of the table, as JSON and as text, of the 2,460-case sweep
genus 2..4 x rank 1..20 x degree -20..20; of the JSON table of the
21,780-case sweep genus 2..4 x rank 1..60 x degree -60..60; and of every
trace document that `--traces-dir` writes for genus 2..3 x rank 1..6 x
degree -6..6 (one digest over the sorted "<sha256>  <file name>" lines of
the 156 files).

The digests were recorded from a sweep that reduced each case with a fresh
table and verified it with a full verify_trace report, so a sweep that
shares built subtrees and verified nodes between cases must write the same
bytes.
"""

import hashlib
import json

import pytest

from bunred.cli import main

TABLE_PINS = {
    "json": "d794f1c3e53a07e14db5a3e7d9ab167e5183b557ec82a84556f1979e033302f9",
    "text": "38001decead996dbab794c328eee8957daae16b3cb30215e79774c1f6cf94716",
}
LARGE_SWEEP_PIN = "6b547c28c262e43f36a0e58857210e65fa6b3bdb48d2a81406e587ccfc457030"
TRACES_PIN = "e7b2610d93e174228991931e0e8f3d06d2e03c37060fefb8a02e915c58542946"


@pytest.mark.parametrize("fmt", sorted(TABLE_PINS))
def test_sweep_table_is_pinned(fmt, capsys):
    argv = ["sweep", "--genus", "2..4", "--max-rank", "20", "--degree-range=-20..20"]
    assert main([*argv, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_PINS[fmt]


def test_large_sweep_table_is_pinned(tmp_path):
    path = tmp_path / "sweep.json"
    argv = ["sweep", "--genus", "2..4", "--max-rank", "60", "--degree-range=-60..60"]
    assert main([*argv, "--format", "json", "--out", str(path)]) == 0
    raw = path.read_bytes()
    doc = json.loads(raw)
    assert doc["cases"] == 21_780 and doc["all_valid"] is True
    # the table is written row by row, in the bytes of the stdlib encoder
    assert raw == (json.dumps(doc, indent=2) + "\n").encode()
    assert hashlib.sha256(raw).hexdigest() == LARGE_SWEEP_PIN


def test_sweep_trace_documents_are_pinned(tmp_path, capsys):
    argv = ["sweep", "--genus", "2..3", "--max-rank", "6", "--degree-range=-6..6"]
    assert main([*argv, "--traces-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    files = sorted(tmp_path.iterdir())
    assert len(files) == 2 * 6 * 13
    manifest = "".join(
        f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}\n" for f in files
    )
    assert hashlib.sha256(manifest.encode()).hexdigest() == TRACES_PIN
