"""Tests for tools/artifact_diff.py, the artifact number-by-number comparison."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"
_SPEC = importlib.util.spec_from_file_location("artifact_diff", _PATH)
artifact_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_diff)


def write_pair(tmp_path, name, old, new):
    for side, text in (("old", old), ("new", new)):
        folder = tmp_path / side
        folder.mkdir(exist_ok=True)
        (folder / name).write_text(text)
    return tmp_path / "old" / name, tmp_path / "new" / name


def test_csv_scaled_and_relative_change(tmp_path):
    old = "order,re,im\n1,4.0,-2.0\n2,1e-3,0.0\n"
    new = "order,re,im\n1,4.0,-2.0\n2,1.5e-3,0.0\n"
    result = artifact_diff.compare_file(*write_pair(tmp_path, "a.csv", old, new))
    assert result["count"] == 6
    assert result["scaled"] == pytest.approx(0.5e-3 / 4.0)
    assert result["rel"] == pytest.approx(0.5)


def test_json_numbers_in_order_and_bools_as_text(tmp_path):
    old = json.dumps({"pass": True, "checks": [{"max_ratio": 2.0, "order": 1}]})
    new = json.dumps({"pass": True, "checks": [{"max_ratio": 2.0 + 2e-15, "order": 1}]})
    result = artifact_diff.compare_file(*write_pair(tmp_path, "r.json", old, new))
    assert result["count"] == 2
    assert result["scaled"] == pytest.approx(1e-15)
    assert result["rel"] == pytest.approx(1e-15)


def test_identical_files_read_zero(tmp_path):
    text = "order,re\n1,nan\n2,-0.0\n"
    result = artifact_diff.compare_file(*write_pair(tmp_path, "a.csv", text, text))
    assert result == {"scaled": 0.0, "rel": 0.0, "count": 4}


def test_a_number_leaving_zero_is_an_infinite_relative_change(tmp_path):
    result = artifact_diff.compare_file(
        *write_pair(tmp_path, "a.csv", "re\n0.0\n2.0\n", "re\n1e-20\n2.0\n")
    )
    assert result["rel"] == float("inf")
    assert result["scaled"] == pytest.approx(0.5e-20)


@pytest.mark.parametrize(
    "old,new",
    [
        ('{"pass": true, "x": 1.0}', '{"pass": false, "x": 1.0}'),
        ("re\n1.0\n", "re\n1.0\n2.0\n"),
    ],
    ids=["changed-text", "changed-count"],
)
def test_unpaired_numbers(tmp_path, old, new):
    suffix = ".json" if old.startswith("{") else ".csv"
    assert artifact_diff.compare_file(*write_pair(tmp_path, "f" + suffix, old, new)) is None


def test_main_reports_every_file_and_fails_on_one_sided(tmp_path, capsys):
    old_dir, new_dir = (path.parent for path in write_pair(tmp_path, "a.csv", "re\n1.0\n", "re\n1.0\n"))
    assert artifact_diff.main([str(old_dir), str(new_dir)]) == 0
    assert "a.csv" in capsys.readouterr().out
    (old_dir / "b.json").write_text("{}")
    (new_dir / "notes.txt").write_text("not an artifact")
    assert artifact_diff.main([str(old_dir), str(new_dir)]) == 1
    out = capsys.readouterr().out
    assert "b.json  only in OLD_DIR" in out and "notes.txt" not in out


def test_a_file_that_moved_more_than_max_scaled_fails(tmp_path, capsys):
    # 1 -> 1 + 2^-45 is a scaled change of 2.8e-14, within MAX_SCALED;
    # 1 -> 1 + 2^-30 one of 9.3e-10, above it
    assert artifact_diff.MAX_SCALED == 1e-12
    old_dir, new_dir = (path.parent for path in
                        write_pair(tmp_path, "a.csv", "re\n1.0\n0.5\n", f"re\n{1 + 2 ** -45!r}\n0.5\n"))
    write_pair(tmp_path, "b.csv", "re\n2.0\n", "re\n2.0\n")
    assert artifact_diff.main([str(old_dir), str(new_dir)]) == 0
    assert "above" not in capsys.readouterr().out
    (new_dir / "a.csv").write_text(f"re\n{1 + 2 ** -30!r}\n0.5\n")
    assert artifact_diff.main([str(old_dir), str(new_dir)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("a.csv") and lines[0].endswith("above 1e-12")
    assert lines[1].startswith("b.csv") and "above" not in lines[1]
