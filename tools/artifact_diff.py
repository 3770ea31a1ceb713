"""Compare the numbers in two directories of bornscat artifacts.

Usage: python tools/artifact_diff.py OLD_DIR NEW_DIR

Every CSV or JSON file under OLD_DIR is paired with the file at the same
relative path under NEW_DIR.  The numbers of a pair are matched in file
order, and one line per file gives

    scaled  the largest |new - old| over the largest |old| in the file
    rel     the largest |new - old| / |old| of a single number (0/0 = 0)

A file whose numbers do not pair up, because their count or any text
between them changed, or that exists on one side only, is reported as such.
A file whose scaled change exceeds MAX_SCALED fails too.  The exit status
is 0 when every file paired up within that limit and 1 otherwise.

Standard library only, so it runs wherever the artifacts are.
"""

import csv
import json
import math
import sys
from pathlib import Path

SUFFIXES = (".csv", ".json")
# the largest scaled change a re-base may make (ROADMAP item 1a): a few
# thousand ulps of the largest number, far below any physical change
MAX_SCALED = 1e-12


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _walk(node, numbers, texts):
    if isinstance(node, dict):
        for key, value in node.items():
            texts.append(key)
            _walk(value, numbers, texts)
    elif isinstance(node, list):
        texts.append(len(node))
        for value in node:
            _walk(value, numbers, texts)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        numbers.append(float(node))
    else:
        texts.append(node)


def read_numbers(path):
    """(numbers, texts) of one artifact: its numbers in file order, and
    everything else in file order, which two comparable files share."""
    numbers, texts = [], []
    path = Path(path)
    if path.suffix == ".json":
        _walk(json.loads(path.read_text()), numbers, texts)
        return numbers, texts
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            texts.append(len(row))
            for cell in row:
                value = _number(cell)
                if value is None:
                    texts.append(cell)
                else:
                    numbers.append(value)
    return numbers, texts


def _change(old, new):
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    difference = abs(new - old)
    return difference if math.isfinite(difference) else math.inf


def compare_file(old_path, new_path):
    """{"scaled": ..., "rel": ..., "count": ...} for one pair of artifacts,
    or None when their numbers do not pair up."""
    old_numbers, old_texts = read_numbers(old_path)
    new_numbers, new_texts = read_numbers(new_path)
    if old_texts != new_texts or len(old_numbers) != len(new_numbers):
        return None
    changes = [_change(a, b) for a, b in zip(old_numbers, new_numbers)]
    largest = max((abs(a) for a in old_numbers if math.isfinite(a)), default=0.0)
    worst = max(changes, default=0.0)
    rel = 0.0
    for old, change in zip(old_numbers, changes):
        if change:
            rel = max(rel, change / abs(old) if old else math.inf)
    scaled = worst / largest if largest else (math.inf if worst else 0.0)
    return {"scaled": scaled, "rel": rel, "count": len(old_numbers)}


def _artifacts(folder):
    return {
        path.relative_to(folder).as_posix()
        for path in Path(folder).rglob("*")
        if path.is_file() and path.suffix in SUFFIXES
    }


def compare_dirs(old_dir, new_dir):
    """[(relative path, result)], result a compare_file dict or a string."""
    old_names, new_names = _artifacts(old_dir), _artifacts(new_dir)
    rows = []
    for name in sorted(old_names | new_names):
        if name not in new_names:
            rows.append((name, "only in OLD_DIR"))
        elif name not in old_names:
            rows.append((name, "only in NEW_DIR"))
        else:
            result = compare_file(Path(old_dir) / name, Path(new_dir) / name)
            rows.append((name, result or "numbers do not pair up"))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rows = compare_dirs(*argv)
    if not rows:
        print("no CSV or JSON artifacts found")
        return 1
    width = max(len(name) for name, _ in rows)
    ok = True
    for name, result in rows:
        if isinstance(result, str):
            ok = False
            print(f"{name:<{width}}  {result}")
            continue
        line = (f"{name:<{width}}  {result['count']:>6d} numbers  "
                f"scaled {result['scaled']:.2e}  rel {result['rel']:.2e}")
        if result["scaled"] > MAX_SCALED:
            ok = False
            line += f"  above {MAX_SCALED:g}"
        print(line)
    paired = [result["scaled"] for _, result in rows if not isinstance(result, str)]
    if paired:
        print(f"largest scaled change: {max(paired):.2e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
