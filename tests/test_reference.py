"""Every CLI artifact equals its committed reference.

Each case of ``tests/reference/regenerate.py`` reruns in-process through
``cli.main`` and its files are compared with ``tests/reference/<case>/``:
the same file names, and in each file the same keys in the same order, the
same integers, flags, strings and nulls, and floats within 4 ulps. BLAS
picks its kernels by CPU and block shape, so exact bytes could differ on
another machine. The tool version in the provenance is masked.
"""

import csv
import importlib.util
import json
import math
from pathlib import Path

import pytest

REFERENCE = Path(__file__).resolve().parent / "reference"
ULPS = 4

_spec = importlib.util.spec_from_file_location("reference_cases", REFERENCE / "regenerate.py")
cases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cases)


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ULPS * math.ulp(max(abs(a), abs(b)))


class _Object(list):
    """A JSON object as its (key, value) pairs in file order."""


def _json(path: Path):
    """The file's JSON, objects as :class:`_Object`, with the provenance
    version masked."""
    def pairs(items):
        return _Object((key, "<version>" if key == "version" else value) for key, value in items)
    return json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=pairs)


def _compare_json(got, want, where: str) -> None:
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, float):
        assert _close(got, want), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: {len(got)} items != {len(want)}"
        for k, (a, b) in enumerate(zip(got, want)):
            if isinstance(want, _Object):
                assert a[0] == b[0], f"{where}: key {a[0]!r} != {b[0]!r}"
                _compare_json(a[1], b[1], f"{where}.{b[0]}")
            else:
                _compare_json(a, b, f"{where}[{k}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_csv(got: Path, want: Path) -> None:
    got_rows, want_rows = (list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
                           for path in (got, want))
    assert got.read_bytes().count(b"\r\n") == want.read_bytes().count(b"\r\n")
    assert len(got_rows) == len(want_rows)
    assert got_rows[0] == want_rows[0]  # the header
    for r, (row, expected) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        assert len(row) == len(expected), f"row {r}"
        for c, (cell, reference) in enumerate(zip(row, expected)):
            number = _float(reference)
            if number is None:
                assert cell == reference, f"row {r}, column {c}: {cell!r} != {reference!r}"
            else:
                value = _float(cell)
                assert value is not None and _close(value, number), (
                    f"row {r}, column {c}: {cell!r} != {reference!r}")


@pytest.mark.parametrize("name", list(cases.CASES))
def test_artifacts_match_the_references(tmp_path, name):
    out = tmp_path / "out"
    assert cases.run_case(name, out, tmp_path) == 0
    want_dir = REFERENCE / name
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in want_dir.iterdir())
    for want in sorted(want_dir.iterdir()):
        got = out / want.name
        if want.suffix == ".json":
            _compare_json(_json(got), _json(want), want.name)
        else:
            _compare_csv(got, want)
