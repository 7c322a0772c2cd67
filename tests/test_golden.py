"""Every command's outputs on small runs against the golden corpus in
tests/golden/ (written by scripts/golden.py --write): numbers within a
relative 1e-12, integers, strings and flags exactly."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parent.parent / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


@pytest.mark.parametrize("case", list(golden.CASES))
def test_outputs_match_the_corpus(tmp_path, case):
    assert golden.compare(case, golden.run(case, tmp_path), exact_bytes=False) == []


@pytest.mark.parametrize("want,got,same", [
    ("n,risk\n1024,0.25\n", "n,risk\n1024,0.25000000000000006\n", True),
    ("risk 0.25 -> PASS", "risk 0.250000000001 -> PASS", False),
    ("n,risk\n1024,0.25\n", "n,risk\n1025,0.25\n", False),
    ("kept\nTrue\n", "kept\nFalse\n", False),
    ('{"mu": Infinity}', '{"mu": 1e308}', False),
    ("0.0,1.0", "-0.0,1.0", True),
    ("1.0,2.0", "1.0,2.0,3.0", False),
], ids=["ulp", "past-tolerance", "integer", "flag", "infinity", "signed-zero", "extra-value"])
def test_tolerant_comparison(want, got, same):
    assert (golden.same_within(want, got) is None) == same
