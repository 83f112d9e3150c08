"""The outputs users see, pinned byte for byte.

The five demos are run as scripts and their stdout compared with the copies
in tests/data/demos/, and the bundled corpus report is compared with the
benchmark's golden copy, perfbench/golden/corpus.json (read only).  A change
that means to alter either output rewrites the copy in the same change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from grouplab import corpus_text, parse_fixture, run_checks

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_pinned_output():
    assert [d.stem for d in DEMOS] == sorted(
        p.stem for p in (ROOT / "tests" / "data" / "demos").glob("*.txt")
    )
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_unchanged(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    out = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT, timeout=120
    )
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.txt").read_bytes()


def test_corpus_report_is_byte_identical_to_the_golden_copy():
    golden = (ROOT / "perfbench" / "golden" / "corpus.json").read_bytes()
    report = run_checks(parse_fixture(corpus_text()))
    assert report.to_json().encode("utf-8") == golden
