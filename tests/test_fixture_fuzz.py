"""Fuzzed fixtures end in a report or a GroupLabError, after a bounded amount of work.

Each case takes the corpus, perfbench/ladder.grp or perfbench/build.grp (read
only), applies one to three mutations (a number token replaced from a fixed
list of small, cap-sized and huge values, or a line deleted or duplicated),
may append one check request with a parameter, and then parses the text and
runs the whole catalog on it under a wall-clock guard (test_checks.within).
"""

import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_checks import within

from grouplab import CHECK_CATALOG, parse_fixture, run_checks
from grouplab.corpus import corpus_text
from grouplab.errors import FixtureSyntaxError, GroupLabError

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = {
    "corpus": corpus_text(),
    "ladder": (BENCH / "ladder.grp").read_text("utf-8"),
    "build": (BENCH / "build.grp").read_text("utf-8"),
}
NUMBERS = ("0", "1", "2", "3", "12", "2048", "4096", str(10**11))
NUMBER = re.compile(r"\b\d+\b")


@st.composite
def fuzzed_fixtures(draw) -> str:
    text = SOURCES[draw(st.sampled_from(sorted(SOURCES)))]
    targets = [e.name for e in (*parse_fixture(text).groups, *parse_fixture(text).actions)]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("number", "delete", "duplicate")))
        if kind == "number":
            spots = list(NUMBER.finditer(text))
            spot = spots[draw(st.integers(0, len(spots) - 1))]
            text = text[: spot.start()] + draw(st.sampled_from(NUMBERS)) + text[spot.end() :]
        else:
            lines = text.splitlines()
            k = draw(st.integers(0, len(lines) - 1))
            lines[k : k + 1] = [] if kind == "delete" else [lines[k]] * 2
            text = "\n".join(lines) + "\n"
    if draw(st.booleans()):
        name = draw(st.sampled_from(CHECK_CATALOG))
        target = draw(st.sampled_from(targets))
        key = draw(st.sampled_from(("k", "n", "prime", "gens")))
        text += f"check {name} on {target} {key}={draw(st.sampled_from(NUMBERS))}\n"
    return text


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(fuzzed_fixtures())
def test_a_fuzzed_fixture_ends_in_a_report_or_an_error(text):
    with within(10.0):
        try:
            report = run_checks(parse_fixture(text))
        except FixtureSyntaxError as exc:
            assert len(str(exc)) <= 200
            return
        except GroupLabError:
            return
    assert {row.status for row in report.rows} <= {"pass", "fail", "skipped"}
