"""Pc group headers (prime, ngens, pow and comm lines) end in a group or an error, quickly.

PcPresentation bounds the modulus by the table cap before its trial-division
primality test, and the generator count before p^ngens is formed, so no
header can make parsing or building spend unbounded time or memory.  Each
case runs under a wall-clock guard (test_checks.within), so a regression
fails here instead of hanging the suite.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_checks import within

from grouplab.cli import main
from grouplab.errors import BudgetExceeded, FixtureSyntaxError, GroupLabError, MalformedSpec
from grouplab.fixtures import parse_fixture
from grouplab.groups import TABLE_CAP, FiniteGroup, PcPresentation, build_group

HUGE_PRIME = 1000000000000000003  # a prime: trial division up to 10^9 never returns in time

BIG_TEXT = f"""\
group Big
backend pc
prime {HUGE_PRIME}
ngens 1
end
"""


def test_a_huge_prime_is_refused_before_the_primality_test():
    with within(2.0), pytest.raises(BudgetExceeded, match=f"above {TABLE_CAP}"):
        parse_fixture(BIG_TEXT)


def test_a_huge_prime_is_a_one_line_error_in_the_cli(tmp_path, capsys):
    big = tmp_path / "big.grp"
    big.write_text(BIG_TEXT)
    with within(2.0):
        assert main(["check", str(big)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"above {TABLE_CAP}" in err


@pytest.mark.parametrize(
    "p,ngens,error",
    [
        (HUGE_PRIME, 1, BudgetExceeded),
        (2053, 1, BudgetExceeded),  # the first prime above the cap
        (2**127 - 1, 0, BudgetExceeded),  # a Mersenne prime
        (2047, 1, MalformedSpec),  # 23 * 89, below the cap
        (2048, 3, MalformedSpec),
        (1, 1, MalformedSpec),
        (0, 1, MalformedSpec),
        (-7, 1, MalformedSpec),
        (2, 0, MalformedSpec),
        (2, -1, MalformedSpec),
        (2, TABLE_CAP.bit_length() + 1, BudgetExceeded),
        (2039, 10**12, BudgetExceeded),  # p^ngens is never formed
    ],
)
def test_pc_presentation_bounds_its_header_before_any_work(p, ngens, error):
    with within(1.0), pytest.raises(error):
        PcPresentation(p, ngens)


def test_the_largest_prime_under_the_cap_still_builds():
    assert build_group(PcPresentation(2039, 1)).order == 2039


def test_a_number_longer_than_int_reads_is_a_syntax_error_with_its_line(tmp_path, capsys):
    text = BIG_TEXT.replace(str(HUGE_PRIME), "7" * 5000)
    with within(1.0), pytest.raises(FixtureSyntaxError, match="line 3"):
        parse_fixture(text)
    big = tmp_path / "long.grp"
    big.write_text(text)
    assert main(["check", str(big)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert err.rstrip().endswith("(5000 characters) (line 3)")


# -- fuzzed headers ----------------------------------------------------------------

NUMBERS = st.one_of(
    st.integers(-3, 60).map(str),
    st.integers(TABLE_CAP + 1, 10**40).map(str),
    st.sampled_from([str(HUGE_PRIME), "2039", "2047", "2048", "7" * 5000, "1" + "0" * 30]),
)
PRIMES = st.one_of(st.sampled_from(["2", "3", "5", "7"]), NUMBERS)
NGENS = st.one_of(st.integers(1, 4).map(str), st.integers(-1, 14).map(str), NUMBERS)
FACTORS = st.tuples(st.one_of(st.integers(2, 4), st.integers(0, 7)), st.integers(0, 9))
WORDS = st.one_of(
    # increasing indices with exponents in 1..6: legal for a large enough p and ngens
    st.lists(FACTORS, max_size=3, unique_by=lambda f: f[0]).map(
        lambda fs: " ".join(f"{i}^{max(e, 1)}" for i, e in sorted(fs))
    ),
    st.lists(FACTORS, max_size=3).map(lambda fs: " ".join(f"{i}^{e}" for i, e in fs)),
)
INDEX = st.one_of(st.integers(1, 4), st.integers(-1, 7)).map(str)
RELATIONS = st.lists(
    st.one_of(
        st.builds(lambda i, w: f"pow {i} = {w}", INDEX, WORDS),
        st.builds(lambda j, i, w: f"comm {j} {i} = {w}", INDEX, INDEX, WORDS),
    ),
    max_size=4,
)


@st.composite
def pc_headers(draw) -> str:
    lines = ["group G", "backend pc", f"prime {draw(PRIMES)}", f"ngens {draw(NGENS)}"]
    lines += draw(RELATIONS)
    return "\n".join(lines + ["end", ""])


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(pc_headers())
def test_fuzzed_pc_headers_end_in_a_group_or_an_error_within_a_bound(text):
    with within(2.0):
        try:
            (entry,) = parse_fixture(text).groups
            G = build_group(entry.presentation)
        except GroupLabError:
            return
    assert isinstance(G, FiniteGroup) and G.order == entry.presentation.order <= TABLE_CAP
