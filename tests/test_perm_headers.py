"""Permutation degrees and automorphism image words end in a group or an error, quickly.

A degree above the table cap is refused (groups._check_degree) before any
list of that length is built, both where a fixture's gen line is read
(perm_from_cycles) and where a PermutationGenSet is made.  A pc image word
that names a generator beyond ngens is refused where the fixture is read,
as its left-hand side is.  Each case runs under a wall-clock guard
(test_checks.within), as in tests/test_pc_headers.py.
"""

import pytest
from test_checks import HEIS27_TEXT, within

from grouplab.cli import main
from grouplab.errors import BudgetExceeded, MalformedSpec, UnresolvedReference
from grouplab.fixtures import parse_fixture
from grouplab.groups import TABLE_CAP, PermutationGenSet, build_group, perm_from_cycles

HUGE_DEGREE = 99999999999


def perm_text(degree: int) -> str:
    return f"group Big\nbackend perm\ndegree {degree}\ngen a = (1 2)\nend\n"


def one_error_line(tmp_path, capsys, text: str) -> str:
    """The CLI's stderr for `check` on text, which must be one error line and exit 2."""
    path = tmp_path / "bad.grp"
    path.write_text(text)
    with within(2.0):
        assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    return err


@pytest.mark.parametrize("degree", [HUGE_DEGREE, 10**6, TABLE_CAP + 1])
def test_a_degree_above_the_cap_is_refused_before_any_work(degree):
    # the gen line, where the degree is first used, is named
    with within(2.0), pytest.raises(BudgetExceeded, match=rf"cap of {TABLE_CAP} points \(line 4\)"):
        parse_fixture(perm_text(degree))
    with within(2.0), pytest.raises(BudgetExceeded, match=f"degree {degree} "):
        perm_from_cycles(degree, [[1, 2]])
    with within(2.0), pytest.raises(BudgetExceeded, match=f"degree {degree} "):
        PermutationGenSet(degree, ())


def test_a_huge_degree_is_a_one_line_error_in_the_cli(tmp_path, capsys):
    assert one_error_line(tmp_path, capsys, perm_text(HUGE_DEGREE)) == (
        f"error: permutation: degree {HUGE_DEGREE} is above the cap of {TABLE_CAP} points (line 4)\n"
    )


@pytest.mark.parametrize("degree", [0, -1])
def test_a_degree_below_one_is_malformed(degree):
    with pytest.raises(MalformedSpec, match="degree must be positive"):
        PermutationGenSet(degree, ())


def test_the_degree_at_the_cap_still_builds():
    assert build_group(parse_fixture(perm_text(TABLE_CAP)).groups[0].presentation).order == 2


IMAGE_BEYOND_NGENS = HEIS27_TEXT + "aut f on Heis27\nimage 1 = 4^1\nimage 2 = 2^1\nimage 3 = 3^1\nend\n"


def test_every_factor_of_an_image_word_is_checked_against_ngens():
    with pytest.raises(UnresolvedReference, match=r"no generator 99999999999 in Heis27 \(line 8\)"):
        parse_fixture(IMAGE_BEYOND_NGENS.replace("4^1", "1^1 99999999999^1"))


def test_an_image_word_beyond_ngens_is_a_one_line_error_in_the_cli(tmp_path, capsys):
    assert "no generator 4 in Heis27" in one_error_line(tmp_path, capsys, IMAGE_BEYOND_NGENS)
