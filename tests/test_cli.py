"""Command-line behavior: outputs, exit codes, report files."""

import json

import pytest

import grouplab.cli as cli_mod
from grouplab import __version__
from grouplab.checks import CheckReport, CheckRow
from grouplab.cli import main
from grouplab.corpus import corpus_text
from test_checks import TRIVIAL_TEXT
from test_fixtures import C2_TEXT, CONTRADICTED_IMAGE


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures") / "corpus.grp"
    path.write_text(corpus_text(), encoding="utf-8")
    return str(path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_info(corpus_path, capsys):
    assert main(["info", corpus_path]) == 0
    out = capsys.readouterr().out
    assert "group D8pc: backend pc, order 8" in out
    assert "aut c9inv: acts on C9" in out
    assert "action kleinC33: on C3xC3 generated by c33invx, c33invy" in out
    assert "check prop_2_11 on D8pc gens=g1,g2" in out


def test_series(corpus_path, capsys):
    assert main(["series", corpus_path, "--group", "D8pc"]) == 0
    out = capsys.readouterr().out
    assert "order 8, exponent 4" in out
    assert "[8, 2, 1]" in out
    assert "nilpotent: True (class 2)" in out


def test_series_on_mixed_order_group_has_no_dimension_orders(corpus_path, capsys):
    assert main(["series", corpus_path, "--group", "S3"]) == 0
    out = capsys.readouterr().out
    assert "lower central series orders" in out
    assert "only defined for p-groups" in out


def test_liering(corpus_path, capsys):
    assert main(["liering", corpus_path, "--group", "Heis27"]) == 0
    out = capsys.readouterr().out
    assert "component dims: [2, 1] (total 3)" in out
    assert "nilpotency class: 2" in out
    assert "[e1_1, e1_2] = e2_1" in out
    assert "[e1_2, e1_1] = 2*e2_1" in out


# Good beside a group whose presentation is inconsistent and one over the table cap
MIXED = """\
group Bad
backend pc
prime 2
ngens 2
pow 1 = 2^1
comm 2 1 = 2^1
end

group Good
backend pc
prime 3
ngens 3
comm 2 1 = 3^1
end

group S7
backend perm
degree 7
gen a = (1 2)
gen b = (1 2 3 4 5 6 7)
end
"""


@pytest.mark.parametrize(
    "command,shown",
    [
        ("series", "lower central series orders:   [27, 3, 1]"),
        ("liering", "component dims: [2, 1] (total 3)"),
    ],
)
def test_series_and_liering_build_only_the_named_group(tmp_path, capsys, command, shown):
    path = tmp_path / "mixed.grp"
    path.write_text(MIXED, encoding="utf-8")
    assert main([command, str(path), "--group", "Good"]) == 0
    assert shown in capsys.readouterr().out
    assert main([command, str(path), "--group", "Nope"]) == 2
    assert capsys.readouterr().err == f"no group named 'Nope' in {path}\n"
    assert main([command, str(path), "--group", "Bad"]) == 2
    assert "relation [g2, g1] = g2 fails" in capsys.readouterr().err


def test_info_builds_each_group_on_its_own(tmp_path, capsys):
    path = tmp_path / "mixed.grp"
    path.write_text(MIXED, encoding="utf-8")
    assert main(["info", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "group Good: backend pc, order 27, exponent 3, generators g1, g2, g3\n"
    errors = err.splitlines()
    assert len(errors) == 2
    assert errors[0].startswith("error: group Bad: relation [g2, g1] = g2 fails")
    assert errors[1] == "error: group S7: group enumeration passed the cap of 2048 elements"


@pytest.mark.parametrize("name", ["Bad", "B" * 41])
def test_a_group_refused_while_checks_run_is_named(tmp_path, capsys, name):
    path = tmp_path / "mixed.grp"
    path.write_text(MIXED.replace("group Bad", f"group {name}"), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    shown = name if len(name) <= 40 else f"{name[:40]!r}... (41 characters)"
    assert out == ""
    assert err == (
        f"error: group {shown}: relation [g2, g1] = g2 fails: "
        "conjugation by g1 is no automorphism of <g2>\n"
    )


LONG = "B" * 50
LONG_BAD = f"""\
group {LONG}
backend pc
prime 2
ngens 2
pow 1 = 2^1
comm 2 1 = 2^1
end

group C2
backend pc
prime 2
ngens 1
end
"""


@pytest.mark.parametrize("command", ["info", "check", "series", "liering"])
def test_every_command_names_a_refused_group_alike(tmp_path, capsys, command):
    path = tmp_path / "long.grp"
    path.write_text(LONG_BAD, encoding="utf-8")
    argv = [command, str(path)] + (["--group", LONG] if command in ("series", "liering") else [])
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == (
        f"error: group {LONG[:40]!r}... (50 characters): relation [g2, g1] = g2 fails: "
        "conjugation by g1 is no automorphism of <g2>\n"
    )
    listed = "group C2: backend pc, order 2, exponent 2, generators g1\n"
    assert out == (listed if command == "info" else "")


TWO_BAD_REQUESTS = """\
group A
backend pc
prime 2
ngens 1
end

group B
backend pc
prime 3
ngens 1
end

check lemma_3_3 on A prime=1
check collection on B n=0
"""


def test_the_first_refused_request_in_check_major_order_is_reported(tmp_path, capsys):
    # collection precedes lemma_3_3 in the catalog, so B's request is met first
    path = tmp_path / "two.grp"
    path.write_text(TWO_BAD_REQUESTS, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: need n >= 1\n")


@pytest.mark.parametrize(
    "request_line, message",
    [
        ("check nosuch on C2", "unknown check"),
        ("check jacobi on C2 k=7", "no parameter 'k'; it reads none"),
        ("check collection on C2 budgit=5", "no parameter 'budgit'; it reads prime, n"),
        ("check lemma_3_3 on A", "A is not a group"),
    ],
)
def test_a_request_its_check_cannot_run_is_one_error_line(tmp_path, capsys, request_line, message):
    path = tmp_path / "request.grp"
    path.write_text(C2_TEXT + "action A on C2 =\n" + request_line + "\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    check, _, target = request_line.split()[1:4]
    assert capsys.readouterr() == ("", f"error: check {check} on {target}: {message}\n")


NOT_AN_INTEGER = "check collection on C2: check parameter {} must be an integer"


@pytest.mark.parametrize(
    "request_line, error",
    [
        ("check collection on C2 n=\u0662", NOT_AN_INTEGER.format("n")),  # an Arabic-Indic two
        ("check collection on C2 n=1_0", NOT_AN_INTEGER.format("n")),
        ("check collection on C2 prime=+2", NOT_AN_INTEGER.format("prime")),
        ("check collection on C2 prime=--3", NOT_AN_INTEGER.format("prime")),
        ("check collection on C2 prime=-3", "prime must be a prime, got -3"),
        ("check t4_4 on invC9 n=0", "need n >= 1"),
        ("check t4_4 on invC9 n=-9", "need n >= 1"),
    ],
)
def test_a_bad_integer_parameter_on_the_corpus_is_one_error_line(
    tmp_path, capsys, request_line, error
):
    # an integer is ASCII digits after at most one '-', as the fixture grammar reads numbers;
    # a negative one reaches its check, which refuses it
    path = tmp_path / "corpus.grp"
    path.write_text(corpus_text() + request_line + "\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_check_with_selection(corpus_path, capsys):
    assert main(["check", corpus_path, "--select", "fitting"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("GROUP")
    assert "-- 16 rows:" in out


def test_corpus_runs_clean(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "-- 208 rows:" in out
    assert "fail" not in out.split("-- 208 rows:")[1]


def test_corpus_report_file_deterministic(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["corpus", "--report", str(r1)]) == 0
    assert main(["corpus", "--report", str(r2)]) == 0
    capsys.readouterr()
    assert r1.read_bytes() == r2.read_bytes()
    doc = json.loads(r1.read_text())
    assert doc["seed"] == 0
    assert doc["tool_version"] == __version__
    assert len(doc["rows"]) == 208


def test_exit_codes_for_errors(corpus_path, capsys):
    assert main(["check", corpus_path, "--select", "wibble"]) == 2
    assert "catalog" in capsys.readouterr().err
    assert main(["check", "/no/such/file.grp"]) == 2
    assert main(["series", corpus_path, "--group", "Ghost"]) == 2
    assert main(["liering", corpus_path, "--group", "Ghost"]) == 2


def test_syntax_error_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("group G\nbackend pc\nprime 2\nngens 1\nwibble\nend\n")
    assert main(["info", str(bad)]) == 2
    assert "line 5" in capsys.readouterr().err


@pytest.mark.parametrize("c, image", [("(1 2)", "(1 2 3)"), ("()", "(1 2)")])
def test_an_automorphism_contradicting_its_fixture_is_one_error_line(tmp_path, capsys, c, image):
    bad = tmp_path / "contradicted.grp"
    bad.write_text(CONTRADICTED_IMAGE.format(c=c, image=image), encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: aut bad: images do not extend to a homomorphism: generator c = {c} is given "
        f"{image}, but the images of the others send it to {c}\n"
    )


@pytest.mark.parametrize(
    "text,line",
    [
        ("group C2\nbackend pc\nprime 2\nngens 1\nend\naut f on C2\nimage 1 = 1^\u00b2\nend\n", 7),
        ("group C2\nbackend pc\nprime 2\nngens \u00b2\nend\n", 4),
    ],
)
def test_non_ascii_digits_are_a_one_line_syntax_error(tmp_path, capsys, text, line):
    # a superscript passes str.isdigit() but not int()
    bad = tmp_path / "digits.grp"
    bad.write_text(text, encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert err.rstrip().endswith(f"(line {line})")


def test_unreadable_input_is_an_error_not_a_failure(tmp_path, capsys):
    # exit 1 is reserved for fail rows: a directory or a non-UTF-8 file is exit 2
    assert main(["check", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    latin = tmp_path / "latin1.grp"
    latin.write_bytes("# caf\xe9\n".encode("latin-1"))
    assert main(["info", str(latin)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_a_fault_while_checks_run_is_not_an_input_error(monkeypatch, capsys):
    # only reading the fixture and writing the report turn an OSError into exit 2
    def stopped(*args, **kwargs):
        raise TimeoutError("still running")

    monkeypatch.setattr(cli_mod, "run_checks", stopped)
    with pytest.raises(TimeoutError, match="still running"):
        main(["corpus"])
    assert main(["check", "/no/such/file.grp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_an_unwritable_report_is_an_error(tmp_path, capsys):
    assert main(["corpus", "--select", "jacobi", "--report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_failure_rows_exit_one(monkeypatch, capsys):
    report = CheckReport("0", (CheckRow("G", "jacobi", "fail", "broken"),))
    monkeypatch.setattr(cli_mod, "run_checks", lambda *a, **k: report)
    assert main(["corpus"]) == 1
    assert "broken" in capsys.readouterr().out


def test_check_on_the_trivial_group_exits_zero(tmp_path, capsys):
    path = tmp_path / "trivial.grp"
    path.write_text(TRIVIAL_TEXT, encoding="utf-8")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("-- 19 rows: 3 pass, 16 skipped\n")
