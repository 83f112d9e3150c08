"""Fixture grammar: parsing, canonical serialization, realization."""

import re

import pytest

from grouplab.corpus import corpus_fixture, corpus_text
from grouplab.errors import (
    DuplicateName,
    FixtureSyntaxError,
    MalformedSpec,
    UnresolvedReference,
)
from grouplab.fixtures import (
    CheckRequest,
    parse_fixture,
    realize_automorphism,
    realize_automorphisms,
    realize_groups,
    serialize_fixture,
    word_element,
)
from grouplab.groups import FiniteGroup, PcPresentation, PermutationGenSet, build_group

C2_TEXT = """\
group C2
backend pc
prime 2
ngens 1
end
"""

D8_TEXT = """\
group D8
backend pc
prime 2
ngens 3
pow 2 = 3^1
comm 2 1 = 3^1
end
"""

S3_TEXT = """\
group S3
backend perm
degree 3
gen a = (1 2 3)
gen b = (1 2)
end
"""


# -- parsing happy paths --------------------------------------------------


def test_minimal_pc_group():
    fx = parse_fixture(C2_TEXT)
    assert len(fx.groups) == 1
    entry = fx.group("C2")
    assert entry.backend == "pc"
    assert isinstance(entry.presentation, PcPresentation)
    assert build_group(entry.presentation).order == 2


def test_pc_group_with_relations():
    fx = parse_fixture(D8_TEXT)
    pres = fx.group("D8").presentation
    assert pres.powers == {2: ((3, 1),)}
    assert pres.commutators == {(2, 1): ((3, 1),)}
    assert build_group(pres).order == 8


def test_perm_group():
    fx = parse_fixture(S3_TEXT)
    pres = fx.group("S3").presentation
    assert isinstance(pres, PermutationGenSet)
    assert pres.degree == 3
    assert [name for name, _ in pres.generators] == ["a", "b"]
    assert build_group(pres).order == 6


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\ngroup C2  # trailing comment\nbackend pc\n\nprime 2\nngens 1\nend\n"
    fx = parse_fixture(text)
    assert fx.group("C2").backend == "pc"


def test_bare_generator_index_means_exponent_one():
    text = "group G\nbackend pc\nprime 2\nngens 2\npow 1 = 2\nend\n"
    fx = parse_fixture(text)
    assert fx.group("G").presentation.powers == {1: ((2, 1),)}


def test_empty_relation_rhs_is_dropped():
    # "pow 1 =" declares the identity, which the canonical form records by omission
    text = "group G\nbackend pc\nprime 2\nngens 1\npow 1 =\nend\n"
    fx = parse_fixture(text)
    assert fx.group("G").presentation.powers == {}


def test_aut_block_pc():
    text = C2_TEXT + "\naut flip on C2\nimage 1 = 1^1\nend\n"
    fx = parse_fixture(text)
    entry = fx.aut("flip")
    assert entry.group == "C2"
    assert entry.images == ((1, ((1, 1),)),)


def test_aut_block_perm_with_cycles_and_words():
    text = S3_TEXT + "\naut conj on S3\nimage a = (1 3 2)\nimage b = b\nend\n"
    fx = parse_fixture(text)
    entry = fx.aut("conj")
    kinds = [expr[0] for _, expr in entry.images]
    assert kinds == ["cycles", "word"]


def test_action_line_and_trivial_action():
    text = C2_TEXT + "\naut idmap on C2\nimage 1 = 1\nend\naction triv on C2 =\naction one on C2 = idmap\n"
    fx = parse_fixture(text)
    assert fx.action("triv").auts == ()
    assert fx.action("one").auts == ("idmap",)


def test_check_line_params_sorted():
    text = C2_TEXT + "check collection on C2 n=2 budget=50\n"
    fx = parse_fixture(text)
    req = fx.checks[0]
    assert req == CheckRequest("collection", "C2", (("budget", "50"), ("n", "2")))
    assert fx.params_for("collection", "C2") == {"n": "2", "budget": "50"}
    assert fx.params_for("collection", "nope") == {}


# -- parse errors ----------------------------------------------------------


def _line_of(excinfo) -> int:
    return excinfo.value.line


def test_unknown_directive_reports_line():
    with pytest.raises(FixtureSyntaxError) as exc:
        parse_fixture("group G\nbackend pc\nprime 2\nngens 1\nend\nwibble x\n")
    assert _line_of(exc) == 6


def test_backend_must_come_first():
    with pytest.raises(FixtureSyntaxError, match="backend"):
        parse_fixture("group G\nprime 2\nngens 1\nend\n")


def test_bad_word_factor():
    with pytest.raises(FixtureSyntaxError, match="bad word factor"):
        parse_fixture("group G\nbackend pc\nprime 2\nngens 2\npow 1 = x^2\nend\n")


def test_word_indices_must_increase():
    with pytest.raises(FixtureSyntaxError, match="increase"):
        parse_fixture(
            "group G\nbackend pc\nprime 2\nngens 3\npow 1 = 3^1 2^1\nend\n"
        )


def test_unclosed_cycle_reports_column():
    with pytest.raises(FixtureSyntaxError, match="unclosed") as exc:
        parse_fixture("group G\nbackend perm\ndegree 3\ngen a = (1 2 3\nend\n")
    assert exc.value.line == 4


def test_degree_must_come_before_gen():
    with pytest.raises(FixtureSyntaxError, match="degree"):
        parse_fixture("group G\nbackend perm\ngen a = (1 2)\nend\n")


def test_missing_end_in_group_block():
    with pytest.raises(FixtureSyntaxError, match="missing end"):
        parse_fixture("group G\nbackend pc\nprime 2\nngens 1\n")


def test_missing_end_in_aut_block():
    with pytest.raises(FixtureSyntaxError, match="missing end"):
        parse_fixture(C2_TEXT + "aut f on C2\nimage 1 = 1\n")


def test_pc_directive_rejected_in_perm_block():
    with pytest.raises(FixtureSyntaxError, match="not valid"):
        parse_fixture("group G\nbackend perm\ndegree 2\nprime 2\nend\n")


def test_relation_validation_blames_group_header_line():
    # index 0 breaks the presentation constraint; the block opened on line 1
    with pytest.raises(FixtureSyntaxError) as exc:
        parse_fixture("group G\nbackend pc\nprime 2\nngens 1\npow 0 = 1^1\nend\n")
    assert exc.value.line == 1


# str.isdigit() holds for these, and int() refuses the superscript and
# accepts the Arabic-Indic digit; the grammar takes ASCII digits only.
NON_ASCII_DIGITS = ["\u00b2", "\u0663"]  # superscript two, Arabic-Indic three
NON_ASCII_NUMBER_SITES = {  # site -> (text with {d} for one number, its line, an ASCII value)
    "pc word exponent": ("group G\nbackend pc\nprime 2\nngens 2\npow 1 = 2^{d}\nend\n", 5, "1"),
    "pc word index": ("group G\nbackend pc\nprime 2\nngens 2\npow 1 = {d}\nend\n", 5, "2"),
    "want_int (ngens)": ("group G\nbackend pc\nprime 2\nngens {d}\nend\n", 4, "1"),
    "want_int (comm index)": (
        "group G\nbackend pc\nprime 2\nngens 2\ncomm {d} 1 = 2\nend\n", 5, "2"
    ),
    "cycle point": ("group G\nbackend perm\ndegree 3\ngen a = (1 {d})\nend\n", 4, "2"),
    "pc image index": (C2_TEXT + "aut f on C2\nimage {d} = 1\nend\n", 7, "1"),
    "pc image word exponent": (C2_TEXT + "aut f on C2\nimage 1 = 1^{d}\nend\n", 7, "1"),
    "perm image word exponent": (
        S3_TEXT + "aut f on S3\nimage a = a^{d}\nimage b = b\nend\n", 8, "2"
    ),
}


@pytest.mark.parametrize("digit", NON_ASCII_DIGITS)
@pytest.mark.parametrize("site", sorted(NON_ASCII_NUMBER_SITES))
def test_numbers_take_ascii_digits_only(site, digit):
    text, line, _ = NON_ASCII_NUMBER_SITES[site]
    with pytest.raises(FixtureSyntaxError) as exc:
        parse_fixture(text.format(d=digit))
    assert exc.value.line == line


@pytest.mark.parametrize("site", sorted(NON_ASCII_NUMBER_SITES))
def test_each_number_site_parses_with_ascii_digits(site):
    text, _, ascii_value = NON_ASCII_NUMBER_SITES[site]
    parse_fixture(text.format(d=ascii_value))


def test_duplicate_group_name():
    with pytest.raises(DuplicateName):
        parse_fixture(C2_TEXT + C2_TEXT)


def test_names_share_one_namespace_across_kinds():
    text = C2_TEXT + "aut C2 on C2\nimage 1 = 1\nend\n"
    with pytest.raises(DuplicateName):
        parse_fixture(text)


def test_duplicate_pow_line():
    with pytest.raises(DuplicateName):
        parse_fixture(
            "group G\nbackend pc\nprime 2\nngens 2\npow 1 = 2\npow 1 = 2\nend\n"
        )


def test_duplicate_check_pair():
    text = C2_TEXT + "check fitting on C2\ncheck fitting on C2\n"
    with pytest.raises(DuplicateName):
        parse_fixture(text)


def test_same_check_on_two_targets_is_fine():
    text = C2_TEXT + D8_TEXT + "check fitting on C2\ncheck fitting on D8\n"
    assert len(parse_fixture(text).checks) == 2


def test_duplicate_check_param_key():
    with pytest.raises(DuplicateName):
        parse_fixture(C2_TEXT + "check collection on C2 n=1 n=2\n")


def test_aut_on_unknown_group():
    with pytest.raises(UnresolvedReference) as exc:
        parse_fixture("aut f on Ghost\nimage 1 = 1\nend\n")
    assert exc.value.line == 1


def test_aut_image_index_out_of_range():
    with pytest.raises(UnresolvedReference):
        parse_fixture(C2_TEXT + "aut f on C2\nimage 2 = 1\nend\n")


def test_aut_must_cover_every_generator():
    text = D8_TEXT + "aut f on D8\nimage 1 = 1\nend\n"
    with pytest.raises(FixtureSyntaxError, match="missing image"):
        parse_fixture(text)


def test_perm_aut_unknown_generator_name():
    with pytest.raises(UnresolvedReference):
        parse_fixture(S3_TEXT + "aut f on S3\nimage z = (1 2)\nend\n")


def test_action_with_unknown_aut():
    with pytest.raises(UnresolvedReference):
        parse_fixture(C2_TEXT + "action x on C2 = ghost\n")


def test_action_aut_group_mismatch():
    text = C2_TEXT + D8_TEXT + "aut f on C2\nimage 1 = 1\nend\naction x on D8 = f\n"
    with pytest.raises(UnresolvedReference, match="acts on"):
        parse_fixture(text)


def test_check_on_unknown_target():
    with pytest.raises(UnresolvedReference):
        parse_fixture(C2_TEXT + "check fitting on Ghost\n")


def test_lookup_failures():
    fx = parse_fixture(C2_TEXT)
    with pytest.raises(UnresolvedReference):
        fx.group("nope")
    with pytest.raises(UnresolvedReference):
        fx.aut("nope")
    with pytest.raises(UnresolvedReference):
        fx.action("nope")


LONG = "w" * 5000
PERM_T = "group P\nbackend perm\ndegree 2\ngen {T} = (1 2)\n"  # a generator named T
AUT_T = "aut {T} on C2\nimage 1 = 1\nend\n"  # an automorphism named T

# site -> (text with the token at {T}, error type, line of the refusal): every
# site of parse_fixture that echoes input text in its message
ECHO_SITES = {
    "directive": ("{T} x\n", FixtureSyntaxError, 1),
    "backend": ("group G\nbackend {T}\nend\n", FixtureSyntaxError, 2),
    "backend field": ("group G\nbackend pc\n{T} 2\nend\n", FixtureSyntaxError, 3),
    "cycles": ("group G\nbackend perm\ndegree 3\ngen a = {T}\nend\n", FixtureSyntaxError, 4),
    "generator": (PERM_T + "gen {T} = (1 2)\nend\n", DuplicateName, 5),
    "name": (C2_TEXT + AUT_T + "aut {T} on C2\n", DuplicateName, 9),
    "parameter": (C2_TEXT + "check fitting on C2 {T}\n", FixtureSyntaxError, 6),
    "parameter key": (C2_TEXT + "check fitting on C2 {T}=1 {T}=2\n", DuplicateName, 6),
    "check": (C2_TEXT + "check {T} on C2\ncheck {T} on C2\n", DuplicateName, 7),
    "check target": (C2_TEXT + "check fitting on {T}\n", UnresolvedReference, 6),
    "aut group": ("aut a on {T}\nend\n", UnresolvedReference, 1),
    "aut block": (C2_TEXT + "aut a on C2\n{T} 1\nend\n", FixtureSyntaxError, 7),
    "action aut": (C2_TEXT + "action act on C2 = {T}\n", UnresolvedReference, 6),
    "action aut group": (
        C2_TEXT + D8_TEXT + AUT_T + "action x on D8 = {T}\n", UnresolvedReference, 16
    ),
    "image generator": (S3_TEXT + "aut f on S3\nimage {T} = (1 2)\n", UnresolvedReference, 8),
    "image factor": (S3_TEXT + "aut f on S3\nimage a = {T}\n", UnresolvedReference, 8),
    "image twice": (
        PERM_T + "end\naut f on P\nimage {T} = (1 2)\nimage {T} = ()\n", DuplicateName, 8
    ),
}

PC_NAMED_T = "group {T}\nbackend pc\nprime 2\nngens 1\nend\naut f on {T}\n"  # a group named T
PERM_NAMED_T = "group {T}\nbackend perm\ndegree 2\ngen a = (1 2)\nend\naut f on {T}\n"

# site -> (text with a name at {T}, error type, line, message with the short
# name): the sites that echo a fixture name, which prints unquoted up to 40
# characters
NAME_SITES = {
    "group pc header": (
        "group {T}\nbackend pc\nend\n", FixtureSyntaxError, 1,
        "group tok: pc backend needs prime and ngens",
    ),
    "group pc presentation": (
        "group {T}\nbackend pc\nprime 4\nngens 1\nend\n", FixtureSyntaxError, 1,
        "group tok: modulus 4 is not prime",
    ),
    "group perm header": (
        "group {T}\nbackend perm\nend\n", FixtureSyntaxError, 1,
        "group tok: perm backend needs degree and generators",
    ),
    "group backend": (
        "group {T}\nend\n", FixtureSyntaxError, 1,
        "group tok: missing 'backend pc' or 'backend perm'",
    ),
    "group end": (
        "group {T}\n", FixtureSyntaxError, 1,
        "group tok: missing end",
    ),
    "aut end": (
        C2_TEXT + "aut {T} on C2\n", FixtureSyntaxError, 6,
        "aut tok: missing end",
    ),
    "aut pc image": (
        C2_TEXT + "aut {T} on C2\nend\n", FixtureSyntaxError, 6,
        "aut tok: missing image for generator(s) 1",
    ),
    "aut perm image": (
        S3_TEXT + "aut {T} on S3\nend\n", FixtureSyntaxError, 7,
        "aut tok: missing image for generator(s) a, b",
    ),
    "missing image generator": (
        PERM_T + "end\naut f on P\nend\n", FixtureSyntaxError, 6,
        "aut f: missing image for generator(s) tok",
    ),
    "pc image index": (
        PC_NAMED_T + "image 2 = 1^1\n", UnresolvedReference, 7,
        "no generator 2 in tok",
    ),
    "pc image factor": (
        PC_NAMED_T + "image 1 = 2^1\n", UnresolvedReference, 7,
        "no generator 2 in tok",
    ),
    "perm image generator": (
        PERM_NAMED_T + "image z = (1 2)\n", UnresolvedReference, 7,
        "no generator 'z' in tok",
    ),
    "perm image factor": (
        PERM_NAMED_T + "image a = z\n", UnresolvedReference, 7,
        "no generator 'z' in tok",
    ),
}


@pytest.mark.parametrize("site", [*ECHO_SITES, *NAME_SITES])
def test_a_refusal_clips_a_long_token_and_names_its_line(site):
    if site in NAME_SITES:
        text, error, line, short = NAME_SITES[site]
    else:
        (text, error, line), short = ECHO_SITES[site], "'tok'"
    with pytest.raises(error) as exc:
        parse_fixture(text.replace("{T}", LONG))
    message = str(exc.value)
    assert len(message) <= 200 and "(5000 characters)" in message
    assert exc.value.line == line and f"(line {line}" in message
    # a short token prints whole, as before
    with pytest.raises(error, match=re.escape(short)):
        parse_fixture(text.replace("{T}", "tok"))


def test_a_lookup_clips_a_long_name():
    fx = parse_fixture(C2_TEXT)
    for lookup in (fx.group, fx.aut, fx.action):
        with pytest.raises(UnresolvedReference) as exc:
            lookup(LONG)
        assert len(str(exc.value)) <= 200


# -- canonical serialization ----------------------------------------------


def test_round_trip_on_bundled_corpus():
    fx = corpus_fixture()
    text = serialize_fixture(fx)
    again = parse_fixture(text)
    assert again == fx
    assert serialize_fixture(again) == text


def test_round_trip_normalizes_noise():
    noisy = "# noise\ngroup G\nbackend pc\nprime 2\nngens 2\npow 1 = 2\nend\n"
    fx = parse_fixture(noisy)
    canonical = serialize_fixture(fx)
    assert "pow 1 = 2^1" in canonical
    assert "#" not in canonical
    assert parse_fixture(canonical) == fx


def test_serializer_emits_cycles_for_perm_groups():
    fx = parse_fixture(S3_TEXT)
    text = serialize_fixture(fx)
    assert "gen a = (1 2 3)" in text
    assert "gen b = (1 2)" in text


def test_bundled_corpus_matches_its_own_text():
    # comments aside, the shipped file and its canonical form describe
    # the same fixtures
    assert parse_fixture(corpus_text()) == corpus_fixture()
    canonical = serialize_fixture(corpus_fixture())
    assert "#" not in canonical
    assert parse_fixture(canonical) == corpus_fixture()


# -- realization -----------------------------------------------------------


def test_realize_groups_orders():
    groups = realize_groups(corpus_fixture())
    expected = {
        "C2": 2, "C3": 3, "C4": 4, "C9": 9, "C3xC3": 9,
        "D8pc": 8, "D8perm": 8, "Q8pc": 8, "Q8perm": 8,
        "Heis27": 27, "ES27": 27, "D16": 16,
        "S3": 6, "S4": 24, "A4": 12, "D8xC3": 24,
    }
    assert {name: G.order for name, G in groups.items()} == expected


def test_word_element_normal_form():
    fx = parse_fixture(D8_TEXT)
    G = build_group(fx.group("D8").presentation)
    g1, g2, g3 = G.generators
    x = word_element(G, ((1, 1), (3, 1)))
    assert x == G.multiply(g1, g3)
    assert word_element(G, ()) == G.identity


def test_realize_pc_automorphism_is_involution():
    fx = corpus_fixture()
    groups = realize_groups(fx)
    phi = realize_automorphism(fx.aut("c9inv"), groups["C9"])
    G = groups["C9"]
    g1 = G.generators[0]
    # inversion: g1 has order 9 so phi(g1) = g1^-1, and phi has order 2
    assert phi(g1) == G.inverse(g1)
    assert all(phi(phi(x)) == x for x in G.elements())


def test_realize_perm_automorphism_both_image_kinds():
    text = S3_TEXT + "\naut conj on S3\nimage a = (1 3 2)\nimage b = b\nend\n"
    fx = parse_fixture(text)
    groups = realize_groups(fx)
    phi = realize_automorphism(fx.aut("conj"), groups["S3"])
    G = groups["S3"]
    a = G.generator_by_name("a")
    assert phi(a) == G.inverse(a)


CONTRADICTED_IMAGE = """\
group P
backend perm
degree 3
gen a = (1 2)
gen b = (1 2 3)
gen c = {c}
end

aut bad on P
image a = (1 2)
image b = (1 2 3)
image c = {image}
end

action A on P = bad

check c4_6 on A
"""


@pytest.mark.parametrize("c, image", [("(1 2)", "(1 2 3)"), ("()", "(1 2)")])
def test_an_image_contradicting_the_other_generators_is_refused(c, image):
    # c repeats a, or is the identity, so the images of a and b fix its image
    fx = parse_fixture(CONTRADICTED_IMAGE.format(c=c, image=image))
    G = realize_groups(fx)["P"]
    with pytest.raises(MalformedSpec, match=rf"generator c = {re.escape(c)} is given "):
        realize_automorphism(fx.aut("bad"), G)


def test_word_images_are_read_from_the_table(monkeypatch):
    # a -> a^5 b^0 = a^-1 and b -> b^3 a^3 = b (conjugation by b), with
    # exponents past the orders and a zero one: the images equal the handle
    # products, and realization takes none
    text = S3_TEXT + "\naut conj on S3\nimage a = a^5 b^0\nimage b = b^3 a^3\nend\n"
    fx = parse_fixture(text)
    G = realize_groups(fx)["S3"]
    a, b = G.generator_by_name("a"), G.generator_by_name("b")
    want = [G.multiply(G.power(a, 5), G.power(b, 0)), G.multiply(G.power(b, 3), G.power(a, 3))]
    assert want == [G.inverse(a), b]
    H = build_group(PcPresentation(3, 3, {}, {(2, 1): ((3, 1),)}))
    g1, g2, g3 = H.generators
    word = H.multiply(H.multiply(H.power(g1, 2), g2), H.power(g3, 2))
    calls = []
    for attr in ("multiply", "power", "inverse", "commutator"):
        orig = getattr(FiniteGroup, attr)
        monkeypatch.setattr(
            FiniteGroup, attr, lambda self, *args, _o=orig: calls.append(args) or _o(self, *args)
        )
    phi = realize_automorphism(fx.aut("conj"), G)
    assert word_element(H, ((1, 2), (2, 1), (3, 2))) == word
    assert calls == []
    assert [phi(a), phi(b)] == want


def test_realize_rejects_non_automorphism_images():
    # g1 and g2 generate C3xC3; sending both to g1 is not injective
    text = "group V\nbackend pc\nprime 3\nngens 2\nend\naut bad on V\nimage 1 = 1\nimage 2 = 1\nend\n"
    fx = parse_fixture(text)
    groups = realize_groups(fx)
    with pytest.raises(MalformedSpec):
        realize_automorphism(fx.aut("bad"), groups["V"])


def test_realize_automorphisms_bulk():
    fx = corpus_fixture()
    groups = realize_groups(fx)
    auts = realize_automorphisms(fx, groups)
    assert set(auts) == {"c33invx", "c33invy", "c33inv", "h27invx", "h27invy", "c9inv"}
    assert all(a.order() in (2,) for a in auts.values())
