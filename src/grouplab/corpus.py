"""The bundled corpus: parsed fixture, realized objects, bundled isomorphisms."""

from dataclasses import dataclass
from importlib import resources

from .actions import realize_actions
from .fixtures import (
    FixtureFile,
    parse_fixture,
    realize_automorphisms,
    realize_groups,
)
from .groups import GroupHomomorphism


def corpus_text() -> str:
    return (
        resources.files("grouplab").joinpath("data/corpus.grp").read_text("utf-8")
    )


def corpus_fixture() -> FixtureFile:
    return parse_fixture(corpus_text())


@dataclass(frozen=True)
class Corpus:
    fixture: FixtureFile
    groups: dict
    automorphisms: dict
    actions: dict


def load_corpus() -> Corpus:
    fx = corpus_fixture()
    groups = realize_groups(fx)
    auts = realize_automorphisms(fx, groups)
    actions = realize_actions(fx, groups, auts)
    return Corpus(fx, groups, auts, actions)


def bundled_isomorphisms(corpus: Corpus | None = None) -> dict:
    """Verified pc-to-perm isomorphisms for the doubly-modeled groups."""
    if corpus is None:
        corpus = load_corpus()
    groups = corpus.groups
    d8 = groups["D8perm"]
    r, s = d8.generator_by_name("r"), d8.generator_by_name("s")
    q8 = groups["Q8perm"]
    i, j = q8.generator_by_name("i"), q8.generator_by_name("j")
    return {
        "D8": GroupHomomorphism(
            groups["D8pc"], d8, [s, r, d8.multiply(r, r)]
        ),
        "Q8": GroupHomomorphism(
            groups["Q8pc"], q8, [i, j, q8.multiply(i, i)]
        ),
    }
