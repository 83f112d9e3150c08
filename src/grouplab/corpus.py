"""The bundled corpus: parsed fixture, realized run context, bundled isomorphisms."""

from importlib import resources

from .checks import RunContext
from .fixtures import FixtureFile, parse_fixture
from .groups import GroupHomomorphism


def corpus_text() -> str:
    return (
        resources.files("grouplab").joinpath("data/corpus.grp").read_text("utf-8")
    )


def corpus_fixture() -> FixtureFile:
    return parse_fixture(corpus_text())


def load_corpus() -> RunContext:
    """The corpus fixture with every group, automorphism and action realized."""
    return RunContext(corpus_fixture())


def bundled_isomorphisms(corpus: RunContext | None = None) -> dict:
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
