"""A ratchet on the library's reach: no function outside a pinned list goes unentered.

tests/reach.py runs the benchmark ops, the demos and the CLI under a call
hook and prints every function of src/grouplab that none of them entered.
Each such function is pinned below with the reason it stays: public API
(named in grouplab.__all__ or the README, or the helper of such a name),
error naming (it builds the message of a refusal the entry points never
meet), a verifier of a public constructor, or a Python protocol method.
The list can only shrink: a new function that nothing enters fails the
test, and so does a pinned one that is entered or gone, until its line is
deleted here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

API = "public API"
ERROR = "error naming"
VERIFIER = "verifier of a public constructor"
PROTOCOL = "Python protocol method"

PINNED = {
    "checks.py:CheckReport.to_json": API,
    "corpus.py:bundled_isomorphisms": API,
    "errors.py:FixtureSyntaxError.__init__": ERROR,
    "fixtures.py:FixtureFile.group": API,
    "fixtures.py:FixtureFile.aut": API,
    "fixtures.py:FixtureFile.action": API,
    "fixtures.py:_shown": ERROR,
    "fixtures.py:_format_word": API,  # serialize_fixture's
    "fixtures.py:serialize_fixture": API,
    "gfp.py:rank": VERIFIER,  # GradedAutomorphism's
    "gfp.py:is_invertible": VERIFIER,  # GradedAutomorphism's
    "groups.py:GroupElement.__eq__": PROTOCOL,
    "groups.py:GroupElement.__hash__": PROTOCOL,
    "groups.py:FiniteGroup.__init__": VERIFIER,
    "groups.py:FiniteGroup.backend": API,
    "groups.py:FiniteGroup.element": API,
    "groups.py:FiniteGroup.conjugate": API,
    "groups.py:FiniteGroup.__repr__": PROTOCOL,
    "groups.py:GroupHomomorphism.__init__": API,  # fixtures verify on generator image indices
    "groups.py:GroupHomomorphism.__call__": PROTOCOL,
    "groups.py:Automorphism.__init__": API,
    "groups.py:Automorphism.identity_of": API,
    "groups.py:Automorphism.order": API,
    "groups.py:Automorphism.__eq__": PROTOCOL,
    "groups.py:Automorphism.__hash__": PROTOCOL,
    "groups.py:Automorphism.__repr__": PROTOCOL,
    "groups.py:inner_automorphism": API,
    "identities.py:GroupWord.inverse": API,
    "identities.py:GroupWord.product": API,
    "kernels.py:_first_failing_pair": ERROR,
    "kernels.py:_first_escape": ERROR,
    "kernels.py:_normalized": API,  # Subgroup.is_normal's
    "kernels.py:_coset_reps": API,  # QuotientGroup's
    "liering.py:LieElement.degree": API,
    "liering.py:LieElement.is_zero": API,
    "liering.py:LieElement.__eq__": PROTOCOL,
    "liering.py:LieElement.__hash__": PROTOCOL,
    "liering.py:GradedLieRing.element": API,
    "liering.py:GradedLieRing.degree_index": API,
    "liering.py:GradedLieRing.__repr__": PROTOCOL,
    "liering.py:_first_pair": ERROR,
    "liering.py:GradedSubspace.whole": API,
    "liering.py:GradedSubspace.zero": API,
    "liering.py:GradedSubspace.degrees": API,
    "liering.py:GradedSubspace.__hash__": PROTOCOL,
    "liering.py:GradedSubspace.__repr__": PROTOCOL,
    "liering.py:GradedAutomorphism.__init__": VERIFIER,
    "liering.py:GradedAutomorphism.matrix": API,
    "liering.py:GradedAutomorphism._verify": VERIFIER,
    "liering.py:GradedAutomorphism.__eq__": PROTOCOL,
    "liering.py:GradedAutomorphism.__hash__": PROTOCOL,
    "liering.py:GradedAutomorphism.__repr__": PROTOCOL,
    "series.py:Subgroup.__init__": VERIFIER,
    "series.py:Subgroup.is_normal": API,
    "series.py:Subgroup.elements": API,
    "series.py:Subgroup.contains": API,
    "series.py:Subgroup.__contains__": PROTOCOL,
    "series.py:Subgroup.__hash__": PROTOCOL,
    "series.py:Subgroup.__repr__": PROTOCOL,
    "series.py:trivial_subgroup": API,
    "series.py:generated_subgroup": API,
    "series.py:normal_closure": API,
    "series.py:NormalSeries.__post_init__": VERIFIER,
    "series.py:NormalSeries.__len__": PROTOCOL,
    "series.py:NormalSeries.__repr__": PROTOCOL,
    "series.py:Verdict.__bool__": PROTOCOL,
    "series.py:QuotientGroup.__init__": API,
    "series.py:QuotientGroup.project": API,
    "series.py:QuotientGroup.lift": API,
    "series.py:QuotientGroup.__repr__": PROTOCOL,
}


def never_entered() -> list:
    """FILE:QUALNAME of every function tests/reach.py reports, in its order."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "reach.py")],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.splitlines()
    *listed, total = out
    names = [line.split()[0] for line in listed]
    assert total.startswith(f"{len(names)} functions, ")
    return names


def test_every_function_no_entry_point_enters_is_pinned_and_every_pin_is_unentered():
    listed = never_entered()
    assert len(set(listed)) == len(listed)
    assert sorted(set(listed) - set(PINNED)) == [], "never entered and not pinned"
    assert sorted(set(PINNED) - set(listed)) == [], "pinned but entered or gone: unpin it"
