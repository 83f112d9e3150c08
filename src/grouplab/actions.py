"""Groups of automorphisms acting on a fixed group.

An action fixture names a handful of generating automorphisms; the acting
group A is the permutation group they generate on the element indices of
the group, built by build_group like any other permutation group, so it is
capped at TABLE_CAP elements.  A# (the nontrivial elements) keeps a
deterministic order: the fixture's generators first, then the rest of A in
key order (sorted index maps), so that ordered-product checks are
reproducible.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import MismatchedParent
from .fixtures import _realized
from .groups import Automorphism, FiniteGroup, PermutationGenSet, build_group


@dataclass(frozen=True)
class ActionFixture:
    name: str
    group: FiniteGroup
    generators: tuple
    closure: tuple = field(init=False, compare=False)
    nontrivial: tuple = field(init=False, compare=False)
    coprime: bool = field(init=False, compare=False)
    _acting: FiniteGroup = field(init=False, compare=False, repr=False)  # A itself

    def __post_init__(self):
        G = self.group
        for phi in self.generators:
            if phi.group is not G:
                raise MismatchedParent(
                    f"automorphism in action {self.name!r} acts on a different group"
                )
        A = build_group(
            PermutationGenSet(
                G.order,
                tuple((f"a{k}", phi.image_indices) for k, phi in enumerate(self.generators)),
            )
        )
        # the identity, then the generators not met before, then the rest in key order
        order = dict.fromkeys([A._e, *A._gens.tolist(), *range(A.order)])
        closure = tuple(Automorphism._trusted(G, A._keys[i]) for i in order)
        object.__setattr__(self, "_acting", A)
        object.__setattr__(self, "closure", closure)
        object.__setattr__(self, "nontrivial", closure[1:])
        object.__setattr__(self, "coprime", math.gcd(A.order, G.order) == 1)

    @property
    def order(self) -> int:
        return len(self.closure)

    def is_cyclic(self) -> bool:
        return self._acting.exponent() == self.order

    def noncyclic_q_squared(self) -> Optional[int]:
        """q when A is noncyclic of order q*q for a prime q, else None."""
        n = self.order
        q = math.isqrt(n)
        if q * q != n or self.is_cyclic():
            return None
        for d in range(2, q + 1):
            if q % d == 0:
                return d if d == q else None
        return None

    def single_involution(self) -> Optional[Automorphism]:
        """The unique generator, when there is exactly one and it has order 2."""
        if len(self.generators) == 1 and self.order == 2:
            return self.generators[0]
        return None


def realize_actions(fx, groups: dict, auts: dict) -> dict:
    """ActionFixture per action entry of a parsed fixture file; a refusal names its action."""
    return {
        entry.name: _realized(
            "action",
            entry.name,
            ActionFixture,
            entry.name,
            groups[entry.group],
            tuple(auts[name] for name in entry.auts),
        )
        for entry in fx.actions
    }
