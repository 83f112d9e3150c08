"""Automorphism groups acting on a fixed group, with closure bookkeeping.

An action fixture names a handful of generating automorphisms; the full
acting group A is their closure under composition. A# (the nontrivial
elements) keeps a deterministic order: the fixture's generators first,
then the remaining closure elements sorted by their index maps, so that
ordered-product checks are reproducible.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .errors import BudgetExceeded, MismatchedParent
from .groups import Automorphism, FiniteGroup

CLOSURE_BUDGET = 10**4


@dataclass(frozen=True)
class ActionFixture:
    name: str
    group: FiniteGroup
    generators: tuple
    closure: tuple = field(init=False, compare=False)
    nontrivial: tuple = field(init=False, compare=False)
    coprime: bool = field(init=False, compare=False)

    def __post_init__(self):
        for phi in self.generators:
            if phi.group is not self.group:
                raise MismatchedParent(
                    f"automorphism in action {self.name!r} acts on a different group"
                )
        closure = _close(self.generators)
        ident = Automorphism.identity_of(self.group)
        ordered = []
        for phi in self.generators:
            if phi != ident and phi not in ordered:
                ordered.append(phi)
        rest = sorted(
            (phi for phi in closure if phi != ident and phi not in ordered),
            key=lambda phi: phi.image_indices,
        )
        ordered.extend(rest)
        object.__setattr__(self, "closure", (ident,) + tuple(ordered))
        object.__setattr__(self, "nontrivial", tuple(ordered))
        object.__setattr__(
            self, "coprime", math.gcd(1 + len(ordered), self.group.order) == 1
        )

    @property
    def order(self) -> int:
        return len(self.closure)

    @cached_property
    def _orders(self) -> tuple:
        """The order of each closure element, aligned with closure; computed once."""
        return tuple(phi.order() for phi in self.closure)

    def is_cyclic(self) -> bool:
        return self.order in self._orders

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
        if len(self.generators) != 1:
            return None
        (phi,) = self.generators
        return phi if self._orders[self.closure.index(phi)] == 2 else None


def _close(generators) -> set:
    if not generators:
        return set()
    found = set(generators)
    frontier = list(generators)
    while frontier:
        if len(found) > CLOSURE_BUDGET:
            raise BudgetExceeded("automorphism closure exceeded the budget")
        nxt = []
        for phi in frontier:
            for gen in generators:
                prod = phi.compose(gen)
                if prod not in found:
                    found.add(prod)
                    nxt.append(prod)
        frontier = nxt
    ident = Automorphism.identity_of(next(iter(generators)).group)
    found.add(ident)
    return found


def realize_actions(fx, groups: dict, auts: dict) -> dict:
    """ActionFixture per action entry of a parsed fixture file."""
    out = {}
    for entry in fx.actions:
        G = groups[entry.group]
        gens = tuple(auts[name] for name in entry.auts)
        out[entry.name] = ActionFixture(entry.name, G, gens)
    return out
