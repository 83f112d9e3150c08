"""
Building finite groups from presentations
==========================================

Two backends share one interface: power-commutator presentations for
p-groups (the table built by cyclic extensions) and permutation generators
for everything else (multiplication by composition).
"""

from grouplab import PcPresentation, PermutationGenSet, build_group, perm_from_cycles

# The dihedral group of order 8: g1 a reflection, g2 the rotation,
# g3 = g2^2 the central half-turn. Relations: g2^2 = g3, [g2, g1] = g3.
d8 = build_group(
    PcPresentation(2, 3, powers={2: ((3, 1),)}, commutators={(2, 1): ((3, 1),)})
)
print("D8 order:", d8.order)
print("D8 exponent:", d8.exponent())

g1, g2, g3 = d8.generators
print("g2 * g2 =", g2 * g2)            # the power relation g2^2 = g3
print("[g2, g1] =", d8.commutator(g2, g1))
print("g2 has order", g2.order(), "and g2^-1 =", g2.inverse())

# Every element has a unique normal form g1^a g2^b g3^c.
print("all eight elements:", ", ".join(repr(x) for x in d8.elements()))

# The same group as permutations of the square's corners.
r = perm_from_cycles(4, [[1, 2, 3, 4]])
s = perm_from_cycles(4, [[2, 4]])
d8p = build_group(PermutationGenSet(4, (("r", r), ("s", s))))
print("\npermutation model order:", d8p.order)

rr = d8p.generator_by_name("r")
print("r^2 =", rr ** 2)
print("element orders:", sorted(d8p.element_order(x) for x in d8p.elements()))

# Left-normed iterated commutators [x, y, z] = [[x, y], z].
a, b = rr, d8p.generator_by_name("s")
print("[r, s, s] =", d8p.long_commutator([a, b, b]))
