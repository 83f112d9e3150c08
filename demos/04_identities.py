"""
Lie polynomials and group words
===============================

Formal identities evaluated over concrete structures: multilinear Lie
laws verified on a basis, arbitrary laws by exhaustion, and group-word
laws checked over all substitutions.
"""

from grouplab import (
    GroupWord,
    LiePolynomial,
    build_dl,
    engel_index_of_element,
    group_satisfies,
    higman_polynomial,
    holds_identity,
    is_n_engel_algebra,
)
from grouplab.corpus import load_corpus

corpus = load_corpus()
d8 = corpus.groups["D8pc"]
L = build_dl(d8)

# A left-normed monomial [x0, x1, x2] plus its transposed twin.
f = LiePolynomial.monomial([0, 1, 2]) + LiePolynomial.monomial([0, 2, 1])
print("polynomial:", f)
print("multilinear:", f.is_multilinear)

# The exponent-4 symmetrized power law: all 6 orderings of three
# variables, summed. It vanishes on the graded algebra of any
# exponent-4 group.
h4 = higman_polynomial(4)
print("degree-4 law has", len(h4.terms), "monomials")
print("holds on the D8 algebra:", holds_identity(h4, L).ok)

# Engel depth: how many times must one bracket against x to kill
# everything.
print("algebra is 2-Engel:", is_n_engel_algebra(L, 2).ok)

g1, g2, g3 = d8.generators
print("Engel index of g2 in the group:", engel_index_of_element(d8, g2))
print("Engel index of the central g3:", engel_index_of_element(d8, g3))

# Group words: [x1, x2]^3 = 1 is a law of S3 (commutators land in the
# 3-cycle subgroup), but [x1, x2]^2 = 1 is not.
s3 = corpus.groups["S3"]
comm = GroupWord.commutator(GroupWord.var(1), GroupWord.var(2))
cube = GroupWord.power(comm, 3)
square = GroupWord.power(comm, 2)
print("\nword:", cube)
print("S3 satisfies [x1,x2]^3 = 1:", group_satisfies(cube, s3).ok)
verdict = group_satisfies(square, s3)
print("S3 satisfies [x1,x2]^2 = 1:", verdict.ok, "witness:", verdict.witness)
