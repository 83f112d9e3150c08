"""
Coprime actions and the check harness
=====================================

Automorphism groups acting coprimely on a group leave fingerprints on
both the group (fixed-point subgroups, inverted sets) and its graded
algebra (fixed subalgebras, eigenspace splittings). The harness runs
every applicable check over every fixture and emits one report row per
pair.
"""

from grouplab import (
    centralizer,
    check_4_1,
    check_4_12,
    induced_action,
    plus_minus_split,
    run_checks,
)
from grouplab.corpus import corpus_fixture, load_corpus

corpus = load_corpus()

# A Klein four-group of involutions acting on C3 x C3: each involution
# fixes one axis, and those axes together generate the whole group.
klein = corpus.actions["kleinC33"]
print("acting group order:", klein.order, "- coprime:", klein.coprime)
print(check_4_1(klein).detail)

# Inversion on C9: no fixed points, every element inverted, and each
# group element splits uniquely as (inverted) * (fixed).
c9 = corpus.groups["C9"]
inv = corpus.automorphisms["c9inv"]
print("\nfixed subgroup order:", centralizer(c9, [inv]).order)
print(check_4_12(c9, inv).detail)

# The same involution, pushed to the graded algebra, splits it into
# +1 and -1 eigenspaces with the expected bracket containments.
from grouplab import build_dl

L = build_dl(c9)
split = plus_minus_split(L, induced_action(inv, L))
print("plus dims:", split.plus.dims(), "minus dims:", split.minus.dims())

# The full harness: one row per (fixture, applicable check), sorted and
# deterministic.
report = run_checks(corpus_fixture(), ["c4_1,c4_12,pm_split,obs_4_8"])
print()
print(report.to_table())
