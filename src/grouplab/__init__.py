"""grouplab: finite groups, their graded Lie rings over F_p, and lemma checks.

Build small groups from power-commutator or permutation presentations,
walk their central and p-dimension series, construct the associated graded
Lie algebra, evaluate formal Lie polynomials and group words, and run the
bundled theorem-check catalog over a corpus of fixture groups.
"""

from ._version import __version__
from .actions import ActionFixture, realize_actions
from .checks import (
    ACTION_CHECKS,
    CHECK_CATALOG,
    GROUP_CHECKS,
    CheckReport,
    CheckRow,
    check_4_1,
    check_4_2,
    check_4_6,
    check_4_12,
    check_collection_formula,
    check_lemma_3_3,
    check_lemma_3_4,
    check_theorem_4_3_instance,
    check_theorem_4_4_instance,
    run_checks,
)
from .corpus import bundled_isomorphisms, corpus_fixture, corpus_text, load_corpus
from .errors import (
    ActionNotWellDefined,
    BudgetExceeded,
    DuplicateName,
    EmptySequence,
    EvenCharacteristic,
    FixtureSyntaxError,
    ForeignElement,
    GroupLabError,
    HypothesisNotMet,
    InconsistentPresentation,
    MalformedSpec,
    MismatchedAlgebra,
    MismatchedParent,
    NonElementaryQuotient,
    NotAPGroup,
    NotInvolution,
    NotNormal,
    NotSolvable,
    TrivialImage,
    UnknownCheck,
    UnresolvedReference,
)
from .fixtures import (
    FixtureFile,
    parse_fixture,
    realize_automorphisms,
    realize_groups,
    serialize_fixture,
)
from .groups import (
    Automorphism,
    FiniteGroup,
    GroupElement,
    GroupHomomorphism,
    PcPresentation,
    PermutationGenSet,
    build_group,
    cycles_of,
    inner_automorphism,
    perm_from_cycles,
)
from .identities import (
    GroupWord,
    LiePolynomial,
    engel_index_of_element,
    group_satisfies,
    higman_polynomial,
    holds_identity,
    is_n_engel_algebra,
    left_normed,
)
from .liering import (
    DecompositionWitness,
    GradedAutomorphism,
    GradedLieRing,
    GradedSubspace,
    LieElement,
    build_dl,
    centralizer_subalgebra,
    check_cor_2_14,
    check_prop_2_11,
    commutator_shapes,
    decomposition_witness,
    induced_action,
    lazard_check,
    plus_minus_split,
    subgroup_graded_algebra,
)
from .series import (
    GroupProfile,
    NormalSeries,
    QuotientGroup,
    Subgroup,
    Verdict,
    centralizer,
    commutator_subgroup,
    derived_series,
    dimension_series,
    fitting_height,
    generated_subgroup,
    is_nilpotent_subgroup,
    is_powerful,
    lower_central_series,
    normal_closure,
    power_subgroup,
    structure_predicates,
    trivial_subgroup,
    verify_np_series,
    whole_subgroup,
)

__all__ = [name for name in dir() if not name.startswith("_")]
