"""Learning with Hamming-local membership queries on the boolean cube.

The package pairs a positive result with its matching negative machinery:
a two-phase DNF learner that only ever queries one flip away from its
training data, and a family of reductions showing how locality budgets can
be neutralized for automata, DNFs, juntas, decision trees and sparse
polynomials. Everything is verified exhaustively at desk scale.
"""

from .cube import (
    ENUMERATION_CAP,
    CubePoint,
    DimensionMismatch,
    ReplicateMap,
)
from .concepts import (
    Concept,
    DecisionTree,
    Dfa,
    DnfFormula,
    Junta,
    Leaf,
    Node,
    PolyConcept,
    SparsePoly,
    SparsePtf,
    Term,
    dnf_of_tree,
    maj_poly,
)
from .distributions import (
    Distribution,
    FiniteSupport,
    LabeledSample,
    ProductDist,
    UniformCube,
    exact_loss,
    mc_loss,
    pushforward,
    sample,
)
from .oracle import (
    BudgetExhausted,
    LocalityViolation,
    LocalMQOracle,
    OracleStats,
    draw_training_set,
)
from .evident import (
    EvidenceReport,
    doubling_dnf,
    evidence_report,
    flips_reveal_term,
    gen_opposite_literal_dnf,
    satisfies_evidently,
)
from .learner import (
    LearnerRun,
    SampleSizePlan,
    learn_evident_dnf,
    learn_evident_dnf_run,
    plan_samples,
    reconstruct_term,
)
from .reductions import (
    CONSTRUCTIONS,
    ComposedConcept,
    QReduction,
    ReductionReport,
    SynthesizedLabels,
    build_block_checker,
    build_block_simulator,
    build_detector,
    dfa_product_or,
    make_reduction,
    reduce_dfa_type_a,
    reduce_dnf_type_a,
    reduce_junta_type_b,
    reduce_poly_type_b,
    reduce_ptf_type_b,
    reduce_tree_type_b,
    simulate_pac_from_local,
    verify_reduction,
)
from .harness import (
    ExperimentConfig,
    SuiteReport,
    TrialReport,
    derive_seed,
    doubled_tree_family,
    opposite_literal_family,
    run_learning_suite,
    run_reconstruction_corpus,
    run_reduction_suite,
    run_trial,
)

__version__ = "0.1.0"
