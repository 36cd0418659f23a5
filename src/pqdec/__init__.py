"""Private decoupling of bipartite quantum states.

Tools for studying how much of the correlation between a reference system
and a partner system survives when the partner is split by an isometry into
a kept output and a discarded output, with the discarded share capped by a
privacy level.  The package provides the entropic bounds on that residue,
closed-form isometries that achieve it in structured cases, a multistart
numerical optimizer for everything else, and reproducible scenario checks.
"""

from .decoupling import (
    BoundsReport,
    DecouplingOutcome,
    OptimizerOptions,
    SweepResult,
    SweepRow,
    UNBOUNDED,
    apply_isometry,
    bounds_report,
    decoupling_scores,
    half_qmi_upper,
    optimize_xi,
    outcome_isometry,
    povm_upper,
    prop1_lower,
    rates_sweep,
    xi_infinity,
)
from .entropics import (
    coherent_information,
    conditional_mutual_information,
    entropy,
    mutual_information,
    subsystem_entropy,
)
from .isometries import (
    Isometry,
    RankOnePovm,
    bell_shredder,
    mub_shredder,
    pauli_twirl_isometry,
    povm_isometry,
    random_unitary_channel_dilation,
    twirl_isometry,
)
from .qmat import (
    DimSig,
    ValidationError,
    kron,
    partial_trace,
    trace_distance,
    validate_density,
)
from .states import (
    DensityMatrix,
    PureState,
    append_maximally_mixed,
    as_density,
    classically_correlated,
    isotropic,
    max_entangled,
    merge_labels,
    purify,
    random_density,
    random_pure,
    random_separable,
    random_unitary,
    to_density,
)

__version__ = "0.1.0"
