"""Partial matchings, deficiency, and admissible partitions in abelian groups."""

from .errors import (
    DeltoidError,
    InfiniteRhoError,
    InternalInconsistencyError,
    InvalidInputError,
    NoConstructionError,
    ResourceLimitError,
    UnsupportedInfiniteGroupError,
)
from .groups import (
    GroupSet,
    GroupSpec,
    canonicalize,
    compose,
    cosets_of,
    elements_of,
    enumerate_subgroups,
    format_group,
    generate_subgroup,
    invert,
    order,
    parse_group,
)
from .matching import (
    PartialMatching,
    Verdict,
    deficiency,
    deficiency_by_subsets,
    max_matching,
    partial_matching_with_defect,
    verify_matching,
)
from .partition import (
    AdmissiblePartition,
    lambda_,
    lambda_by_feasibility,
    lambda_lower_bound,
    partition_left,
    partition_right,
    rho,
    rho_by_feasibility,
    rho_by_pairs,
    rho_estimate_from_witness,
    validate_partition,
)
from .sets import (
    Deltoid,
    build_deltoid,
    chowla_defect,
    delta_set,
    max_progression_length,
    u_set,
)
from .structure import (
    ObstructionWitness,
    construct_deficient_pair,
    existence_predicate,
    find_witness,
    verify_witness,
)
from .transform import (
    StabilizerPair,
    best_stabilizer_pair,
    deficiency_by_subgroups,
    e_transform_step,
    stabilize,
)

__version__ = "0.1.0"
