"""Partial sums of completely multiplicative functions that stay close to
their mean: sieved evaluation, discrepancy profiles, modified characters
with exact recursions, pretentious distance, window constructions, and
Dirichlet-series checks."""

__version__ = "0.1.0"

from .arith import (
    UnitGroup,
    crt_solve,
    euler_phi,
    factor,
    is_prime,
    primes_upto,
    squarefree_block,
    unit_group,
)
from .characters import (
    DirichletCharacter,
    GrowthWitness,
    RecursionState,
    character_by_index,
    character_table,
    deviation_primes,
    first_nonzero_sigma,
    growth_witness,
    iterate_check,
    modified_spec,
    recursion_state,
    s_restricted,
    sigma_many,
    sigma_recursion,
)
from .errors import CapacityError, InfeasibleError, SearchError
from .lab import (
    ConcentrationReport,
    GrowthProfile,
    RandomWalkSummary,
    RotationWitness,
    SquarefreePair,
    concentration_experiment,
    decade_checkpoints,
    dyadic_checkpoints,
    factorize_big,
    growth_profile,
    is_squarefree_big,
    random_walk_mc,
    rotation_witness,
    squarefree_pair,
)
from .multfun import (
    CharacterTwist,
    CoprimeIndicator,
    Liouville,
    MultFnSpec,
    One,
    PartialSumProfile,
    RandomRademacher,
    SievedRange,
    build_spec,
    eval_range,
    is_exact_spec,
    is_real_spec,
    iter_blocks,
    make_spec,
    prime_unit_value,
    spec_config,
    stream_profile,
    thread_cap,
)
from .pretentious import (
    DistanceResult,
    MeanValueReport,
    delange_mean,
    distance,
    f_of_q_sum,
    perturbation_constant,
)
from .series import (
    SeriesCheck,
    dirichlet_partial,
    finite_product_P,
    l_chi,
    residual_check,
    zeta,
)

__all__ = [name for name in dir() if not name.startswith("_")]
