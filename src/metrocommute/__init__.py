"""Commutativity-condition classification and Fisher-information tools for
unitarily encoded quantum states."""

from .operator_core import (
    ValidationError,
    hermitian_eig,
    is_psd,
    matrix_exp_i,
    partial_trace,
    swap_operator,
    tensor,
    trace_norm,
)
from .states import (
    BellDiagonal,
    DensityMatrix,
    PovmSet,
    SpectralData,
    bell_diagonal,
    density_from_eigpairs,
    density_matrix,
    povm_set,
    state_marginal,
    tensor_power,
    white_noise_state,
)
from .encoding import EncodingPoint, HamiltonianSet, encode, evolve, hamiltonian_set
from .sld import CfimResult, SldSet, cfim, nu_copy_sld, sld_encoded, sld_lyapunov, sld_rotated
from .conditions import (
    ClassificationReport,
    ConditionOperators,
    OperatorConditionMatrix,
    ScalarConditionMatrix,
    SupportKernelTerms,
    classify,
    condition_operators_direct,
    pc_trace_norm,
    rank_two_ks,
    rank_two_ss_prime,
    support_kernel_decomposition,
    weak_decomposed,
    weak_direct,
    weak_integral,
    weak_rank_two,
    weak_series_truncation,
)
from .metrology import (
    IncompatibilityResult,
    QfimResult,
    incompatibility,
    qcr_scalar,
    qfim,
    qfim_additivity,
    verify_fc_order,
)
from .examples import (
    EXAMPLE_IDS,
    ExampleReport,
    default_parameters,
    example_configuration,
    run_all,
    run_example,
)
from .descriptors import (
    ProblemDescriptor,
    parse_descriptor,
    resolve,
    serialize_descriptor,
    sweepable_parameters,
    with_parameter,
)
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
