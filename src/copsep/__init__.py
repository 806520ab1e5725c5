"""Blind source separation with parametric copula models of the residual
dependence between recovered components.

The pipeline: whiten the observations, rotate them toward independence,
group components that stay dependent, and fit a copula to each group. The
report quantifies model fit by a divergence that splits exactly into a
mutual-information term and a copula-entropy term.
"""
from .copulas import (
    FAMILY_NAMES,
    ClaytonCopula,
    FactorialCopula,
    GaussianCopula,
    GumbelCopula,
    ProductCopula,
    copula_entropy,
    fit_copula,
    kendall_tau,
    normal_scores_correlation,
    stationarity_residual,
)
from .exceptions import (
    BlockFitError,
    CopsepError,
    DegenerateDependenceError,
    DegenerateInputError,
    FamilyDomainError,
    NonConvergenceError,
)
from .ica import fastica, mutual_information, normalize_components
from .inference import (
    FitReport,
    average_log_likelihood,
    cca_fit,
    detect_partition,
    fit_dependence,
    kl_decomposition,
    select_family,
)
from .margins import (
    MarginalModel,
    PseudoObservations,
    margin_ppf,
    marginal_quantile,
    pseudo_observations,
    sample_margin,
)
from .signals import (
    BlockPartition,
    SeparationModel,
    SignalMatrix,
    align_permutation,
    amari_index,
    center_and_whiten,
    mix,
)

__version__ = "0.1.0"
