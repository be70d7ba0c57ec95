"""Model-based clustering with entropic optimal transport.

Core pieces: Gaussian mixture containers and densities (`mixtures`), the
log-domain Sinkhorn E-step and entropic loss (`sinkhorn`), EM / Sinkhorn-EM
fitters with weight inference (`fitting`), baselines and scoring
(`metrics`), the exact population analysis of the symmetric two-Gaussian
mixture (`twogauss`), latent-block-model co-clustering (`coclustering`),
and a reproducible experiment harness (`harness`, CLI in `cli`).
"""

from types import ModuleType as _ModuleType

from .mixtures import (
    Dataset,
    MixtureParams,
    Responsibilities,
    VARIANCE_FLOOR,
    VarianceSpec,
    component_log_densities,
    neg_loglik,
    sample_mixture,
)
from .sinkhorn import (
    EntropicGradient,
    SinkhornConfig,
    SinkhornNonConvergence,
    SinkhornSolution,
    grad_loss_entropic,
    loss_entropic,
    loss_entropic_semidual,
    sinkhorn_estep,
    tilt_weights,
    transport_responsibilities,
)
from .fitting import (
    EmptyComponentError,
    FitConfig,
    FitReport,
    em_fit,
    mstep_gaussian,
    sem_fit,
)
from .metrics import (
    ManyFitOneDiagnostic,
    adjusted_rand_index,
    balance_residual,
    bic_score,
    center_error,
    covering_radius,
    kmeanspp_init,
    lloyd_kmeans,
    many_fit_one_excluded,
    matched_center_error,
    select_k,
)
from .twogauss import (
    PopulationIterates,
    TwoGaussModel,
    count_stationary,
    loss_curves,
    map_F,
    map_G,
    population_iterates,
    solve_tilt,
)
from .coclustering import (
    BlockModel,
    BlockResponsibilities,
    EmptyBlockError,
    block_score,
    random_block_init,
    sample_block_data,
    svem_fit,
    vem_fit,
)
from .harness import (
    ExperimentSpec,
    run_experiment,
    run_selection_sweep,
    run_spurious_demo,
    spec_from_config,
)

__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
