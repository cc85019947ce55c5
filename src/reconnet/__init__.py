"""Maximum-entropy reconstruction of directed financial networks.

Fits fitness-driven exponential random graph ensembles from aggregate
exposures (density alone, or density plus global link reciprocity),
samples them, and measures how well the ensembles reproduce structural
and spectral properties of observed networks.
"""

from .ensemble import (
    EnsembleConfig,
    EnsembleSummary,
    derive_subseed,
    expected_metrics,
    generate_ensemble,
    sample_network,
    sample_networks,
    z_score,
)
from .estimation import (
    SolverConfig,
    SolverReport,
    fit_degree_model,
    fit_fdcm,
    fit_fgrm,
    solve_bounded_least_squares,
)
from .graph import (
    DirectedNetwork,
    StructuralMetrics,
    degrees_strengths,
    density,
    dyad_census,
    reciprocity,
)
from .ingest import (
    AggregationWindow,
    FitnessData,
    TransactionTable,
    aggregate,
    build_windows,
    fitness_from_strengths,
    parse_transactions,
    synth_fitness,
    synth_transactions,
)
from .models import FittedModel, ModelKind, dyad_probability_arrays
from .serialize import read_transactions
from .spectral import (
    BulkShape,
    Spectrum,
    TauMatrix,
    bulk_shape,
    eigenvalues,
    leading_eigenvalue,
    rescale_matrix,
    spectral_radius,
    tau_matrix,
)
from .validation import (
    RhoScanResult,
    RocResult,
    cross_entropy,
    extract_rho_landmarks,
    mann_whitney_auc,
    rho,
    roc_auc,
    scan_aggregations,
)

__version__ = "0.1.0"
