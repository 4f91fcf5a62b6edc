"""Complementary set partitions, generalized cumulants and polykay estimators.

The package covers four layers:

* ``partitions``  set partitions, integer partitions, multi-index partitions,
                  Bell numbers and subdivision coefficients;
* ``indicator``   block-indicator matrices, span intersections and the
                  dummy-variable expansion/collapse calculus;
* ``csp``         five interchangeable algorithms listing complementary set
                  partitions, with counting and relabeling transfer;
* ``algebra`` / ``estimation``  exact moment/cumulant symbolic algebra and
                  unbiased power-sum estimators evaluated on sample data.

A command-line front end lives in ``cumulants.cli`` (entry point
``cumulants``) and a benchmark harness in ``cumulants.bench``.
"""

from .errors import (
    AlgebraConsistencyError,
    BoundsError,
    CumulantError,
    DimensionError,
    EmptyTargetError,
    IncompatibleTypeError,
    InsufficientSampleError,
    MalformedMatrixError,
    ParseError,
)
from .partitions import (
    IntegerPartition,
    MultiIndexPartition,
    SetPartition,
    bell_number,
    block_type,
    enumerate_multiindex_partitions,
    enumerate_partitions,
    is_complementary,
    join,
    subdivision_coefficient,
)
from .indicator import (
    IndicatorMatrix,
    VariableLabeling,
    collapse_indicator,
    from_indicator,
    indicator_preimages,
    intersection_matrix,
    is_complementary_indicator,
    labeling_rule,
    same_equivalence_class,
    span_intersection,
    to_dummy_indicator,
    to_indicator,
)
from .csp import (
    ALGORITHM_NAMES,
    CSP_ALGORITHMS,
    CspResult,
    count_not_complementary,
    csp_graph,
    csp_laplacian,
    csp_nullspace,
    csp_stafford,
    csp_twoblock,
    csp_twoblock_onevec,
    swap_transfer,
)
from .algebra import (
    Polynomial,
    alternating_coarsening_sum,
    cumulants_to_moments,
    generalized_cumulant,
    generalized_cumulant_in_moments,
    generalized_cumulant_subtractive,
    generalized_multivariate_cumulant,
    generalized_multivariate_cumulant_subtractive,
    moment_product_expansion,
    moments_to_cumulants,
)
from .estimation import (
    PowerSumPolynomial,
    SampleMatrix,
    distinct_index_expansion,
    evaluate,
    generalized_cumulant_estimator,
    generalized_multivariate_cumulant_estimator,
    load_csv,
    polykay,
    power_sum,
)
from .bench import BenchReport, BenchRow, instance_partition, run_bench

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_NAMES",
    "AlgebraConsistencyError",
    "BenchReport",
    "BenchRow",
    "BoundsError",
    "CSP_ALGORITHMS",
    "CspResult",
    "CumulantError",
    "DimensionError",
    "EmptyTargetError",
    "IncompatibleTypeError",
    "IndicatorMatrix",
    "InsufficientSampleError",
    "IntegerPartition",
    "MalformedMatrixError",
    "MultiIndexPartition",
    "ParseError",
    "Polynomial",
    "PowerSumPolynomial",
    "SampleMatrix",
    "SetPartition",
    "VariableLabeling",
    "alternating_coarsening_sum",
    "bell_number",
    "block_type",
    "collapse_indicator",
    "count_not_complementary",
    "csp_graph",
    "csp_laplacian",
    "csp_nullspace",
    "csp_stafford",
    "csp_twoblock",
    "csp_twoblock_onevec",
    "cumulants_to_moments",
    "distinct_index_expansion",
    "enumerate_multiindex_partitions",
    "enumerate_partitions",
    "evaluate",
    "from_indicator",
    "generalized_cumulant",
    "generalized_cumulant_estimator",
    "generalized_cumulant_in_moments",
    "generalized_cumulant_subtractive",
    "generalized_multivariate_cumulant",
    "generalized_multivariate_cumulant_estimator",
    "generalized_multivariate_cumulant_subtractive",
    "indicator_preimages",
    "instance_partition",
    "intersection_matrix",
    "is_complementary",
    "is_complementary_indicator",
    "join",
    "labeling_rule",
    "load_csv",
    "moment_product_expansion",
    "moments_to_cumulants",
    "polykay",
    "power_sum",
    "run_bench",
    "same_equivalence_class",
    "span_intersection",
    "subdivision_coefficient",
    "swap_transfer",
    "to_dummy_indicator",
    "to_indicator",
]
