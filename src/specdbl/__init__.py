"""Fourier spectra of subsets of finite abelian groups.

Exact mixed-radix Fourier analysis of indicator functions, coherence-matrix
regularity with certificates and witnesses, and audited refinement
procedures that shrink a set until its spectrum has a small sumset.
"""

from .coherence import (
    BoundedFunction,
    CoherenceMatrix,
    bilinear,
    build_matrix,
    mean_value,
)
from .diagnostics import (
    ClosureReport,
    DoublingReport,
    ExampleSetBundle,
    SumsetStats,
    example_counterexample,
    high_threshold_closure,
    statistical_doubling,
    sumset_stats,
)
from .fileio import (
    FileFormatError,
    read_set_file,
    read_trace_file,
    write_set_file,
    write_trace_file,
)
from .fourier import (
    FourierTable,
    SpectrumSet,
    dft,
    dft_naive,
    inverse_dft,
    parseval_capacity,
    spectrum,
)
from .groups import (
    DEFAULT_MAX_GROUP,
    ElementSet,
    FiniteAbelianGroup,
    GroupElement,
    char_matrix,
    char_value,
    convolve_counts,
    difference_set,
    element_decode,
    element_encode,
    make_group,
    negate_set,
    random_subset,
    subgroup_span,
    sumset,
)
from .refine import (
    AuditReport,
    BoundReport,
    RefineConfig,
    RefineResult,
    RefineTraceStep,
    audit_trace,
    final_bound_report,
    refine_theorem1,
    refine_theorem2,
)
from .regularity import (
    C1_DEFAULT,
    C_DEFAULT,
    IrregularityWitness,
    MinorExtraction,
    RegularityVerdict,
    StepFunction,
    brute_force_max,
    decide_regularity,
    extract_minor,
    spectral_certificate,
    step_approximate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # groups
    "DEFAULT_MAX_GROUP",
    "FiniteAbelianGroup",
    "GroupElement",
    "ElementSet",
    "make_group",
    "element_encode",
    "element_decode",
    "char_value",
    "char_matrix",
    "convolve_counts",
    "sumset",
    "difference_set",
    "negate_set",
    "subgroup_span",
    "random_subset",
    # fourier
    "FourierTable",
    "SpectrumSet",
    "dft",
    "dft_naive",
    "inverse_dft",
    "spectrum",
    "parseval_capacity",
    # coherence
    "CoherenceMatrix",
    "BoundedFunction",
    "build_matrix",
    "bilinear",
    "mean_value",
    # regularity
    "C1_DEFAULT",
    "C_DEFAULT",
    "StepFunction",
    "step_approximate",
    "IrregularityWitness",
    "RegularityVerdict",
    "spectral_certificate",
    "brute_force_max",
    "decide_regularity",
    "MinorExtraction",
    "extract_minor",
    # refine
    "RefineConfig",
    "RefineTraceStep",
    "RefineResult",
    "AuditReport",
    "BoundReport",
    "refine_theorem1",
    "refine_theorem2",
    "audit_trace",
    "final_bound_report",
    # diagnostics
    "DoublingReport",
    "statistical_doubling",
    "ClosureReport",
    "high_threshold_closure",
    "ExampleSetBundle",
    "example_counterexample",
    "SumsetStats",
    "sumset_stats",
    # file formats
    "FileFormatError",
    "write_set_file",
    "read_set_file",
    "write_trace_file",
    "read_trace_file",
]
