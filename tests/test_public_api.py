import specdbl

# Every name `from specdbl import *` exports.  Adding or dropping a public
# name changes this list on purpose.
PUBLIC_NAMES = [
    "AuditReport", "BoundReport",
    "ClosureReport", "CoherenceMatrix", "DEFAULT_MAX_GROUP", "DoublingReport", "ElementSet",
    "ExampleSetBundle", "FileFormatError", "FiniteAbelianGroup", "FourierTable",
    "IrregularityWitness", "MinorExtraction", "RefineConfig", "RefineResult", "RefineTraceStep",
    "RegularityVerdict", "SumsetStats", "__version__", "audit_trace",
    "build_matrix", "char_matrix", "convolve_counts", "decide_regularity", "dft",
    "difference_set", "example_counterexample", "extract_minor", "final_bound_report",
    "high_threshold_closure", "parseval_capacity", "random_subset",
    "read_set_file", "read_trace_file", "refine_theorem1", "refine_theorem2",
    "spectral_certificate", "spectrum", "statistical_doubling", "subgroup_span", "sumset",
    "sumset_stats", "write_set_file", "write_trace_file",
]


def test_public_surface_is_the_pinned_list():
    assert len(PUBLIC_NAMES) == 44
    assert sorted(specdbl.__all__) == PUBLIC_NAMES
    assert all(hasattr(specdbl, name) for name in PUBLIC_NAMES)
