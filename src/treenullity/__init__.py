"""Extremal nullity of tree degree sequences, exactly.

Given a tree degree sequence, this package evaluates the closed formulas for
the minimum and maximum nullity (equivalently: maximum and minimum matching
number, minimum and maximum independence number) over all labeled trees
realizing it, constructs certified trees attaining both extremes, and checks
everything against brute-force enumeration and an exact adjacency rank,
computed over GF(2), which for a forest equals the rational rank (2 * nu).
All arithmetic is exact; no floating point is used anywhere.
"""

from .degseq import (
    BoundsReport,
    DegreeSequence,
    bounds,
    literal_characterization,
    parse_sequence,
)
from .errors import (
    ConstructionInvariantViolated,
    EnumerationCapExceeded,
    InputError,
    InvalidDegree,
    LabelOutOfRange,
    LimitError,
    LoopOrDuplicate,
    NotConnected,
    NotTreeSum,
    ParseError,
    SizeLimitExceeded,
    TooSmall,
    TreeNullityError,
    WrongEdgeCount,
)
from .extremal import (
    MaxCertificate,
    MinCertificate,
    VerificationReport,
    build_max,
    build_min,
    internal_leaf_adjacency_violations,
    verify_certificate,
)
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    ConjectureScan,
    NullitySpectrum,
    conjecture_scan,
    count_trees,
    random_degree_sequence,
    random_tree,
    spectrum,
    tree_degree_sequences,
)
from .treegraph import (
    DEFAULT_RANK_LIMIT,
    LabeledTree,
    Matching,
    parse_edge_list,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "ConjectureScan",
    "ConstructionInvariantViolated",
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_RANK_LIMIT",
    "DegreeSequence",
    "EnumerationCapExceeded",
    "InputError",
    "InvalidDegree",
    "LabelOutOfRange",
    "LabeledTree",
    "LimitError",
    "LoopOrDuplicate",
    "Matching",
    "MaxCertificate",
    "MinCertificate",
    "NotConnected",
    "NotTreeSum",
    "NullitySpectrum",
    "ParseError",
    "SizeLimitExceeded",
    "TooSmall",
    "TreeNullityError",
    "VerificationReport",
    "WrongEdgeCount",
    "bounds",
    "build_max",
    "build_min",
    "conjecture_scan",
    "count_trees",
    "internal_leaf_adjacency_violations",
    "literal_characterization",
    "parse_edge_list",
    "parse_sequence",
    "random_degree_sequence",
    "random_tree",
    "spectrum",
    "tree_degree_sequences",
    "verify_certificate",
]
