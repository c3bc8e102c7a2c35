"""posetlab: exact two-gap linear-extension statistics on finite posets."""

from .errors import (
    BadChain,
    BadParams,
    CaseExhaustion,
    CycleDetected,
    DegenerateSlice,
    HypothesesNotMet,
    IndexOutOfRange,
    NoPivot,
    PosetLabError,
    TooLarge,
)
from .extensions import (
    FTable,
    NVector,
    count_extensions,
    enumerate_extensions,
    f_table,
    f_table_signed,
    n_vector,
    pair_gap_table,
)
from .families import FAMILY_IDS, build_family
from .inequalities import CheckReport, TABLE_CHECKS
from .posets import MarkedTriple, Poset, antichain, build, chain, normalize, params
from .search import Certificate, SearchJob, enumerate_posets, run, verify_certificate
from .vanishing import SupportRegion, support

__version__ = "0.1.0"

__all__ = [
    "BadChain", "BadParams", "CaseExhaustion", "CycleDetected", "DegenerateSlice",
    "HypothesesNotMet", "IndexOutOfRange", "NoPivot", "PosetLabError", "TooLarge",
    "FTable", "NVector", "count_extensions", "enumerate_extensions", "f_table",
    "f_table_signed", "n_vector", "pair_gap_table",
    "FAMILY_IDS", "build_family",
    "CheckReport", "TABLE_CHECKS",
    "MarkedTriple", "Poset", "antichain", "build", "chain",
    "normalize", "params",
    "Certificate", "SearchJob", "enumerate_posets", "run", "verify_certificate",
    "SupportRegion", "support",
    "__version__",
]
