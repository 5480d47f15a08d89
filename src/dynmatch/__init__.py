"""Fully dynamic maximal matching without length-3 augmenting paths.

Maintains a 3/2-approximate maximum cardinality matching under edge
insertions and deletions in expected amortized O(sqrt(n)) time, with an
independent invariant verifier, an exact maximum-matching oracle, workload
generators, and epoch-level metrics.
"""

from .core import Config, IndexableSet, State, default_threshold
from .engine import (
    PROCEDURE_NAMES,
    apply_update,
    delete_edge,
    insert_edge,
)
from .metrics import EpochRecord, EpochTracker, RunStats, classify_epoch_set, export
from .replay import ReplayResult, replay
from .verifier import (
    Violation,
    ViolationReport,
    check_invariants,
    check_ratio,
    find_3_aug_path,
    maximum_matching_size,
)
from .workload import (
    DELETE,
    INSERT,
    SequenceFormatError,
    UpdateOp,
    UpdateSequence,
    extend_with_teardown,
    gen_named,
    gen_random,
    parse,
    serialize,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "State",
    "IndexableSet",
    "default_threshold",
    "PROCEDURE_NAMES",
    "insert_edge",
    "delete_edge",
    "apply_update",
    "replay",
    "ReplayResult",
    "ViolationReport",
    "Violation",
    "check_invariants",
    "find_3_aug_path",
    "maximum_matching_size",
    "check_ratio",
    "UpdateOp",
    "UpdateSequence",
    "INSERT",
    "DELETE",
    "gen_random",
    "gen_named",
    "extend_with_teardown",
    "parse",
    "serialize",
    "SequenceFormatError",
    "EpochTracker",
    "EpochRecord",
    "RunStats",
    "classify_epoch_set",
    "export",
]
