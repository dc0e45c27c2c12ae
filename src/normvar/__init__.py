"""Prime-power norm statistics in residue classes for abelian number fields.

The pipeline: `fields` describes the base field and how rational primes
split in it; `sieve` turns that into the stream of prime-power norm
events up to x; `characters` and `galois` provide Dirichlet characters
and the admissible residue classes modulo q; `stats` accumulates the
per-class weights, their variance over q <= Q, and the dual-route
identity checks that guard the whole computation.

Importing normvar holds OpenBLAS to one thread unless the caller set
`OPENBLAS_NUM_THREADS`: no product here needs a threaded BLAS, and the
idle worker of numpy's default pool spins for about 0.13 s of CPU per
process.  The hold applies only if normvar is imported before numpy,
and child processes inherit the variable.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .fields import (
    MAX_CONDUCTOR,
    FieldSpec,
    SplitData,
    cyclotomic_field,
    parse_field,
    quadratic_field,
    rational_field,
    split_type,
)
from .sieve import (
    MAX_SIEVE_LIMIT,
    NormEventTable,
    event_columns,
    event_moment_sums,
    norm_events,
    primes_up_to,
)
from .characters import (
    DirichletCharacter,
    UnitGroup,
    character,
    character_matrix,
    enumerate_characters,
    primitive_part,
    unit_group,
)
from .galois import (
    NormClassGroup,
    class_table_rows,
    norm_class_closure,
    norm_class_group,
    residue_masks,
    subfield_conductor,
)
from .stats import (
    DyadicBlock,
    ExchangeDiff,
    LargeSieveResult,
    OrthogonalityResult,
    REL_TOL,
    VarianceReport,
    character_sum,
    large_sieve_check,
    orthogonality_check,
    primitive_exchange_diff,
    rel_gap,
    residue_buckets,
    small_q_cutoff,
    variance,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_CONDUCTOR",
    "FieldSpec",
    "SplitData",
    "cyclotomic_field",
    "parse_field",
    "quadratic_field",
    "rational_field",
    "split_type",
    "MAX_SIEVE_LIMIT",
    "NormEventTable",
    "event_columns",
    "event_moment_sums",
    "norm_events",
    "primes_up_to",
    "DirichletCharacter",
    "UnitGroup",
    "character",
    "character_matrix",
    "enumerate_characters",
    "primitive_part",
    "unit_group",
    "NormClassGroup",
    "class_table_rows",
    "norm_class_closure",
    "norm_class_group",
    "residue_masks",
    "subfield_conductor",
    "DyadicBlock",
    "ExchangeDiff",
    "LargeSieveResult",
    "OrthogonalityResult",
    "REL_TOL",
    "VarianceReport",
    "character_sum",
    "large_sieve_check",
    "orthogonality_check",
    "primitive_exchange_diff",
    "rel_gap",
    "residue_buckets",
    "small_q_cutoff",
    "variance",
    "__version__",
]
