"""132-avoiding permutations under a bounded adjacent-jump constraint.

Exact enumeration by brute force, by transfer matrices, and by the split
at the maximum (every bound, polynomial time per length), closed-form
structure for jump bound 2, rational generating functions with recurrence
guessing, growth constants, and an empirical probe for larger bounds.
"""

from .core import (
    MaxSplit,
    avoids_132,
    in_class,
    max_adjacent_jump,
    prefix_extension_ok,
    satisfies_adjacency,
    split_at_max,
)
from .bruteforce import (
    CeilingExceeded,
    catalan,
    count,
    max_position_census,
    members,
)
from .m2 import (
    class_count,
    class_count_by_recurrence,
    class_counts,
    class_counts_by_recurrence,
    max_first_count,
    max_first_perms,
    max_last_count,
    max_last_perms,
    max_second_count,
    to_max_first,
    to_max_second,
    zigzag,
)
from .genfunc import (
    InsufficientData,
    NoDominantRoot,
    RationalGF,
    dominant_root,
    fit_recurrence,
    gf_m2,
    gf_max_first,
    newton_root,
    nth_coeff,
    series_coeffs,
    series_stream,
)
from .asymptotics import (
    AsymptoticEstimate,
    amplitude,
    convergence_report,
    dominant_singularity,
    estimate,
)
from .probe import GrowthProfile, MonotonicityReport, build_profile, monotonicity_check

__version__ = "0.1.0"
