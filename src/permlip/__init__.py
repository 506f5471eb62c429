"""132-avoiding permutations under a bounded adjacent-jump constraint.

Exact enumeration by brute force, by transfer matrices, and by the split
at the maximum (every bound, polynomial time per length), closed-form
structure for jump bound 2, rational generating functions with recurrence
guessing, growth constants, and an empirical probe for larger bounds.

``import permlip`` loads no submodule: each public name below imports the
submodule that defines it on first use (PEP 562), so a caller pays only for
the code it runs.
"""

from importlib import import_module

# Every public name, grouped by the submodule that defines it.
_EXPORTS = {
    "core": ("MaxSplit", "avoids_132", "in_class", "max_adjacent_jump",
             "prefix_extension_ok", "satisfies_adjacency", "split_at_max"),
    "bruteforce": ("CeilingExceeded", "catalan", "count", "max_position_census", "members"),
    "m2": ("class_count", "class_count_by_recurrence", "class_counts",
           "class_counts_by_recurrence", "max_first_count", "max_first_perms",
           "max_last_count", "max_last_perms", "max_second_count", "to_max_first",
           "to_max_second", "zigzag"),
    "genfunc": ("InsufficientData", "NoDominantRoot", "RationalGF", "dominant_root",
                "fit_recurrence", "gf_m2", "gf_max_first", "nth_coeff", "series_coeffs",
                "series_stream"),
    "asymptotics": ("AsymptoticEstimate", "amplitude", "convergence_report", "estimate"),
    "probe": ("GrowthProfile", "MonotonicityReport", "build_profile", "monotonicity_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
