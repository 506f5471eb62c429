"""The package's 39 public names, each the object its submodule defines."""

import importlib

import pytest

import permlip

EXPORTED = {
    "core": ["MaxSplit", "avoids_132", "in_class", "max_adjacent_jump",
             "prefix_extension_ok", "satisfies_adjacency", "split_at_max"],
    "bruteforce": ["CeilingExceeded", "catalan", "count", "max_position_census", "members"],
    "m2": ["class_count", "class_count_by_recurrence", "max_first_count",
           "max_first_perms", "max_last_count", "max_last_perms", "max_second_count",
           "to_max_first", "to_max_second", "zigzag"],
    "genfunc": ["NoDominantRoot", "RationalGF", "dominant_root", "fit_recurrence",
                "gf_m2", "gf_max_first", "nth_coeff", "series_coeffs", "series_stream"],
    "asymptotics": ["AsymptoticEstimate", "amplitude", "convergence_report", "estimate"],
    "probe": ["GrowthProfile", "MonotonicityReport", "build_profile", "monotonicity_check"],
}
NAMES = [name for names in EXPORTED.values() for name in names]


def test_all_lists_the_exported_names():
    assert len(NAMES) == 39
    assert permlip.__all__ == NAMES


@pytest.mark.parametrize("module", EXPORTED)
def test_each_name_is_its_submodules_object(module):
    home = importlib.import_module(f"permlip.{module}")
    for name in EXPORTED[module]:
        assert getattr(permlip, name) is getattr(home, name), name


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(permlip))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        permlip.no_such_name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from permlip import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(permlip, name) for name in NAMES)
