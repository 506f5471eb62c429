import importlib
import pkgutil
import tracemalloc

from hypothesis import strategies as st

import permlip


def permutations_upto(n_max: int):
    return st.integers(1, n_max).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(tuple)


def traced(fn, *args):
    """Run fn(*args) under tracemalloc and return its result, the peak of
    traced bytes and the bytes still held when it returns, result included.

    Every permlip module is imported first, so neither figure counts the
    compiling of a module that the call would load on first use."""
    for module in pkgutil.iter_modules(permlip.__path__):
        if module.name != "__main__":  # importing it runs the CLI
            importlib.import_module(f"permlip.{module.name}")
    tracemalloc.start()
    try:
        result = fn(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, retained
