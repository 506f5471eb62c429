"""Transfer-matrix counting for every jump bound.

Builds the class left to right one length at a time, as in the
transfer-matrix method (Stanley, *Enumerative Combinatorics* I, §4.7):
each layer maps the state of a prefix to the number of prefixes in that
state, and prefixes with equal states merge because they have equal
futures.  The state is (unused values, last entry, running minimum).

Appending v to a prefix is allowed iff v is unused, |v - last| <= m, and v
is either below the running minimum or the smallest unused value above it.
The last condition is derived here, not taken from
``core.prefix_extension_ok``: an unused u strictly between the running
minimum and v would have to come later, and min ... v ... u is a 132.
Conversely, a prefix built under this rule avoids 132, so the engine
counts exactly the class and serves as an independent cross-check on the
brute-force oracle.
"""

from __future__ import annotations

from .bruteforce import _check_args

__all__ = ["count"]


def count(n: int, m: int) -> int:
    """Number of length-n permutations avoiding 132 with all jumps <= m.

    Exact, by summing over layers of merged prefix states, each keyed by
    the tuple (unused, last, low): the unused values as a bitmask (bit v
    for value v), the last entry and the running minimum.  Refuses the same
    arguments as ``bruteforce.count``, including lengths above the
    brute-force ceiling.
    """
    _check_args(n, m)
    everything = ((1 << n) - 1) << 1
    layer = {(everything ^ (1 << v), v, v): 1 for v in range(1, n + 1)}
    for _ in range(n - 1):
        grown: dict[tuple[int, int, int], int] = {}
        for (unused, last, low), ways in layer.items():
            choices = [v for v in range(max(1, last - m), low) if unused >> v & 1]
            above = unused >> (low + 1) << (low + 1)
            if above:
                v = (above & -above).bit_length() - 1
                if abs(v - last) <= m:
                    choices.append(v)
            for v in choices:
                key = (unused ^ (1 << v), v, min(low, v))
                grown[key] = grown.get(key, 0) + ways
        layer = grown
    return sum(layer.values())
