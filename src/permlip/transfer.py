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

    Exact, by summing over layers of merged prefix states.  Refuses the
    same arguments as ``bruteforce.count``, including lengths above the
    brute-force ceiling.
    """
    _check_args(n, m)
    # A state packs into one int: from the top, the unused-value bitmask
    # (bit v for value v), the last entry and the running minimum, the two
    # entries taking `width` bits each.
    width = n.bit_length()
    field = (1 << width) - 1
    everything = ((1 << n) - 1) << 1
    layer = {(((everything ^ (1 << v)) << width | v) << width) | v: 1
             for v in range(1, n + 1)}
    for _ in range(n - 1):
        grown: dict[int, int] = {}
        for state, ways in layer.items():
            low = state & field
            last = (state >> width) & field
            unused = state >> (2 * width)
            choices = [v for v in range(max(1, last - m), low) if unused >> v & 1]
            above = unused >> (low + 1) << (low + 1)
            if above:
                v = (above & -above).bit_length() - 1
                if abs(v - last) <= m:
                    choices.append(v)
            for v in choices:
                key = (((unused ^ (1 << v)) << width | v) << width) | min(low, v)
                grown[key] = grown.get(key, 0) + ways
        layer = grown
    return sum(layer.values())
