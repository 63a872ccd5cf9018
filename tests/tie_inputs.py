"""Inputs with ties, zeros and near ties for the sort and accuracy checks.

The tie classes are shared by tests/test_distribution.py and
tools/sort_probe.py, which digests make_distribution's output on them;
the accuracy classes by tests/test_smoothing.py and tools/accuracy.py,
which sweep the extremal points over them. numpy only.
"""

import numpy as np

TIE_CLASSES = (
    "random", "half_zeros", "ninety_pct_zeros", "all_equal", "sorted",
    "one_decimal", "negative_zero", "subnormal", "tiny_negative", "near_tie",
    "zero_block", "sorted_near_tie",
)


def tie_class_input(case: str, k: int, rng: np.random.Generator) -> np.ndarray:
    """An unnormalized vector of size k with the ties, zeros or signs of `case`."""
    x = rng.uniform(0.1, 1.0, k)
    hit = rng.random(k) < {"half_zeros": 0.5, "ninety_pct_zeros": 0.9}.get(case, 0.3)
    hit[0] = False  # one positive entry, so every class has a sum
    few = rng.integers(1, 4, k)  # a few magnitudes, so each one repeats
    if case in ("half_zeros", "ninety_pct_zeros"):
        x[hit] = 0.0
    elif case == "negative_zero":
        # both zeros, which compare equal and so share one run of ties
        x[hit] = np.where(few[hit] > 1, 0.0, -0.0)
    elif case == "subnormal":
        # still subnormal after dividing by a sum of up to 10**6
        x[hit] = 2.2e-310 * few[hit]
    elif case == "zero_block":
        # zeros of both signs and multiples of the smallest subnormal up to
        # 7, whose bits differ only below the index width once k > 4, so the
        # lowest key block mixes them (division by a large sum under
        # "reject" leaves only the zeros)
        x[hit] = np.where(few[hit] > 1, 5e-324 * rng.integers(0, 8, k)[hit], -0.0)
    elif case == "tiny_negative":
        x[hit] = -1e-12 * few[hit]
    elif case == "all_equal":
        x[:] = 0.5
    elif case == "sorted":
        x = -np.sort(-x)
    elif case == "one_decimal":
        x = np.round(x, 1)
    elif case in ("near_tie", "sorted_near_tie", "all_colliding"):
        # values that differ only below bit 12, under the index width of the
        # packed sort keys once k > 2**11, and some exact ties among them;
        # with a single base every entry shares one block of key bits. Bits
        # 12 to 19 of a base are all clear or all set and a fifth of the
        # patterns each are all clear or all set, so for index widths up to
        # 20 bits many unscaled entries sit at the lowest or highest value
        # of a block.
        base = rng.uniform(0.1, 1.0, 1 if case == "all_colliding" else 300).view(np.uint64)
        base &= np.uint64(~0xFFFFF & (2**64 - 1))
        base[1::2] |= np.uint64(0xFF000)
        flip = rng.integers(0, 1 << 12, k, dtype=np.uint64)
        end = rng.random(k)
        flip[end < 0.2] = 0
        flip[end > 0.8] = 0xFFF
        x = (base[rng.integers(0, base.size, k)] ^ flip).view(np.float64)
        if case == "sorted_near_tie":
            x = -np.sort(-x)
    return x


ACCURACY_CLASSES = ("random", "one_decimal", "zero_tail", "tiny", "near_point_mass")


def accuracy_class_input(case: str, k: int, rng: np.random.Generator) -> np.ndarray:
    """A positive-sum vector of size k >= 2, for make_distribution(..., "renormalize").

    "one_decimal" has ties, "zero_tail" one to k - 1 zeros, "tiny" entries
    of 1e-300 in place of about half the others, and "near_point_mass" one
    entry of 1 beside entries below 1e-3, down to about 1e-18.
    """
    x = rng.random(k) + 0.01
    if case == "one_decimal":
        x = np.round(x, 1) + 0.1
    elif case == "zero_tail":
        x[rng.integers(1, k) :] = 0.0
    elif case == "tiny":
        x[1:][rng.random(k - 1) < 0.5] = 1e-300
    elif case == "near_point_mass":
        x[0] = 1.0
        x[1:] *= 10.0 ** rng.uniform(-16.0, -3.0, k - 1)
    return x
