"""Seeded matrix generators and hypothesis settings shared by the unit tests.

The generators and `direct_sum` come from the acceptance suite.  The
generators take their numpy Generator last: a test module passes its own
module-level stream, or a fresh ``philox(seed)``.
"""

import math

import numpy as np
from hypothesis import settings, strategies as st

from sector_radius.acceptance import (complex_gaussian, direct_sum,
                                      random_unitary)


def philox(seed):
    return np.random.default_rng(np.random.Philox(seed))


def clustered_normal(n, center, rng):
    """(U diag(l) U*, max |l|) with the n eigenvalues l at moduli in
    [1 - 2e-6, 1] and angles within 1.5 steps of the 1024-angle radius scan
    of `center`: each puts a maximum of the support function at its angle,
    and w = max |l| since the matrix is normal."""
    step = 2 * math.pi / 1024
    lam = (rng.uniform(1 - 2e-6, 1.0, n)
           * np.exp(1j * (center + rng.uniform(-1.5 * step, 1.5 * step, n))))
    u = random_unitary(n, rng)
    return u @ np.diag(lam) @ u.conj().T, float(np.abs(lam).max())


def to_binade(t, e):
    """(t 2^k, k) with the largest entry modulus of t 2^k in [2^(e-1), 2^e).
    Two multiplications keep 2^k finite for every k a double can need."""
    k = e - math.frexp(float(np.abs(t).max()))[1]
    return t * 2.0 ** (k // 2) * 2.0 ** (k - k // 2), k


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2 ** 32 - 1)
POWERS_OF_TWO = st.integers(-60, 60)
# Largest entry modulus just under the largest double, or at the smallest
# normal one.
EXTREME_BINADES = st.sampled_from([1023, -1021])
