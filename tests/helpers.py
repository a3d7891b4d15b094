"""Seeded matrix generators and hypothesis settings shared by the unit tests.

The generators take their numpy Generator as an argument: a test module
passes its own module-level stream, or a fresh ``philox(seed)``.
"""

import numpy as np
from hypothesis import settings, strategies as st


def philox(seed):
    return np.random.default_rng(np.random.Philox(seed))


def complex_gaussian(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(n, rng):
    """Haar unitary: QR of a complex Gaussian with R's diagonal phases
    moved into Q."""
    q, r = np.linalg.qr(complex_gaussian((n, n), rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def direct_sum(*blocks):
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim), dtype=np.complex128)
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2 ** 32 - 1)
POWERS_OF_TWO = st.integers(-60, 60)
