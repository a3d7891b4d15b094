"""Input generators for the benchmark, independent of the package under test.

Every matrix is built here from the published constructions, so a change to
the package's own constructors or to its acceptance helpers cannot change a
workload.  Randomness comes from numpy's Philox generator keyed by
(seed, stream name).
"""

from __future__ import annotations

import json
import math
import zlib

import numpy as np


def philox(seed: int, stream: str) -> np.random.Generator:
    """Generator keyed by the run seed and a stream name (the workload)."""
    key = np.random.SeedSequence([int(seed), zlib.crc32(stream.encode())])
    return np.random.Generator(np.random.Philox(key))


def complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def sectorial(rng: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    """T = H + i H^(1/2) K H^(1/2) with H > 0 and ||K|| < tan(alpha).

    Re<Tx,x> = <Hx,x> and |Im<Tx,x>| <= tan(alpha) <Hx,x>, so W(T) lies in
    the sector of half-angle alpha.
    """
    r = complex_gaussian(rng, n)
    h = r @ r.conj().T / n + 0.05 * np.eye(n)
    a = complex_gaussian(rng, n)
    k = (a + a.conj().T) / 2.0
    k *= math.tan(alpha) * rng.uniform(0.2, 0.95) / np.linalg.norm(k, 2)
    w, v = np.linalg.eigh(h)
    root = (v * np.sqrt(w)) @ v.conj().T
    return h + 1j * (root @ k @ root)


def r_alpha(r: float, theta: float, alpha: float) -> np.ndarray:
    """[[r e^{i theta}, 2c], [0, e^{-i theta}/r]] with
    c^2 = sin(alpha)^2 - sin(theta)^2.

    For r >= 1 and 0 <= theta <= alpha the numerical range lies in the
    sector of half-angle alpha and touches both of its rays.
    """
    c = math.sqrt(max(math.sin(alpha) ** 2 - math.sin(theta) ** 2, 0.0))
    phase = complex(math.cos(theta), math.sin(theta))
    return np.array([[r * phase, 2.0 * c], [0.0, phase.conjugate() / r]])


def extremal_2x2(alpha: float) -> np.ndarray:
    """Unit-norm 2x2 matrix with norm/radius = sqrt(1 + sin^2 alpha)."""
    s = math.sin(alpha) ** 2
    top = complex(math.sqrt(1.0 + s - s * s), math.sqrt(s + s * s))
    return np.array([[top, 2.0 * s], [0.0, top.conjugate()]]) / (1.0 + 2.0 * s)


def tau(alpha: float) -> float:
    return math.sqrt(1.0 + math.sin(alpha) ** 2)


def direct_sum(rng: np.random.Generator, n: int, alpha: float,
               extremal: bool) -> np.ndarray:
    """Unitary conjugate of extremal_2x2(alpha) + a diagonal normal block.

    The normal block has n - 2 distinct eigenvalues inside the sector.  When
    ``extremal`` they have modulus below 1/tau, so the sum attains the
    optimal ratio; otherwise one has modulus 1.05..1.2 / tau, which pulls
    the ratio at least 4% under tau.  Either way the commutant has
    dimension 1 + (n - 2).
    """
    m = n - 2
    inv_tau = 1.0 / tau(alpha)
    moduli = rng.uniform(0.05, inv_tau - 1e-3, m)
    if not extremal:
        moduli[int(rng.integers(0, m))] = inv_tau * rng.uniform(1.05, 1.2)
    phases = rng.uniform(-alpha, alpha, m)
    t = np.zeros((n, n), dtype=np.complex128)
    t[:2, :2] = extremal_2x2(alpha)
    t[2:, 2:] = np.diag(moduli * np.exp(1j * phases))
    u = random_unitary(rng, n)
    return u.conj().T @ t @ u


def three_by_three(rng: np.random.Generator) -> np.ndarray:
    """Feasible member of the 3x3 half-plane family with d > 1e-3.

    Feasible: b1 >= 3d^2/2 and 18 d^2 + sqrt(2 (12 d^2 + b1)^2 + 2 b2^2) <= 1.
    """
    while True:
        d = rng.uniform(2e-3, 0.2)
        b1 = rng.uniform(1.5 * d * d, 0.8)
        b2 = rng.uniform(-0.6, 0.6)
        lhs = 18 * d * d + math.sqrt(2 * (12 * d * d + b1) ** 2 + 2 * b2 * b2)
        if lhs <= 1.0:
            break
    rt3 = math.sqrt(3.0)
    return np.array([[2 / 3, 1 / rt3, d],
                     [-1 / rt3, 0.0, rt3 * d],
                     [d, -rt3 * d, complex(b1, b2)]])


def decoy_normal(rng: np.random.Generator, scan_points: int = 1024,
                 decoys: int = 12) -> np.ndarray:
    """n = decoys + 1 normal matrix whose true peak hides between scan angles.

    Decoy eigenvalues of modulus 1 - 1e-6 sit exactly on angles of a
    ``scan_points`` grid; the eigenvalue of modulus 1 sits half a grid step
    away from any grid angle, where its grid samples read about 1 - 4.7e-6.
    So w(T) = 1, and a scan that refines only its highest grid peaks
    returns 1 - 1e-6.
    """
    step = 2.0 * math.pi / scan_points
    base = int(rng.integers(0, scan_points))
    spacing = scan_points // (decoys + 1)
    angles = [(base + spacing * (k + 1)) * step for k in range(decoys)]
    eig = [(1.0 - 1e-6) * complex(math.cos(a), math.sin(a)) for a in angles]
    peak = (base + 0.5) * step
    eig.append(complex(math.cos(peak), math.sin(peak)))
    u = random_unitary(rng, len(eig))
    return u.conj().T @ np.diag(eig) @ u


def matrix_document_text(t: np.ndarray) -> str:
    """The CLI's matrix document format: {"n": n, "entries": [[[re, im]]]}."""
    n = t.shape[0]
    entries = [[[float(t[i, j].real), float(t[i, j].imag)] for j in range(n)]
               for i in range(n)]
    return json.dumps({"n": n, "entries": entries})
