"""Acceptance suite: the checks behind the ``verify`` subcommand.

Each criterion is a deterministic function of the seed.  Randomness comes
from numpy's Philox counter-based generator keyed per criterion, so a
report generated twice with the same seed is byte-identical.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from .certify import Verdict, certify_extremal, tau
from .errors import FeasibilityError
from .extremal import (
    ThreeByThreeParams,
    extremal_2x2,
    extremal_params,
    family_deviations,
    irreducible_family,
    r_alpha_matrix,
    three_by_three,
)
from .matcore import commutant_dimension, operator_norm
from .numrange import (
    boundary_points,
    ellipse_2x2,
    ellipse_support_point,
    grid_radius,
    numerical_radius,
    sector_contains,
)

SQRT2 = math.sqrt(2.0)


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,))))


def complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary: QR of a complex Gaussian with R's diagonal phases
    moved into Q."""
    q, r = np.linalg.qr(complex_gaussian((n, n), rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def hermitian_gaussian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = complex_gaussian((n, n), rng)
    return (a + a.conj().T) / 2.0


def sectorial_sample(n: int, alpha: float, rng: np.random.Generator):
    """Matrix with numerical range inside the sector of half-angle alpha:
    H = R*R + 0.1 I and G = H^(1/2) K H^(1/2) with ||K|| <= tan(alpha)."""
    r = complex_gaussian((n, n), rng)
    h = r.conj().T @ r + 0.1 * np.eye(n)
    k = hermitian_gaussian(n, rng)
    k *= math.tan(alpha) * rng.uniform(0.0, 1.0) / np.linalg.norm(k, 2)
    w, v = np.linalg.eigh(h)
    root = (v * np.sqrt(w)) @ v.conj().T
    return h + 1j * (root @ k @ root)


def direct_sum(*blocks) -> np.ndarray:
    """Block-diagonal matrix with the given square blocks in order."""
    out = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=np.complex128)
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out


def ratio_of(t) -> float:
    return operator_norm(t) / numerical_radius(t)


def criterion_01(seed: int) -> CriterionResult:
    """Ratio equality for the 2x2 extremal matrix across six angles."""
    start = time.perf_counter()
    alphas = [math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3,
              5 * math.pi / 12, math.pi / 2]
    worst = max(abs(ratio_of(extremal_2x2(a)) - tau(a)) for a in alphas)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-8 and elapsed < 1.0
    return CriterionResult(1, "extremal-ratio-equality", passed,
                           f"max|ratio-tau|={worst:.3e} over 6 angles")


def criterion_02(seed: int) -> CriterionResult:
    """Norm and radius of the normalized rotation block at alpha = pi/2."""
    b1 = np.array([[2.0 / 3.0, 1.0 / math.sqrt(3.0)],
                   [-1.0 / math.sqrt(3.0), 0.0]], dtype=np.complex128)
    dev_norm = abs(operator_norm(b1) - 1.0)
    dev_w = abs(numerical_radius(b1) - 1.0 / SQRT2)
    passed = dev_norm <= 1e-10 and dev_w <= 1e-10
    return CriterionResult(2, "half-plane-block-constants", passed,
                           f"|norm-1|={dev_norm:.3e} |w-1/sqrt2|={dev_w:.3e}")


def criterion_03(seed: int) -> CriterionResult:
    """Ratio bound on 1000 random sectorial matrices."""
    start = time.perf_counter()
    rng = _rng(seed, 3)
    worst_excess, contained, cases = -math.inf, 0, 1000
    for _ in range(cases):
        n = int(rng.integers(2, 7))
        alpha = rng.uniform(0.05, 1.45)
        t = sectorial_sample(n, alpha, rng)
        contained += sector_contains(t, alpha)
        worst_excess = max(worst_excess, ratio_of(t) - tau(alpha))
    elapsed = time.perf_counter() - start
    passed = (contained == cases and worst_excess <= 1e-8 and elapsed < 30.0)
    return CriterionResult(
        3, "ratio-bound-random", passed,
        f"contained {contained}/{cases}, worst ratio-bound={worst_excess:.3e}")


def criterion_04(seed: int) -> CriterionResult:
    """Numerical radius against the 1e6-point brute-force grid maximum."""
    rng = _rng(seed, 4)
    worst = 0.0
    for i in range(200):
        n = 2 + i % 5
        t = complex_gaussian((n, n), rng)
        worst = max(worst, abs(numerical_radius(t) - grid_radius(t, 1_000_000)))
    passed = worst <= 1e-6
    return CriterionResult(4, "grid-oracle-equivalence", passed,
                           f"max|w-grid|={worst:.3e} over 200 matrices")


def criterion_05(seed: int) -> CriterionResult:
    """Boundary samples of random 2x2 matrices lie on the exact ellipse."""
    rng = _rng(seed, 5)
    worst = 0.0
    for _ in range(100):
        t = complex_gaussian((2, 2), rng)
        desc = ellipse_2x2(t)
        for s in boundary_points(t, 720):
            worst = max(worst, abs(s.boundary_point
                                   - ellipse_support_point(desc, s.theta)))
    passed = worst <= 1e-7
    return CriterionResult(5, "elliptical-range-law", passed,
                           f"max dist={worst:.3e} over 100 matrices x 720 points")


def criterion_06(seed: int) -> CriterionResult:
    """Strictly sub-optimal ratio away from the extremal corner (theta=0)."""
    min_margin = math.inf
    for r in (1.1, 1.5, 2.0, 5.0):
        for alpha in (math.pi / 6, math.pi / 4, math.pi / 3):
            a = r_alpha_matrix(r, 0.0, alpha)
            min_margin = min(min_margin, tau(alpha) - ratio_of(a))
    passed = min_margin > 1e-6
    return CriterionResult(6, "strict-interior-ratio", passed,
                           f"min bound-ratio margin={min_margin:.3e}")


def criterion_07(seed: int) -> CriterionResult:
    """Unique ratio maximizer on the r=1 slice at alpha = pi/4."""
    alpha = math.pi / 4.0
    params = extremal_params(alpha)
    s = params.s
    c_grid = np.linspace(0.0, s / tau(alpha), 10_000)
    ratios = np.empty(c_grid.size)
    for i, c in enumerate(c_grid):
        theta = math.asin(math.sqrt(max(s - c * c, 0.0)))
        ratios[i] = ratio_of(r_alpha_matrix(1.0, theta, alpha))
    arg = int(ratios.argmax())
    step = c_grid[1] - c_grid[0]
    dev_arg = abs(c_grid[arg] - params.c)
    dev_max = abs(float(ratios[arg]) - tau(alpha))
    passed = dev_arg <= step * (1.0 + 1e-9) and dev_max <= 1e-6
    return CriterionResult(
        7, "unique-maximizer", passed,
        f"|argmax-c0|={dev_arg:.3e} (step {step:.3e}), "
        f"|max-sqrt(1+s)|={dev_max:.3e}")


def _three_by_three_samples(rng: np.random.Generator, want_feasible: bool,
                            count: int):
    out = []
    while len(out) < count:
        d = rng.uniform(0.0, 0.35)
        b1 = rng.uniform(-0.2, 0.8)
        b2 = rng.uniform(-0.6, 0.6)
        if ThreeByThreeParams(d, b1, b2).feasible() == want_feasible:
            out.append((d, b1, b2))
    return out


def criterion_08(seed: int) -> CriterionResult:
    """3x3 family: postconditions on feasible triples, rejection otherwise."""
    rng = _rng(seed, 8)
    worst = 0.0
    commutant_ok = True
    for d, b1, b2 in _three_by_three_samples(rng, True, 50):
        t = three_by_three(d, b1, b2)
        worst = max(worst, *family_deviations(t).values())
        commutant_ok &= d <= 1e-3 or commutant_dimension(t) == 1
    rejected = 0
    for d, b1, b2 in _three_by_three_samples(rng, False, 50):
        try:
            three_by_three(d, b1, b2)
        except FeasibilityError:
            rejected += 1
    passed = worst <= 1e-8 and commutant_ok and rejected == 50
    return CriterionResult(
        8, "three-by-three-family", passed,
        f"worst feasible deviation={worst:.3e}, rejected {rejected}/50")


def criterion_09(seed: int) -> CriterionResult:
    """Chain family for n in {4,5,6}, d in {0.05, 0.1}."""
    worst = 0.0
    commutant_ok = True
    for n in (4, 5, 6):
        for d in (0.05, 0.1):
            t, eps = irreducible_family(n, d)
            worst = max(worst, *family_deviations(t, eps).values())
            commutant_ok &= commutant_dimension(t) == 1
    passed = worst <= 1e-8 and commutant_ok
    return CriterionResult(9, "irreducible-chain-family", passed,
                           f"worst deviation={worst:.3e} over 6 builds")


def criterion_10(seed: int) -> CriterionResult:
    """Certification round-trip on conjugated direct sums and perturbations."""
    rng = _rng(seed, 10)
    alphas = (math.pi / 6, math.pi / 4, math.pi / 3)
    worst_offdiag = 0.0
    extremal_ok = 0
    for i in range(50):
        alpha = alphas[i % 3]
        t = _conjugated_direct_sum(rng, alpha, normal_radius_below=True)
        rep = certify_extremal(t, alpha, 1e-7)
        if rep.verdict is Verdict.EXTREMAL:
            extremal_ok += 1
            worst_offdiag = max(worst_offdiag, rep.block_offdiag_norm)
    not_extremal_ok = 0
    for i in range(50):
        alpha = alphas[i % 3]
        t = _conjugated_direct_sum(rng, alpha, normal_radius_below=False)
        rep = certify_extremal(t, alpha, 1e-7)
        if rep.verdict is Verdict.NOT_EXTREMAL and rep.ratio <= rep.tau - 1e-3:
            not_extremal_ok += 1
    passed = (extremal_ok == 50 and not_extremal_ok == 50
              and worst_offdiag <= 1e-7)
    return CriterionResult(
        10, "certification-round-trip", passed,
        f"extremal {extremal_ok}/50 (max offdiag {worst_offdiag:.3e}), "
        f"rejected {not_extremal_ok}/50")


def _conjugated_direct_sum(rng: np.random.Generator, alpha: float,
                           normal_radius_below: bool) -> np.ndarray:
    """Unitary conjugate of the direct sum of extremal_2x2(alpha) and a
    normal block N.

    With ``normal_radius_below`` the normal part keeps w(N) <= 1/tau - 1e-3
    (so the sum is extremal); otherwise one entry pushes w(N) above 1/tau,
    dragging the ratio at least 1e-3 under tau.
    """
    inv_tau = 1.0 / tau(alpha)
    m = int(rng.integers(1, 4))
    moduli = rng.uniform(0.0, inv_tau - 1e-3, m)
    if not normal_radius_below:
        moduli[int(rng.integers(0, m))] = inv_tau * rng.uniform(1.05, 1.2)
    phases = rng.uniform(-alpha, alpha, m)
    t = direct_sum(extremal_2x2(alpha), np.diag(moduli * np.exp(1j * phases)))
    u = random_unitary(2 + m, rng)
    return u.conj().T @ t @ u


def criterion_11(seed: int) -> CriterionResult:
    """Truncated direct sums approach the optimal ratio from below.

    Block n is the extremal matrix for the angle beta_n = n*alpha/(n+1),
    scaled by tau(beta_n)/tau(alpha) so that the normalized sums share the
    radius 1/tau(alpha); no single block attains tau(alpha), while the
    truncation ratio climbs to it as blocks accumulate.
    """
    alpha = math.pi / 3.0
    tau_a = tau(alpha)
    blocks = []
    block_margin = math.inf
    for n in range(1, 51):
        beta = n * alpha / (n + 1.0)
        block = (tau(beta) / tau_a) * extremal_2x2(beta)
        blocks.append(block)
        block_margin = min(block_margin, tau_a - ratio_of(block))
    ratios = [ratio_of(direct_sum(*blocks[:count]))
              for count in (10, 20, 30, 40, 50)]
    monotone = all(ratios[i + 1] > ratios[i] for i in range(len(ratios) - 1))
    approaching = all(abs(ratios[i + 1] - tau_a) < abs(ratios[i] - tau_a)
                      for i in range(len(ratios) - 1))
    final_gap = abs(ratios[-1] - tau_a)
    passed = (final_gap <= 2e-2 and monotone and approaching
              and block_margin > 1e-4)
    return CriterionResult(
        11, "truncated-direct-sums", passed,
        f"|ratio(50 blocks)-tau|={final_gap:.3e}, "
        f"min block margin={block_margin:.3e}, monotone={monotone}")


_CRITERIA = (criterion_01, criterion_02, criterion_03, criterion_04,
             criterion_05, criterion_06, criterion_07, criterion_08,
             criterion_09, criterion_10, criterion_11)


def format_line(res: CriterionResult) -> str:
    flag = "PASS" if res.passed else "FAIL"
    return f"{res.number:2d} {flag} {res.name:<27} {res.detail}"


def generate_report(seed: int) -> tuple[str, bool]:
    """Criteria 1-11 as one text block plus the overall outcome."""
    lines = [f"acceptance suite (seed={seed})"]
    all_passed = True
    for fn in _CRITERIA:
        res = fn(seed)
        all_passed = all_passed and res.passed
        lines.append(format_line(res))
    return "\n".join(lines) + "\n", all_passed


def run_verify(seed: int) -> tuple[str, int]:
    """Full ``verify`` output and exit code.

    Criterion 12 (determinism) regenerates the whole report a second time
    and demands byte equality.
    """
    text1, ok1 = generate_report(seed)
    text2, _ = generate_report(seed)
    deterministic = text1 == text2
    line12 = CriterionResult(
        12, "cli-determinism", deterministic,
        "report regenerated byte-identically" if deterministic
        else "regenerated report differs")
    all_ok = ok1 and deterministic
    summary = ("all 12 criteria passed" if all_ok
               else "FAILURES present (see lines above)")
    out = text1 + format_line(line12) + "\n" + summary + "\n"
    return out, 0 if all_ok else 1
