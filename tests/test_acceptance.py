"""Acceptance suite: every criterion at its stated tolerance.

Two ``verify`` processes run side by side, each regenerating the report
(criteria 1-11 twice, then criterion 12's byte comparison).  Each test
asserts and prints its own line of the first run's report; criterion 12
also demands exit code 0 from both runs and byte-identical stdout.
"""

import os
import subprocess
import sys

import pytest

import sector_radius

VERIFY = [sys.executable, "-W", "error::RuntimeWarning", "-m", "sector_radius",
          "verify", "--seed", "0"]


@pytest.fixture(scope="module")
def verify_runs():
    """(returncode, stdout bytes, stderr text) of two concurrent ``verify``
    runs of the package this session imported; both are killed if either
    fails or times out."""
    root = os.path.dirname(os.path.dirname(sector_radius.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    procs = []
    try:
        for _ in range(2):
            procs.append(subprocess.Popen(VERIFY, stdout=subprocess.PIPE,
                                          stderr=subprocess.PIPE, env=env))
        outs = [p.communicate(timeout=1800) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    return [(p.returncode, out, err.decode())
            for p, (out, err) in zip(procs, outs)]


def _check(verify_runs, number):
    out = verify_runs[0][1].decode()
    lines = [ln for ln in out.splitlines() if ln.split()[:1] == [str(number)]]
    assert len(lines) == 1, out + verify_runs[0][2]
    print(lines[0])
    assert lines[0].split()[1] == "PASS", lines[0]


def test_criterion_01_extremal_ratio_equality(verify_runs):
    _check(verify_runs, 1)


def test_criterion_02_half_plane_block_constants(verify_runs):
    _check(verify_runs, 2)


def test_criterion_03_ratio_bound_random(verify_runs):
    _check(verify_runs, 3)


def test_criterion_04_grid_oracle_equivalence(verify_runs):
    _check(verify_runs, 4)


def test_criterion_05_elliptical_range_law(verify_runs):
    _check(verify_runs, 5)


def test_criterion_06_strict_interior_ratio(verify_runs):
    _check(verify_runs, 6)


def test_criterion_07_unique_maximizer(verify_runs):
    _check(verify_runs, 7)


def test_criterion_08_three_by_three_family(verify_runs):
    _check(verify_runs, 8)


def test_criterion_09_irreducible_chain_family(verify_runs):
    _check(verify_runs, 9)


def test_criterion_10_certification_round_trip(verify_runs):
    _check(verify_runs, 10)


def test_criterion_11_truncated_direct_sums(verify_runs):
    _check(verify_runs, 11)


def test_criterion_12_cli_determinism(verify_runs):
    _check(verify_runs, 12)
    (code1, out1, err1), (code2, out2, err2) = verify_runs
    assert code1 == 0, out1.decode() + err1
    assert code2 == 0, out2.decode() + err2
    assert out1 == out2
