"""Acceptance gate: `cvboson verify --level full`, run once and asserted per check and
per criterion within its wall-clock budget (`pytest -s` prints the PASS lines)."""

import pytest

from cvboson import verify


@pytest.fixture(scope="module")
def results():
    return {result.name: result for result in verify.run_checks("full")}


@pytest.mark.parametrize("name", [name for name, _ in verify._CHECKS])
def test_verify_full_check_passes(results, name):
    assert results[name].passed, results[name].detail


def _criterion(results, number, budget, *names):
    assert all(results[name].passed for name in names), [results[n].detail for n in names]
    elapsed = sum(results[name].seconds for name in names)
    assert elapsed < budget
    details = "; ".join(results[name].detail for name in names)
    print(f"\nACCEPTANCE {number} PASS: {details} ({elapsed:.2f}s)")


def test_criterion_1_detector_curves(results):
    _criterion(results, 1, 1.0, "detector-curves-crossing")


def test_criterion_2_povm_identities(results):
    _criterion(results, 2, 30.0, "radius-zero-projection", "phase-average-identity",
               "completeness-residuals")


def test_criterion_3_permanent_engine(results):
    _criterion(results, 3, 10.0, "permanent-cross-check")


def test_criterion_4_distribution_exactness(results):
    _criterion(results, 4, 120.0, "amplitude-vs-naive-permanent", "table-normalization",
               "click-probability-by-quadrature")


def test_criterion_5_leading_order_law(results):
    _criterion(results, 5, 120.0, "leading-order")


def test_criterion_6_samplers(results):
    _criterion(results, 6, 180.0, "sampler-total-variation", "dprcv1-total-variation",
               "sampler-determinism", "coarse-graining-consistency", "cv1-joint-density")


def test_criterion_7_bound_chain(results):
    _criterion(results, 7, float("inf"), "bound-chain")


def test_criterion_8_hong_ou_mandel(results):
    _criterion(results, 8, float("inf"), "hong-ou-mandel")
