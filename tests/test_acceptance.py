"""Acceptance criteria, one test per criterion, at their stated sizes.

Each test runs the corresponding certification suite (or CLI-level check),
asserts it passes at the stated tolerance, and prints one PASS/FAIL line.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import json
import subprocess
import sys
import time

from pwmdp.harness.certify import (
    suite_blackwell_identities,
    suite_contraction_certificate,
    suite_context_losses,
    suite_detection_delay_table,
    suite_error_budget,
    suite_piecewise_three_phase,
    suite_regime_perturbation,
    suite_safety_monotonicity,
    suite_sharp_threshold,
    suite_shared_critic_equivalence,
    suite_simplex_preservation,
)
from pwmdp.harness.cli import main

SEED = 0

# sha256 of `pwmdp certify --seed 0`'s certification.json
CERTIFICATION_SHA256 = "1815f352eb80891470c2c5f0e90e0f42c8636a5c21e4f31f61dd850b992c9ad7"
# and of its three `--inject-mutation` reports
MUTATION_SHA256 = {
    "unnormalized_belief": "244cf94c9dbf9a8cf9cf7843e670f469c34a644dc2d2b2766a1df727b32b44f3",
    "unfrozen_belief": "8c0ce4a3583fd5afbf87e4d8b969004f5a21c7270c7f7a0b10e4f6ee1755176c",
    "unclipped_surprise": "040fd53d809c187e51cf5e0fabbe61fd7c7fe0029c89246a654ea1b70d04bf37",
}


def report(number: int, name: str, suite, elapsed: float | None = None, instances: int | None = None):
    status = "PASS" if suite.passed else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(
        f"ACCEPTANCE {number:02d} {status} {name}: instances={suite.tested_instances} "
        f"max_violation={suite.max_violation:.3e} tol={suite.tolerance:.1e}{timing}"
    )
    assert suite.passed, f"criterion {number} ({name}) failed: {suite}"
    if instances is not None:
        assert suite.tested_instances == instances, f"criterion {number} ran at the wrong size"


def test_criterion_01_contraction_certificate():
    start = time.perf_counter()
    suite = suite_contraction_certificate(SEED)
    elapsed = time.perf_counter() - start
    report(1, "contraction certificate", suite, elapsed, instances=7500)
    assert elapsed < 30.0, f"contraction certificate took {elapsed:.1f}s (budget 30s)"


def test_criterion_02_blackwell_suite():
    suite = suite_blackwell_identities(SEED)
    report(2, "Blackwell identities + unnormalized negative test", suite, instances=1001)


def test_criterion_03_sharp_threshold():
    suite = suite_sharp_threshold(SEED)
    report(3, "sharp threshold and phase map", suite, instances=3001)


def test_criterion_04_detection_delay_table():
    suite = suite_detection_delay_table(SEED)
    report(4, "detection-delay table", suite)


def test_criterion_05_simplex_preservation():
    suite = suite_simplex_preservation(SEED)
    report(5, "simplex preservation (1e5 fuzz)", suite, instances=100_000)


def test_criterion_06_safety_monotonicity():
    suite = suite_safety_monotonicity(SEED)
    report(6, "safety monotonicity grid", suite)


def test_criterion_07_error_budget():
    suite = suite_error_budget(SEED)
    report(7, "combined error budget + tight witness", suite, instances=11_000)


def test_criterion_08_regime_perturbation():
    suite = suite_regime_perturbation(SEED)
    report(8, "regime perturbation bound + tight witness", suite, instances=103)


def test_criterion_09_piecewise_three_phase():
    start = time.perf_counter()
    suite = suite_piecewise_three_phase(SEED)
    elapsed = time.perf_counter() - start
    report(9, "piecewise three-phase run", suite, elapsed)
    assert elapsed < 10.0, f"three-phase run took {elapsed:.1f}s (budget 10s)"


def test_criterion_10_context_losses():
    suite = suite_context_losses(SEED)
    report(10, "context losses and linear fitter", suite)


def test_criterion_11_shared_critic_equivalence():
    suite = suite_shared_critic_equivalence(SEED)
    report(11, "shared-critic dual-path equivalence", suite, instances=100)


class TestCriterion12Reproducibility:
    """certify is byte-reproducible and injected mutations force exit code 2.

    Byte identity needs fresh interpreters, so the two clean runs are
    subprocesses, which work while the mutations run; a mutation's exit code
    and failing suite show in process.
    """

    @staticmethod
    def start_certify(tmp_path, name):
        out = tmp_path / name
        process = subprocess.Popen(
            [sys.executable, "-m", "pwmdp", "certify", "--seed", "0", "--out", str(out)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        return process, out / "certification.json"

    def test_certify_byte_identical_and_mutations_exit_2(self, tmp_path, capsys):
        (process_a, report_a), (process_b, report_b) = runs = [
            self.start_certify(tmp_path, name) for name in ("a", "b")
        ]
        expected_failures = {
            "unnormalized_belief": "blackwell_identities",
            "unfrozen_belief": "contraction_certificate",
            "unclipped_surprise": "safety_monotonicity",
        }
        mutation_codes = {}
        try:
            for mutation, suite_name in expected_failures.items():
                out = tmp_path / mutation
                mutation_codes[mutation] = main(
                    ["certify", "--seed", "0", "--out", str(out), "--inject-mutation", mutation]
                )
                written = (out / "certification.json").read_bytes()
                assert hashlib.sha256(written).hexdigest() == MUTATION_SHA256[mutation], mutation
                payload = json.loads(written)
                assert payload["passed"] is False
                failed = [s["name"] for s in payload["suites"] if not s["passed"]]
                assert suite_name in failed, f"{mutation}: expected {suite_name} in {failed}"
        finally:
            (stdout_a, stderr_a), _ = [process.communicate(timeout=600) for process, _ in runs]
        capsys.readouterr()  # the mutated runs' PASS/FAIL lines

        assert process_a.returncode == 0, stdout_a + stderr_a
        assert process_b.returncode == 0
        identical = report_a.read_bytes() == report_b.read_bytes()
        assert hashlib.sha256(report_a.read_bytes()).hexdigest() == CERTIFICATION_SHA256

        passed = identical and all(code == 2 for code in mutation_codes.values())
        status = "PASS" if passed else "FAIL"
        print(
            f"ACCEPTANCE 12 {status} reproducibility: byte_identical={identical} "
            f"mutation_exit_codes={mutation_codes}"
        )
        assert identical, "certification reports differ between identical runs"
        assert all(code == 2 for code in mutation_codes.values()), mutation_codes
