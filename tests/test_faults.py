"""Fault suite: the report run on data with one injected fault.

Each case runs a command at a small size with one fault put into the
sieve's output (a scaled Lambda or a negated mu) by monkeypatching
``sieve.build_segment``, or into the store right after its build, and
asserts which checks fail and that the report is still written.
"""

import dataclasses
import json

import pytest

from mertenslab import cli, dirichlet, sieve, summatory

SMALL = ["--n-max", "200000", "--conv-cap", "20000"]


@pytest.fixture
def lambda_fault(monkeypatch):
    """Scale Lambda(7523), a prime below the conv_cap, by 1 + 1e-6, and
    count the Selberg-table builds."""
    build_segment = sieve.build_segment
    build_table = dirichlet.build_arith_table
    builds = []

    def faulty_segment(lo, hi, primes):
        seg = build_segment(lo, hi, primes)
        hit = seg.pp == 7523
        if hit.any():
            lam = seg.pp_lam.copy()
            lam[hit] *= 1.0 + 1e-6
            seg = dataclasses.replace(seg, pp_lam=lam)
        return seg

    def counted_table(*args, **kwargs):
        builds.append(args[1:])
        return build_table(*args, **kwargs)

    monkeypatch.setattr(sieve, "build_segment", faulty_segment)
    monkeypatch.setattr(dirichlet, "build_arith_table", counted_table)
    return builds


@pytest.fixture
def mu_fault(request, monkeypatch):
    """Negate mu(n0), n0 = the fixture's parameter, in the segment that
    holds it."""
    n0 = request.param
    build_segment = sieve.build_segment

    def faulty_segment(lo, hi, primes):
        seg = build_segment(lo, hi, primes)
        if lo <= n0 < hi:
            mu = seg.mu.copy()
            mu[n0 - lo] *= -1
            seg = dataclasses.replace(seg, mu=mu)
        return seg

    monkeypatch.setattr(sieve, "build_segment", faulty_segment)
    return n0


def test_failed_table_cross_check_is_reported(tmp_path, lambda_fault):
    # the table build raises CrossCheckError once; lambda2-forms and
    # residual-stats both report it, and the report is still written
    out = tmp_path / "report.json"
    assert cli.main(["report", "--out", str(out)] + SMALL) == cli.EXIT_FAIL
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for name in ("lambda2-forms", "residual-stats"):
        assert checks[name]["status"] == "fail", name
        assert "Selberg-weight forms disagree" in checks[name]["error"]
    assert len(lambda_fault) == 1


def test_failed_table_cross_check_in_verify(tmp_path, lambda_fault):
    out = tmp_path / "verify.json"
    status = cli.main(["verify", "--which", "residual-stats", "--out", str(out)] + SMALL)
    assert status == cli.EXIT_FAIL
    (check,) = json.loads(out.read_text())["checks"]
    assert check["name"] == "residual-stats" and check["status"] == "fail"
    assert check["worst_n"] >= 7523
    assert len(lambda_fault) == 1


@pytest.mark.parametrize("name, failing", [
    ("cp_a", {"f-sum-collapse", "dual-route"}),
    ("cp_fint", {"dual-route"}),
])
def test_corrupted_checkpoints_fail(tmp_path, monkeypatch, name, failing):
    # from the middle checkpoint k on, the running sum is raised by
    # 1e-6 |cp[k]|, as if one window's sum were off
    build = summatory.PrefixSums._build

    def faulty_build(self, *args):
        build(self, *args)
        cp = getattr(self, name)
        k = len(cp) // 2
        cp[k:] += 1e-6 * abs(cp[k])

    monkeypatch.setattr(summatory.PrefixSums, "_build", faulty_build)
    out = tmp_path / "report.json"
    assert cli.main(["report", "--out", str(out)] + SMALL) == cli.EXIT_FAIL
    checks = json.loads(out.read_text())["checks"]
    assert {c["name"] for c in checks if c["status"] == "fail"} == failing


@pytest.mark.parametrize("mu_fault, failing", [
    # a prime below the conv_cap: the Selberg table and the weighted
    # identity see it too
    (9973, {"f-sum-collapse", "floor-weighted", "lambda2-forms",
            "mertens-values", "residual-stats", "tatuzawa-iseki"}),
    # a prime above both the conv_cap and the identity's 1e5 points
    (99991, {"f-sum-collapse", "floor-weighted", "mertens-values"}),
], indirect=["mu_fault"])
def test_flipped_mu_fails(tmp_path, mu_fault, failing):
    out = tmp_path / "report.json"
    assert cli.main(["report", "--out", str(out)] + SMALL) == cli.EXIT_FAIL
    checks = json.loads(out.read_text())["checks"]
    assert {c["name"] for c in checks if c["status"] == "fail"} == failing
