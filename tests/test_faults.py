"""Fault suite: the report run on data with one injected fault.

Each case runs a command at a small size with one fault put into the
sieve's output by monkeypatching ``sieve.build_segment``, or into the store
right after its build, and asserts which checks fail and that the report is
still written.
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

    def faulty_build(self):
        build(self)
        cp = getattr(self, name)
        k = len(cp) // 2
        cp[k:] += 1e-6 * abs(cp[k])

    monkeypatch.setattr(summatory.PrefixSums, "_build", faulty_build)
    out = tmp_path / "report.json"
    assert cli.main(["report", "--out", str(out)] + SMALL) == cli.EXIT_FAIL
    checks = json.loads(out.read_text())["checks"]
    assert {c["name"] for c in checks if c["status"] == "fail"} == failing
