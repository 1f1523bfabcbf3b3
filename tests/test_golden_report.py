"""The report at n_max 2e5 against its checked-in golden copy.

``tests/golden/report_2e5.json`` was made by ``mertenslab report --n-max
200000 --conv-cap 20000``.  A change that moves a value regenerates it and
names each changed key with its relative change, as ``report_diff.py``
prints them.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mertenslab import cli

import report_diff

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "report_2e5.json"
ARGS = ["report", "--n-max", "200000", "--conv-cap", "20000"]
# numpy's AVX-512 paths off, for the child process only
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _failures(actual: dict) -> list[str]:
    rows = report_diff.compare(_golden(), actual)
    return [line for line, (*_, ok) in zip(report_diff.format_rows(rows), rows) if not ok]


def test_report_matches_golden(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(ARGS + ["--out", str(out)]) == 0
    assert _failures(json.loads(out.read_text())) == []


def test_report_matches_golden_without_avx512(tmp_path):
    out = tmp_path / "report.json"
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "mertenslab.cli", *ARGS, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert _failures(json.loads(out.read_text())) == []


class TestComparator:
    def test_every_key_of_the_golden_report_has_a_class(self):
        assert [p for p in report_diff.flatten(_golden()) if report_diff.classify(p) is None] == []

    def test_same_report_has_no_rows(self):
        assert report_diff.compare(_golden(), _golden()) == []

    def _one_row(self, edit):
        actual = _golden()
        edit(actual)
        rows = report_diff.compare(_golden(), actual)
        assert len(rows) == 1
        return rows[0]

    def test_unclassified_key_fails(self):
        path, cls, _, _, ok = self._one_row(lambda r: r["config"].update(new_key=1.0))
        assert (path, cls, ok) == ("config.new_key", "unclassified", False)

    def test_missing_key_fails(self):
        path, _, _, _, ok = self._one_row(lambda r: r["profiles"]["mertens"].pop("n_zeros"))
        assert path == "profiles.mertens.n_zeros" and not ok

    def test_exact_key_must_be_equal(self):
        def edit(r):
            r["checks"][0]["values"][0]["M"] += 1
        path, cls, _, _, ok = self._one_row(edit)
        assert (path, cls, ok) == ("checks.mertens-values.values.0.M", "exact", False)

    @pytest.mark.parametrize("rel, ok", [(5e-13, True), (5e-12, False)])
    def test_values_within_1e_12_relative(self, rel, ok):
        def edit(r):
            r["profiles"]["smoothed"]["constants"]["kappa"] *= 1.0 + rel
        _, cls, _, _, got = self._one_row(edit)
        assert (cls, got) == ("values", ok)

    def test_residual_within_its_budget(self):
        golden = _golden()
        check = next(c for c in golden["checks"] if c["name"] == "floor-weighted")
        budget = golden["config"]["tol_rel"] * check["worst"]["x"]
        for step, ok in ((0.5 * budget, True), (2.0 * budget, False)):
            def edit(r, step=step):
                next(c for c in r["checks"] if c["name"] == "floor-weighted")[
                    "worst"]["residual"] += step
            _, cls, _, _, got = self._one_row(edit)
            assert (cls, got) == ("residual", ok)

    def test_worst_point_may_move_while_the_check_holds(self):
        actual = copy.deepcopy(_golden())
        worst = next(c for c in actual["checks"] if c["name"] == "dual-route")["worst"]
        worst["x"] *= 0.999
        assert all(ok for *_, ok in report_diff.compare(_golden(), actual))
        worst["gap"] = 2.0 * worst["budget"]
        assert not all(ok for *_, ok in report_diff.compare(_golden(), actual))

    def test_runs_as_a_script(self, tmp_path):
        changed = _golden()
        changed["profiles"]["smoothed"]["constants"]["kappa"] *= 1.0 + 1e-9
        path = tmp_path / "changed.json"
        path.write_text(json.dumps(changed))
        script = str(ROOT / "tests" / "report_diff.py")
        same = subprocess.run([sys.executable, script, str(GOLDEN), str(GOLDEN)],
                              capture_output=True, text=True, timeout=60)
        assert same.returncode == 0 and same.stdout == ""
        moved = subprocess.run([sys.executable, script, str(GOLDEN), str(path)],
                               capture_output=True, text=True, timeout=60)
        assert moved.returncode == 1
        assert "profiles.smoothed.constants.kappa" in moved.stdout
