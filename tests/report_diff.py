"""Compare two ``report.json`` files key by key.

    python tests/report_diff.py EXPECTED ACTUAL

Every key of a report falls in one of three classes:

* exact: integers, strings, statuses, flags and the pinned values (M at
  powers of ten, the Selberg-weight anchors) must be equal;
* values: the other floats must agree within 1e-12 relative;
* residuals: the gaps, residuals and discrepancies of a check, and the
  point where its worst one sits, are rounding; they move with the CPU's
  vector code.  A residual may change by at most its check's budget, and
  the worst point may move as long as the check still holds there.

A key in no class fails the comparison, so each new key of the report is
given a class before it is compared.  So does a key that one report has and
the other has not.  The script prints one line per changed key, with its
class and relative change, and exits 1 when any of them fails.
"""

from __future__ import annotations

import json
import math
import sys
from fnmatch import fnmatchcase

REL = 1e-12


def _tol_x(c, tol):
    return tol * c["worst"]["x"]


# check name -> (paths of its residual keys, (worst residual, budget there))
RESIDUALS = {
    "tatuzawa-iseki": (
        ("worst.*",),
        lambda c, tol: (abs(c["worst"]["residual"]),
                        _tol_x(c, tol) * math.log(c["worst"]["x"]) ** 2)),
    "f-sum-collapse": (("worst.*",), lambda c, tol: (abs(c["worst"]["residual"]),
                                                     _tol_x(c, tol))),
    "floor-weighted": (("worst.*",), lambda c, tol: (abs(c["worst"]["residual"]),
                                                     _tol_x(c, tol))),
    "lambda2-forms": (("max_form_discrepancy", "worst_n"),
                      lambda c, tol: (c["max_form_discrepancy"], c["budget"])),
    "dual-route": (("max_gap", "worst.*"),
                   lambda c, tol: (c["worst"]["gap"], c["worst"]["budget"])),
}
# residual keys that name the worst point, or follow from it
POINT_KEYS = ("x", "f", "worst_n", "budget")

EXACT = (
    "tool.*", "config.n_max", "config.conv_cap", "config.segment_size",
    "checks.*.name", "checks.*.status", "checks.*.tolerance",
    "checks.*.n_points", "checks.*.n_samples", "checks.*.seed", "checks.*.cap",
    "checks.*.functions.*",
    "checks.mertens-values.values.*", "checks.lambda2-forms.anchors.*",
    "checks.residual-stats.x",
    "iterations.*.n_steps",
    "remainders.*.kind", "remainders.*.n_samples", "remainders.*.caps.*",
    "profiles.*.n_samples", "profiles.*.n_zeros",
    "profiles.*.constants.provenance.n_*",
    "profiles.*.constants.provenance.finite_zero_branch",
    "profiles.*.constants.provenance.zeros_are_step_boundaries",
)

VALUES = (
    "config.grid.*", "config.tail_fraction", "config.tol_*",
    "checks.lambda2-forms.budget", "checks.h-bound.sup_abs_h",
    "checks.residual-stats.r1*", "checks.remainder-growth.kinds.*",
    "iterations.*.alpha", "iterations.*.lambda", "iterations.*.limit",
    "iterations.*.final_*", "iterations.*.recurrence_limit_bound",
    "remainders.*.sup_normalized", "remainders.*.argmax_x",
    "profiles.*.constants.*_hat", "profiles.*.constants.kappa",
    "profiles.*.constants.epsilon", "profiles.*.constants.h_param",
    "profiles.*.constants.lambda_est", "profiles.*.constants.provenance.window_*",
    "profiles.*.decade_sups.*",
)


def flatten(report: dict) -> dict:
    """path -> leaf value.  A check is named by its name in the path, any
    other list entry by its index."""
    out = {}

    def walk(prefix, node):
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, list):
            items = ((item["name"] if prefix == "checks" else i, item)
                     for i, item in enumerate(node))
        else:
            out[prefix] = node
            return
        for key, child in items:
            walk(f"{prefix}.{key}" if prefix else str(key), child)

    walk("", report)
    return out


def classify(path: str) -> str | None:
    """The class of a key's path: "residual", "exact", "values" or None."""
    parts = path.split(".", 2)
    if parts[0] == "checks" and parts[1] in RESIDUALS and len(parts) == 3:
        if any(fnmatchcase(parts[2], p) for p in RESIDUALS[parts[1]][0]):
            return "residual"
    if any(fnmatchcase(path, p) for p in EXACT):
        return "exact"
    if any(fnmatchcase(path, p) for p in VALUES):
        return "values"
    return None


def _check(report: dict, name: str) -> dict:
    return next(c for c in report["checks"] if c["name"] == name)


def _rel(a, b) -> float:
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def compare(expected: dict, actual: dict) -> list[tuple[str, str, object, object, bool]]:
    """(path, class, expected value, actual value, within its class) for
    every key that is unclassified, missing from one report, or changed."""
    want, got = flatten(expected), flatten(actual)
    rows = []
    for path in sorted(set(want) | set(got)):
        cls = classify(path)
        a, b = want.get(path), got.get(path)
        if cls is None or path not in want or path not in got:
            rows.append((path, cls or "unclassified", a, b, False))
            continue
        if a == b and type(a) is type(b):
            continue
        if cls == "exact":
            ok = False
        elif cls == "values":
            ok = _rel(a, b) <= REL
        else:
            name = path.split(".", 2)[1]
            budget_of = RESIDUALS[name][1]
            worst_b, budget_b = budget_of(_check(actual, name), actual["config"]["tol_rel"])
            if path.rsplit(".", 1)[-1] in POINT_KEYS:
                # the worst point moved: the check must still hold there
                ok = worst_b <= budget_b
            else:
                _, budget_a = budget_of(_check(expected, name), expected["config"]["tol_rel"])
                ok = abs(a - b) <= max(budget_a, budget_b)
        rows.append((path, cls, a, b, ok))
    return rows


def format_rows(rows) -> list[str]:
    return [f"{'ok  ' if ok else 'FAIL'} {cls:<12} {path}: {a!r} -> {b!r}"
            + (f" (rel {_rel(a, b):.3g})" if math.isfinite(_rel(a, b)) else "")
            for path, cls, a, b, ok in rows]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tests/report_diff.py EXPECTED ACTUAL", file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        rows = compare(json.load(fa), json.load(fb))
    for line in format_rows(rows):
        print(line)
    return 0 if all(ok for *_, ok in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
