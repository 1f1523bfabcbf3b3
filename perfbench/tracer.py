"""Outside-in layer trace: wrappers around the program's public functions.

:func:`install` replaces module attributes (and the entries of
``cli.CHECKS``) with wrappers that record nested spans.  Each span knows
its parent; self time is the span minus the time of its child spans.
Spans are aggregated in memory by (name, parent) and written once at exit.

Integers sieved are attributed to the first span outside ``sieve`` that
encloses the ``build_segment`` call.  A target that no longer exists is
listed in ``missing``, and the metrics that need it are left out.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# first enclosing span outside sieve -> caller label for integers sieved
CALLERS = {
    "summatory.build": "summatory_build",
    "summatory.window": "summatory_window",
    "hprofile.stream": "hprofile_stream",
    "dirichlet.build_arith_table": "dirichlet",
}

# scalar point queries of PrefixSums; a query made inside another is not
# counted again
QUERY_METHODS = ("mertens", "mu_log_sum", "big_f", "big_f_integral",
                 "h_smoothed", "h_mertens")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # [name, child time, start]
        self.spans: dict[tuple, list] = {}   # (name, parent) -> [n, incl, self]
        self.counters: dict[str, float] = {}
        self.installed: list[str] = []
        self.missing: list[str] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def enter(self, name: str) -> list:
        frame = [name, 0.0, time.perf_counter()]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        dt = time.perf_counter() - frame[2]
        self.stack.pop()
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][1] += dt
        agg = self.spans.setdefault((frame[0], parent), [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - frame[1]

    def caller(self) -> str:
        for name, _, _ in reversed(self.stack):
            if not name.startswith("sieve."):
                return CALLERS.get(name, "other")
        return "other"

    def span(self, fn, name_of):
        """Wrap fn so that each call is a span named name_of(args, kwargs)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(frame)
        return wrapper

    def payload(self) -> dict:
        return {"spans": [[name, parent, n, incl, self_t]
                          for (name, parent), (n, incl, self_t) in self.spans.items()],
                "counters": self.counters, "installed": self.installed,
                "missing": self.missing}


def _rebind(old, new) -> None:
    """Point every ``from x import f`` copy inside the package at the wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("mertenslab") and mod is not None:
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)


def _replace(tr: Tracer, owner, attr: str, label: str, make) -> None:
    """Swap owner.attr (or owner[attr]) for make(original), and record label
    as installed, or as missing when there is nothing to wrap."""
    if isinstance(owner, dict):
        fn = owner.get(attr)
    else:
        fn = getattr(owner, attr, None) if owner is not None else None
    if fn is None or not callable(fn):
        tr.missing.append(label)
        return
    new = functools.wraps(fn)(make(fn))
    if isinstance(owner, dict):
        owner[attr] = new
    else:
        setattr(owner, attr, new)
    _rebind(fn, new)
    tr.installed.append(label)


def _spanned(tr: Tracer, owner, attr: str, name: str) -> None:
    _replace(tr, owner, attr, name, lambda fn: tr.span(fn, lambda a, k: name))


def install(tr: Tracer) -> None:
    """Wrap the public functions of every layer named in the README."""
    sieve = importlib.import_module("mertenslab.sieve")
    summatory = importlib.import_module("mertenslab.summatory")
    hprofile = importlib.import_module("mertenslab.hprofile")
    dirichlet = importlib.import_module("mertenslab.dirichlet")
    identities = importlib.import_module("mertenslab.identities")
    reporting = importlib.import_module("mertenslab.reporting")
    cli = importlib.import_module("mertenslab.cli")

    def counted_segment(fn):
        spanned = tr.span(fn, lambda a, k: "sieve.build_segment")

        def build_segment(lo, hi, *args, **kwargs):
            tr.count("sieve.ints", hi - lo)
            tr.count("sieve.ints." + tr.caller(), hi - lo)
            return spanned(lo, hi, *args, **kwargs)
        return build_segment

    _replace(tr, sieve, "build_segment", "sieve.build_segment", counted_segment)
    _spanned(tr, sieve, "mobius_from_segment", "sieve.mobius")
    _spanned(tr, sieve, "lambda_from_segment", "sieve.lambda")

    cls = getattr(summatory, "PrefixSums", None)
    _spanned(tr, cls, "__init__", "summatory.build")

    def replayed_window(fn):
        replay = tr.span(fn, lambda a, k: "summatory.window")

        def window(self, k, *args, **kwargs):
            if k in getattr(self, "_windows", ()):
                tr.count("summatory.lru_hits")
                return fn(self, k, *args, **kwargs)
            tr.count("summatory.window_replays")
            return replay(self, k, *args, **kwargs)
        return window

    _replace(tr, cls, "_window", "summatory.window", replayed_window)

    def counted_query(fn):
        def query(*args, **kwargs):
            if any(frame[0] == "summatory.query" for frame in tr.stack):
                return fn(*args, **kwargs)
            tr.count("summatory.queries")
            frame = tr.enter("summatory.query")
            try:
                return fn(*args, **kwargs)
            finally:
                tr.leave(frame)
        return query

    for meth in QUERY_METHODS:
        _replace(tr, cls, meth, "summatory.query." + meth, counted_query)

    _spanned(tr, hprofile, "stream_cumulative", "hprofile.stream")
    _spanned(tr, hprofile, "build_profile", "hprofile.build_profile")
    _spanned(tr, hprofile, "estimate_constants", "hprofile.estimate_constants")

    _spanned(tr, dirichlet, "build_arith_table", "dirichlet.build_arith_table")
    _spanned(tr, dirichlet, "convolve_prefix", "dirichlet.convolve_prefix")

    _spanned(tr, identities, "tatuzawa_iseki_residual", "identities.tatuzawa_iseki")
    _spanned(tr, identities, "check_f_sum_identity", "identities.f_sum_identity")
    _spanned(tr, identities, "floor_weighted_mu_sum", "identities.floor_weighted")
    _spanned(tr, identities, "mertens_tail_sups", "identities.mertens_tail_sups")

    def per_kind(fn):
        return tr.span(fn, lambda a, k: "identities.remainder."
                       + str(k.get("kind", a[1] if len(a) > 1 else "")))

    _replace(tr, identities, "remainder_series", "identities.remainder", per_kind)

    def sized_write(fn):
        spanned = tr.span(fn, lambda a, k: "reporting.write")

        def write_json_atomic(path, obj, *args, **kwargs):
            out = spanned(path, obj, *args, **kwargs)
            tr.count("reporting.json_bytes", os.path.getsize(path))
            return out
        return write_json_atomic

    _replace(tr, reporting, "write_json_atomic", "reporting.write", sized_write)

    checks = getattr(cli, "CHECKS", {})
    for check_name in list(checks):
        _spanned(tr, checks, check_name, "cli.check." + check_name)

