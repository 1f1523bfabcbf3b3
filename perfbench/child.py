"""One benchmark job in a fresh process; results go to a JSON file.

    child.py queries --inputs FILE.npz --out FILE.json [--trace FILE.json]
    child.py sweep --n-max N --out FILE.json [--trace FILE.json]
    child.py report --trace FILE.json -- <mertenslab command line>

``queries`` builds ``PrefixSums(n_max)`` and answers the given calls one
after another, timing each.  ``sweep`` builds the store, then runs one
mertens-profile pass (``mertens_tail_sups``) and ``mertens(10**k)``.
``report`` runs the command line through ``mertenslab.cli.main``; it is
used only for the traced run, the untraced one calls the CLI directly.
With ``--trace`` the layer wrappers are installed first and their spans
are written to the trace file at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

import tracer


def run_queries(args) -> dict:
    from mertenslab import summatory

    data = np.load(args.inputs)
    xs, kinds = data["xs"], data["kinds"]
    t0 = time.perf_counter()
    store = summatory.PrefixSums(int(data["n_max"]))
    setup_s = time.perf_counter() - t0

    calls = (store.mertens, store.big_f, store.big_f_integral)
    values = [None] * len(xs)                 # stays None where the call raised
    latencies = np.zeros(len(xs))
    errors = []
    t_phase = time.perf_counter()
    for i in range(len(xs)):
        call, x = calls[kinds[i]], float(xs[i])
        t = time.perf_counter()
        try:
            values[i] = call(x)
        except Exception as exc:  # a failed call is counted, not fatal
            errors.append([i, repr(exc)])
        latencies[i] = time.perf_counter() - t
    phase_s = time.perf_counter() - t_phase
    return {"setup_s": setup_s, "phase_s": phase_s,
            "latencies_s": latencies.tolist(),
            "values": values,
            "errors": errors}


def run_sweep(args) -> dict:
    from mertenslab import identities, summatory

    t0 = time.perf_counter()
    store = summatory.PrefixSums(args.n_max)
    setup_s = time.perf_counter() - t0

    errors = []
    tail, mertens = None, {}
    t_phase = time.perf_counter()
    try:
        tail = {str(k): v for k, v in identities.mertens_tail_sups(store).items()}
    except Exception as exc:
        errors.append(["tail", repr(exc)])
    for k in range(1, int(round(math.log10(args.n_max))) + 1):
        try:
            mertens[str(k)] = store.mertens(10 ** k)
        except Exception as exc:
            errors.append([k, repr(exc)])
    phase_s = time.perf_counter() - t_phase
    return {"setup_s": setup_s, "phase_s": phase_s, "tail_sups": tail,
            "mertens": mertens, "errors": errors}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("job", choices=("queries", "sweep", "report"))
    p.add_argument("--inputs")
    p.add_argument("--n-max", type=int)
    p.add_argument("--out")
    p.add_argument("--trace")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = p.parse_args(argv[:split])
    args.cli_args = argv[split + 1:]

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tracer.install(tr)
    try:
        if args.job == "report":
            from mertenslab import cli
            return cli.main(args.cli_args)
        result = run_queries(args) if args.job == "queries" else run_sweep(args)
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0
    finally:
        if tr is not None:
            with open(args.trace, "w") as fh:
                json.dump(tr.payload(), fh)


if __name__ == "__main__":
    sys.exit(main())
