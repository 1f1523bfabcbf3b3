"""Reference figures for paths that no workload takes.  Run by hand:

    python3 perfbench/extras.py [--repeat 3]

Each figure is the median over fresh child processes, started the way
run.py starts them (single-threaded, no MLAB_CACHE):

* the time of ``import mertenslab.cli``;
* ``PrefixSums(1e7)`` without a cache, with a cold segment cache (the build
  writes it) and with a warm one (the build reads it);
* ``PrefixSums(1e7)`` build time and peak RSS with ``workers=1`` and 2.

The cache lives under ``.perfbench/`` in the checkout and is removed at
the end.  Nothing here checks outputs; run.py does that.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import run

BUILD = """
import json, sys, time
t = time.perf_counter()
from mertenslab import summatory
imported = time.perf_counter() - t
t = time.perf_counter()
summatory.PrefixSums(10**7, cache_dir=sys.argv[1] or None, workers=int(sys.argv[2]))
print(json.dumps({"import_s": imported, "build_s": time.perf_counter() - t}))
"""

IMPORT_CLI = """
import json, time
t = time.perf_counter()
import mertenslab.cli
print(json.dumps({"import_s": time.perf_counter() - t}))
"""


def child(runner: run.Runner, code: str, *argv: str) -> tuple[dict, float]:
    rec = runner.spawn([sys.executable, "-c", code, *argv])
    if rec.rc != 0:
        raise SystemExit(f"child failed: {rec.log}")
    return json.loads(rec.log.strip().splitlines()[-1]), rec.rss_mb


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--repeat", type=int, default=3)
    args = p.parse_args()
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="extras-", dir=run.WORK))
    try:
        runner = run.Runner(work, budget_s=600.0)
        cache = work / "cache"
        figures: dict[str, list] = {}

        def add(name, value):
            figures.setdefault(name, []).append(value)

        for _ in range(args.repeat):
            add("import mertenslab.cli (s)", child(runner, IMPORT_CLI)[0]["import_s"])
            for workers in (1, 2):
                got, rss = child(runner, BUILD, "", str(workers))
                add(f"PrefixSums(1e7) workers={workers}, no cache (s)", got["build_s"])
                add(f"PrefixSums(1e7) workers={workers}, peak RSS (MB)", rss)
            shutil.rmtree(cache, ignore_errors=True)
            add("PrefixSums(1e7) cold cache, writes it (s)",
                child(runner, BUILD, str(cache), "1")[0]["build_s"])
            add("PrefixSums(1e7) warm cache, reads it (s)",
                child(runner, BUILD, str(cache), "1")[0]["build_s"])
        for name, values in figures.items():
            print(f"{name}: median {statistics.median(values):.3f} "
                  f"of {[round(v, 3) for v in values]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
