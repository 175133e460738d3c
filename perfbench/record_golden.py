"""Regenerate ``golden.json``: the exact outputs of every pool seed.

    python3 perfbench/record_golden.py

Run this only when the program's outputs are meant to change.  It stops
without writing if any pool seed fails its band checks.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.cap_blas_threads()
    sys.path[:0] = [str(run.SRC)]
    import workloads as wl

    run.RESULTS.mkdir(exist_ok=True)
    data = {}
    for workload in wl.WORKLOADS:
        entries = data[workload] = {}
        for seed in wl.pool(workload) + wl.pool(workload, held_out=True):
            cfg = wl.make_config(workload, seed)
            with tempfile.TemporaryDirectory(dir=run.RESULTS) as workdir:
                workdir = Path(workdir)
                out = wl.output(workload, wl.run_op(workload, cfg, workdir), workdir)
            errors = wl.check(workload, cfg, out, out.golden())
            if errors:
                print(f"{workload} seed {seed}: {'; '.join(errors)}", file=sys.stderr)
                return 1
            entries[str(seed)] = out.golden()
            print(f"{workload} {seed} {out.golden()}", flush=True)
    wl.GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
