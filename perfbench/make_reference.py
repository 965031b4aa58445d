#!/usr/bin/env python3
"""Regenerate reference.json: each workload's output at the default seed and
budget, which run.py then requires byte for byte.

    python3 perfbench/make_reference.py

Only rerun it on purpose, when a change is meant to alter these outputs, and
say so with the change.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run.import_dualmix()
    import workloads
    reference = {}
    workdir = run.OUT / "reference-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, w in workloads.WORKLOADS.items():
            cfg = w.config(workloads.DEFAULT_SEED)
            output = workloads.call(w, cfg, w.max_iter, workdir)
            reference[name] = workloads.reference_view(w, output)
            print(f"{name}: done")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                                   + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
