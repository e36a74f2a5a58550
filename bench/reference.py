"""Regenerate ``reference.json``: the expected (status, rule) of every classify
job of the census workload, keyed by group and prime.

The jobs are run through the CLI in the identity basis.  Run from the
repository root, and commit the result only after checking the difference:

    python3 bench/reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import run

run._use_checkout_sources()

from checks import REFERENCE_PATH  # noqa: E402
from multinv.cli import main  # noqa: E402
from workloads import build_jobs, write_jobspecs  # noqa: E402


def reference() -> dict:
    os.makedirs(run.WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=run.WORK_DIR)
    table: dict[str, dict] = {}
    try:
        jobs = [j for j in build_jobs("census", None) if j.command == "classify"]
        write_jobspecs(jobs, os.path.join(work, "census"))
        expected = table.setdefault("census", {})
        for job in jobs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(job.argv())
            if code != 0:
                raise RuntimeError(f"{job.name} exits {code}")
            report = json.loads(out.getvalue())
            expected[job.key] = [report["status"], report["rule"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return table


if __name__ == "__main__":
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference(), fh, indent=1, sort_keys=True)
        fh.write("\n")
