"""Regenerate tests/golden_seed7.txt, the SHA-256 table of the acceptance
gate's seed-7 contrast run.

    PYTHONPATH=src python tests/make_golden.py

The contrast pipeline of tests/test_acceptance.py runs once under each
OpenBLAS kernel of KERNELS, each in a child process (OpenBLAS reads
OPENBLAS_CORETYPE when numpy loads it). The table records the artifacts
that GOLDEN_ARTIFACTS names, with the numpy version it was made on. The
script writes nothing and exits 1 unless every kernel wrote each of
those artifacts alike; it prints the other artifacts whose bytes depend
on the kernel. The CPU must run every kernel of KERNELS (SkylakeX needs
AVX-512).
"""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from test_acceptance import GOLDEN_ARTIFACTS, GOLDEN_TABLE, _run_contrast_pipeline

KERNELS = ("SkylakeX", "Haswell", "Prescott")


def digests_of_one_run():
    """{artifact name: SHA-256 hex} of one contrast run in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        with contextlib.redirect_stdout(sys.stderr):
            _run_contrast_pipeline(root)
        # the manifests record paths and durations, which differ run to run
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.iterdir()) if not p.name.endswith(".manifest.txt")}


def main():
    if sys.argv[1:] == ["--one-run"]:
        print(json.dumps(digests_of_one_run()))
        return 0
    runs = {}
    for kernel in KERNELS:
        child = subprocess.run([sys.executable, __file__, "--one-run"], check=True,
                               stdout=subprocess.PIPE, text=True,
                               env={**os.environ, "OPENBLAS_CORETYPE": kernel})
        runs[kernel] = json.loads(child.stdout)
    first = runs[KERNELS[0]]
    differ = sorted(name for name in first
                    if any(run[name] != first[name] for run in runs.values()))
    print(f"kernel-dependent artifacts: {', '.join(differ) or 'none'}")
    broken = [name for name in GOLDEN_ARTIFACTS if name in differ]
    if broken:
        print(f"not written alike by {', '.join(KERNELS)}: {', '.join(broken)}", file=sys.stderr)
        return 1
    lines = ["# SHA-256 of the seed-7 contrast-run artifacts of tests/test_acceptance.py",
             f"# that the OpenBLAS kernels {', '.join(KERNELS)} write alike.",
             "# Regenerate with: PYTHONPATH=src python tests/make_golden.py",
             f"numpy {np.__version__}",
             *(f"{first[name]}  {name}" for name in GOLDEN_ARTIFACTS)]
    GOLDEN_TABLE.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    print(f"wrote {GOLDEN_TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
