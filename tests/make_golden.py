"""Regenerate tests/golden_seed7.txt, the SHA-256 table of the acceptance
gate's seed-7 contrast run, or print the OpenBLAS core numpy runs on.

    PYTHONPATH=src python tests/make_golden.py
    python tests/make_golden.py --core

The contrast pipeline of tests/test_acceptance.py runs once under each
OpenBLAS kernel of KERNELS, each in a child process (OpenBLAS reads
OPENBLAS_CORETYPE when numpy loads it). The table records, with the
numpy version it was made on, the artifacts of GOLDEN_ARTIFACTS, which
every kernel writes alike, and those of KERNEL_ARTIFACTS once for each
kernel, keyed by the core name that OpenBLAS reports (a forced Prescott
can report Katmai, and a misspelt name runs the native core). The
script writes nothing and exits 1 unless every kernel wrote each
artifact of GOLDEN_ARTIFACTS alike; it prints the artifacts whose bytes
depend on the kernel. The CPU must run every kernel of KERNELS
(SkylakeX needs AVX-512).
"""

import contextlib
import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

KERNELS = ("SkylakeX", "Haswell", "Prescott")
GOLDEN_TABLE = Path(__file__).with_name("golden_seed7.txt")
# the same bytes under every kernel of KERNELS
GOLDEN_ARTIFACTS = ("scene.sct", "wl_run.meta", "sc_run.meta",
                    "wl_eval.phases.csv", "wl_eval.summary.txt",
                    "sc_eval.phases.csv", "sc_eval.summary.txt",
                    "wl_grid.svg", "sc_grid.svg")
# these differ between kernels in the last bits of the atoms and of the fitted values
KERNEL_ARTIFACTS = ("wl_run.sct", "sc_run.sct", "wl_run.loss.csv", "sc_run.loss.csv",
                    "wl_eval.gabor.csv", "sc_eval.gabor.csv")


def openblas_core():
    """The core name that numpy's bundled OpenBLAS reports, or None when
    its library exports no core-name function."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    # dlsym on the extension's handle also searches the OpenBLAS it links
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
        corename = getattr(lib, symbol, None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def read_golden_table():
    """(numpy version, {artifact: digest} of GOLDEN_ARTIFACTS,
    {core: {artifact: digest}} of KERNEL_ARTIFACTS) from the table."""
    # a "numpy <version>" line, then "<SHA-256 hex>  <artifact>" lines, with
    # a third field "<core>" on the rows of a kernel-dependent artifact
    version, digests, by_core = None, {}, {}
    for line in GOLDEN_TABLE.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "numpy":
            version = fields[1]
        elif len(fields) == 2:
            digests[fields[1]] = fields[0]
        else:
            by_core.setdefault(fields[2], {})[fields[1]] = fields[0]
    return version, digests, by_core


def digests_of_one_run():
    """{artifact name: SHA-256 hex} of one contrast run in a temporary directory."""
    from test_acceptance import _run_contrast_pipeline  # it imports this module's tables

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        with contextlib.redirect_stdout(sys.stderr):
            _run_contrast_pipeline(root)
        # the manifests record paths and durations, which differ run to run
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.iterdir()) if not p.name.endswith(".manifest.txt")}


def main():
    if sys.argv[1:] == ["--core"]:
        print(f"OpenBLAS core: {openblas_core()}")
        return 0
    if sys.argv[1:] == ["--one-run"]:
        print(json.dumps({"core": openblas_core(), "digests": digests_of_one_run()}))
        return 0
    runs = {}
    for kernel in KERNELS:
        child = subprocess.run([sys.executable, __file__, "--one-run"], check=True,
                               stdout=subprocess.PIPE, text=True,
                               env={**os.environ, "OPENBLAS_CORETYPE": kernel})
        runs[kernel] = json.loads(child.stdout)
        print(f"{kernel} ran on core {runs[kernel]['core']}")
    cores = [run["core"] for run in runs.values()]
    if None in cores or len(set(cores)) != len(cores):
        print(f"the kernels {', '.join(KERNELS)} must report distinct core names, "
              f"got {', '.join(map(str, cores))}", file=sys.stderr)
        return 1
    first = runs[KERNELS[0]]["digests"]
    differ = sorted(name for name in first
                    if any(run["digests"][name] != first[name] for run in runs.values()))
    print(f"kernel-dependent artifacts: {', '.join(differ) or 'none'}")
    broken = [name for name in GOLDEN_ARTIFACTS if name in differ]
    if broken:
        print(f"not written alike by {', '.join(KERNELS)}: {', '.join(broken)}", file=sys.stderr)
        return 1
    lines = ["# SHA-256 of the seed-7 contrast-run artifacts of tests/test_acceptance.py.",
             f"# Two-field rows: written alike by the OpenBLAS kernels {', '.join(KERNELS)};",
             "# three-field rows: written under the OpenBLAS core that the third field names.",
             "# Regenerate with: PYTHONPATH=src python tests/make_golden.py",
             f"numpy {np.__version__}",
             *(f"{first[name]}  {name}" for name in GOLDEN_ARTIFACTS),
             *(f"{run['digests'][name]}  {name}  {run['core']}"
               for run in runs.values() for name in KERNEL_ARTIFACTS)]
    GOLDEN_TABLE.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    print(f"wrote {GOLDEN_TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
