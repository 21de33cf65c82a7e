"""Golden SHA-256 values of a fixed artifact set, so that a change meant to
keep every output byte is checked with one command.

    python3 tools/golden.py --write   # run the set, (re)write GOLDEN.json
    python3 tools/golden.py --check   # run the set, compare with GOLDEN.json

The set, all on the ``src/`` tree next to this script:

* the staged CLI at root seeds 0 and 1 with ``train.steps: 300``:
  ``train-dense``, ``capture``, ``upcycle`` for cluster and sparse,
  ``train-moe --method cluster --eesd``, ``train-moe --method sparse
  --eesd``, ``train-moe --method sparse``, and ``analyze`` of the trained
  cluster model, once with 1 and once with 2 usable CPUs;
* ``compare --seeds 2`` with ``train.steps: 300``, with and without
  ``--eesd``;
* ``gradcheck`` at root seeds 0-11 (which ``train.steps`` does not affect).

Every command runs in its own Python process, pinned by
``os.sched_setaffinity`` to the first 1 or 2 CPUs this process may use
(2 unless stated), and each file a command writes or rewrites is hashed
right after it. Bits depend on numpy and its BLAS, so GOLDEN.json records
their versions and the BLAS core. Exit status of ``--check``: 0 when every
hash matches; 1 when some differ, are missing or are new, each named; 3,
without running anything, when this host's provenance differs from the
recorded one. A change that means to alter outputs reruns ``--write`` and
says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "GOLDEN.json"
PROVENANCE_CHANGED = 3

STAGED = (
    ("train-dense",),
    ("capture",),
    ("upcycle", "--method", "cluster"),
    ("upcycle", "--method", "sparse"),
    ("train-moe", "--method", "cluster", "--eesd"),
    ("train-moe", "--method", "sparse", "--eesd"),
    ("train-moe", "--method", "sparse"),
    ("analyze", "--checkpoint", "{out}/moe_cluster_trained.ckpt"),
)

# Runs the CLI in a child pinned to the CPUs given as its first argument.
CHILD = (
    "import os, sys; os.sched_setaffinity(0, map(int, sys.argv[1].split(',')));"
    "from clusterup.cli import main; sys.exit(main(sys.argv[2:]))"
)


def provenance() -> dict:
    """numpy's version and its BLAS's name, version and run-time core."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = None
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            core = getter().decode()
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_core": core}


def _hashes(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir()) if path.is_file()}


def _run(label: str, seed: int, cpus: list[int], commands, work: Path) -> dict[str, str]:
    """Run ``commands`` in order in one output directory, under the default
    config with ``train.steps: 300``; the hash of each file a command wrote,
    keyed ``label/command/file``."""
    out = work / label
    out.mkdir()
    config = work / f"{label}.yaml"
    config.write_text(f"data: {{seed: {seed}}}\ntrain: {{steps: 300}}\noutput_dir: {out}\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    golden, before = {}, {}
    for command in commands:
        argv = [arg.format(out=out) for arg in command]
        subprocess.run([sys.executable, "-c", CHILD, ",".join(map(str, cpus)),
                        "--config", str(config), *argv],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        after = _hashes(out)
        name = " ".join(command).replace("{out}/", "")
        golden.update({f"{label}/{name}/{file}": digest for file, digest in after.items()
                       if before.get(file) != digest})
        before = after
    return golden


def artifact_hashes() -> dict[str, str]:
    usable = sorted(os.sched_getaffinity(0))
    if len(usable) < 2:
        raise SystemExit("golden.py needs 2 usable CPUs")
    one, two = usable[:1], usable[:2]
    hashes = {}
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        work = Path(tmp)
        for seed in (0, 1):
            for cpus in (one, two):
                hashes.update(_run(f"staged-seed{seed}-cpus{len(cpus)}", seed, cpus, STAGED, work))
        hashes.update(_run("compare", 0, two, [("compare", "--seeds", "2")], work))
        hashes.update(_run("compare-eesd", 0, two, [("compare", "--seeds", "2", "--eesd")], work))
        for seed in range(12):
            hashes.update(_run(f"gradcheck-seed{seed}", seed, two, [("gradcheck",)], work))
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="write GOLDEN.json")
    mode.add_argument("--check", action="store_true", help="compare with GOLDEN.json")
    args = parser.parse_args(argv)

    here = provenance()
    if args.check:
        recorded = json.loads(GOLDEN.read_text())
        if recorded["provenance"] != here:
            print(f"provenance differs: GOLDEN.json has {recorded['provenance']}, "
                  f"this host has {here}; no comparison made")
            return PROVENANCE_CHANGED
    start = time.perf_counter()
    hashes = artifact_hashes()
    seconds = time.perf_counter() - start
    if args.write:
        GOLDEN.write_text(json.dumps({"provenance": here, "artifacts": hashes},
                                     indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(hashes)} artifacts to {GOLDEN} in {seconds:.1f} s")
        return 0
    expected = recorded["artifacts"]
    bad = sorted(name for name in expected.keys() | hashes.keys()
                 if expected.get(name) != hashes.get(name))
    for name in bad:
        state = ("missing" if name not in hashes else "new" if name not in expected
                 else "differs")
        print(f"{state}: {name}")
    names = expected.keys() | hashes.keys()
    print(f"{len(names) - len(bad)} of {len(names)} artifacts match GOLDEN.json "
          f"({seconds:.1f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
