#!/usr/bin/env python3
"""Digest of every distinct benchmark request's output, for byte-identity
checks between two trees.

    python3 tools/output_digest.py [--workload NAME ...]

Runs each distinct request of the benchmark workloads (``qkbench/
workloads.py``: poly-symbolic, apply-bc3, numeric-route) once, in this
process, through ``qkoorn.cli.main`` of the tree the script sits in.  Per
workload it prints the number of distinct requests, the bytes they wrote,
and one sha256 over each request's key, exit code and ``--out`` file, in
round order.  The temporary paths of the input and output files are left
out of the hash, so that two trees giving the same answers give the same
digest.  Nothing under ``qkbench/`` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "qkbench")]

import workloads as wl  # noqa: E402
from qkoorn.cli import main  # noqa: E402

WORKLOADS = ("poly-symbolic", "apply-bc3", "numeric-route")


def requests(workload, workdir):
    """The distinct requests of one round, in round order."""
    if workload == "poly-symbolic":
        reqs = wl.poly_round()
    elif workload == "apply-bc3":
        reqs, files = wl.apply_round(workdir)
        for path, body in files.items():
            with open(path, "w") as fh:
                fh.write(body)
    else:
        reqs = wl.numeric_round()
    seen = set()
    return [r for r in reqs if not (r.key in seen or seen.add(r.key))]


def digest(workload):
    """(distinct requests, output bytes, sha256 hex) of one workload."""
    h = hashlib.sha256()
    size = 0
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "out.json")
        reqs = requests(workload, workdir)
        for req in reqs:
            try:
                code = main(req.argv + ["--out", out])
            except SystemExit as exc:
                code = exc.code
            body = b""
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    body = fh.read()
                os.remove(out)
            size += len(body)
            h.update(b"%r %r %d\n" % (req.key, code, len(body)))
            h.update(body)
    return len(reqs), size, h.hexdigest()


def cli(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)
    for name in args.workload or WORKLOADS:
        count, size, hexdigest = digest(name)
        print("%-14s %3d requests %8d bytes sha256 %s"
              % (name, count, size, hexdigest))
    return 0


if __name__ == "__main__":
    sys.exit(cli())
