"""Digest of the benchmark workloads' outputs, one line per seed.

    python3 tools/trace_digest.py --workload dense_saddle --seeds 1,2,3
    python3 tools/trace_digest.py --workload worst_case --seeds 1,2,3 --src ../old/src
    python3 tools/trace_digest.py --workload golden --src ../old/src
    python3 tools/trace_digest.py --workload dense_saddle --seeds 1,2,3 --against ../old/src

Runs one untimed pass of a ``perfbench`` workload per seed and prints the
``perfbench.workloads.digest`` of it: SHA-256 over every trace field bit
for bit, the final iterate, the command outputs and the files written.  Two
checkouts whose digests agree produce bit-identical traces, so a refactor
that must not change the arithmetic is checked by running this against the
program of its parent (``--src``).  The workload definitions are imported
from ``perfbench/`` as they are; nothing there is changed.  BLAS is pinned
to one thread, as in the benchmark.  Command outputs name their files, so
every run writes into the same fixed directory (``--workdir``).

``--against SRC`` runs the same seeds on the program under ``--src`` and on
the one under SRC, each in its own process, and prints one line per seed:
``match`` with the shared digest, or ``mismatch`` with both.  It exits 1
on any mismatch.

``--workload golden`` instead prints one SHA-256 per ``TRACE_RUNS`` entry of
``tests/test_golden.py``: the branch string and every record field bit for
bit.  Those runs are fixed, so ``--seeds`` and ``--workdir`` do not apply.
The golden test compares to rtol 1e-12, which lets bit moves through;
unlike the perfbench workloads, these runs combine Krylov bases into Q steps.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import hashlib
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory to import astr2 from (default: this checkout's src)")
    p.add_argument("--workdir", type=Path, default=Path(tempfile.gettempdir()) / "astr2-trace-digest",
                   help="fixed directory for the files the commands write")
    p.add_argument("--against", type=Path,
                   help="another program's src: compare the digests of both, seed by seed")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.against is not None:
        return _compare(args)

    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench"), str(ROOT / "tests")]
    if args.workload == "golden":
        for name, hexdigest in _golden_digests():
            print(f"golden {name}: {hexdigest}")
        return 0
    from probes import Recorder, patched
    from workloads import WORKLOADS, digest

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choices: {', '.join(WORKLOADS)}, golden")
    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        inputs = workload.build(seed, "full", args.workdir)
        rec = Recorder(traced=False)
        with patched(rec, workload.hooks(rec)):
            out = workload.run_pass(inputs, rec)
        print(f"{args.workload} seed {seed}: {digest(rec.traces, out)}")
    return 0


def _digests(args, src: Path) -> dict[str, str]:
    # label -> digest of one program, from a process of its own: two
    # programs cannot share one import of astr2.
    argv = [sys.executable, __file__, "--workload", args.workload, "--seeds", args.seeds,
            "--src", str(src), "--workdir", str(args.workdir)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        sys.exit(done.returncode)  # the run has printed its error
    return dict(line.rsplit(": ", 1) for line in done.stdout.splitlines())


def _compare(args) -> int:
    ours, theirs = _digests(args, args.src), _digests(args, args.against)
    for label, hexdigest in ours.items():
        other = theirs.get(label)
        print(f"{label}: match {hexdigest}" if other == hexdigest
              else f"{label}: mismatch {hexdigest} against {other}")
    return int(ours != theirs)


def _golden_digests():
    from test_golden import RECORD_FIELDS, TRACE_RUNS

    for name, make in TRACE_RUNS.items():
        trace = make()
        h = hashlib.sha256(trace["branch"].encode())
        for field in RECORD_FIELDS:
            h.update(struct.pack(f"<{len(trace[field])}d", *trace[field]))
        yield name, h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
