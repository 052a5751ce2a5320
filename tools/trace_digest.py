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
``match`` with the shared digest, or ``mismatch`` with both, whether the
two branch strings are equal, the largest relative deviation,
|a - b| / max(|a|, |b|), over the record fields of the two runs, and the
output files and captured stdout whose bytes differ.  It exits 1 on any
mismatch.

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
import json
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

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
    if args.against is not None:
        return _compare(args)
    for label, hexdigest, *_ in _runs(args.workload, args.seeds, args.src, args.workdir):
        print(f"{label}: {hexdigest}")
    return 0


def _runs(workload_name: str, seeds: str, src, workdir):
    # (label, digest, branch string, record fields in order, SHA-256 of the
    # captured stdout and of each output file by name) of each run.
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "perfbench"), str(ROOT / "tests")]
    if workload_name == "golden":
        yield from _golden_runs()
        return
    from probes import Recorder, patched
    from workloads import RECORD_FIELDS, WORKLOADS, digest

    if workload_name not in WORKLOADS:
        sys.exit(f"error: unknown workload {workload_name!r}; choices: {', '.join(WORKLOADS)}, golden")
    workload = WORKLOADS[workload_name]
    Path(workdir).mkdir(parents=True, exist_ok=True)
    for seed in (int(s) for s in seeds.split(",")):
        inputs = workload.build(seed, "full", Path(workdir))
        rec = Recorder(traced=False)
        with patched(rec, workload.hooks(rec)):
            out = workload.run_pass(inputs, rec)
        records = [r for trace in rec.traces for r in trace]
        outputs = {"stdout": hashlib.sha256("".join(out.stdout).encode()).hexdigest(),
                   **{p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.files}}
        yield (f"{workload_name} seed {seed}", digest(rec.traces, out),
               "".join(r.branch for r in records),
               [getattr(r, f) for r in records for f in RECORD_FIELDS], outputs)


def _print_runs(*args) -> None:
    # The runs of one program as JSON lines, for _compare.
    for run in _runs(*args):
        print(json.dumps(run))


# Imports this file as a module in a process of its own: two programs cannot
# share one import of astr2.
_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import trace_digest; "
          "trace_digest._print_runs(*sys.argv[2:])")


def _runs_of(args, src: Path) -> dict[str, list]:
    # label -> [digest, branch string, record fields, output digests] of one program.
    argv = [sys.executable, "-c", _CHILD, str(Path(__file__).resolve().parent),
            args.workload, args.seeds, str(src), str(args.workdir)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        sys.exit(done.returncode)  # the run has printed its error
    return {label: rest for label, *rest in map(json.loads, done.stdout.splitlines())}


def _deviation(a: list, b: list) -> float:
    # Largest |a - b| / max(|a|, |b|) over the paired values; 0 where they
    # are equal (NaN counts as equal to NaN), inf where a non-finite value
    # differs.
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    with np.errstate(all="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel[np.isnan(rel)] = np.inf
    rel[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
    return float(rel.max(initial=0.0))


def _compare(args) -> int:
    ours, theirs = _runs_of(args, args.src), _runs_of(args, args.against)
    mismatched = ours.keys() != theirs.keys()
    for label, (hexdigest, branch, fields, outputs) in ours.items():
        other, other_branch, other_fields, other_outputs = theirs.get(label, (None, "", [], {}))
        if other == hexdigest:
            print(f"{label}: match {hexdigest}")
            continue
        mismatched = True
        if len(fields) == len(other_fields):
            fields_note = f"fields within {_deviation(fields, other_fields):.2g} relative"
        else:
            fields_note = f"{len(fields)} against {len(other_fields)} field values"
        differ = sorted(k for k in outputs.keys() | other_outputs.keys()
                        if outputs.get(k) != other_outputs.get(k))
        print(f"{label}: mismatch {hexdigest} against {other}; "
              f"branches {'equal' if branch == other_branch else 'differ'}, {fields_note}; "
              f"bytes differ: {', '.join(differ) or 'none'}")
    return int(mismatched)


def _golden_runs():
    from test_golden import RECORD_FIELDS, TRACE_RUNS

    for name, make in TRACE_RUNS.items():
        trace = make()
        h = hashlib.sha256(trace["branch"].encode())
        for field in RECORD_FIELDS:
            h.update(struct.pack(f"<{len(trace[field])}d", *trace[field]))
        yield (f"golden {name}", h.hexdigest(), trace["branch"],
               [v for field in RECORD_FIELDS for v in trace[field]], {})


if __name__ == "__main__":
    sys.exit(main())
