"""``python -m repro profile`` — hierarchical performance profiles.

Usage::

    python -m repro profile                          # 9 artifact workloads
    python -m repro profile --workloads bfs,gaussian --top 10
    python -m repro profile --fuzz-cases 50 --seed 1 --jobs 4
    python -m repro profile --engines slow,fast --out profile-artifacts

Every subject runs on a warm device with the profiler attached (which
routes the fast engine through the reference pipeline — attribution
needs the per-stage breakdown) and under the paper's default GPUShield
configuration, so the ``check`` stage carries real RCache/RBT activity.
The output is a text top-N report plus, with ``--out``, a flame-style
``profile.json`` and the same text in ``profile.txt``.

Attribution is self-checking: every subject's profile must reconcile
*exactly* with the GPU's stats registry, and ``--engines slow,fast``
additionally asserts the canonical (cycle) side of the profile is
bit-identical under both engines.  Exit status is non-zero on any
reconciliation failure or engine divergence.  ``--jobs N`` shards
subjects across worker processes; ``--jobs 0`` (the default) runs the
same shard jobs inline, so the serial and sharded profiles are
identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.profiler.report import flame, render
from repro.profiler.runner import PROFILE_KIND, fold_profiles
from repro.subjects import add_subject_args, resolve_subjects, run_engines


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Hierarchical cycle + wall-time attribution across "
                    "engine -> core -> pipeline stage -> shield "
                    "sub-step.")
    add_subject_args(parser, verb="profile",
                     out_help="directory for profile.json (flame tree + "
                              "counters) and profile.txt")
    parser.add_argument("--top", type=int, default=15,
                        help="frames in the top-N report (default 15)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    subjects = resolve_subjects(args, verb="profile")
    if subjects is None:
        return 2
    outcome = run_engines(
        args, subjects, kind=PROFILE_KIND, title="profile", verb="profile",
        fold=fold_profiles,
        render=lambda merged: render(*merged, top_n=args.top),
        key=lambda merged: [merged[0].counters_digest()],
        agreed="canonical profiles")
    if outcome is None:
        return 2
    per_engine, engines_agree = outcome
    snapshot, rows = next(iter(per_engine.values()))
    failures = [r for r in rows if not r["reconciled"]]

    if args.out:
        payload = {
            "schema": 1,
            "seed": args.seed,
            "engines": list(per_engine),
            "flame": flame(snapshot),
            "profile": snapshot.to_dict(),
            "subjects": rows,
            "ok": not failures and engines_agree,
        }
        with open(os.path.join(args.out, "profile.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        with open(os.path.join(args.out, "profile.txt"), "w") as fh:
            fh.write(render(snapshot, rows, top_n=args.top) + "\n")
        print(f"\nartifacts written to {args.out}/")

    if failures or not engines_agree:
        print(f"\n{len(failures)} of {len(rows)} subject(s) failed to "
              f"reconcile with the stats registry"
              + ("" if engines_agree else "; engine divergence detected"),
              file=sys.stderr)
        return 1
    print(f"\nall {len(rows)} subject(s) reconciled exactly "
          f"({snapshot.latency_cycles()} cycles attributed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
