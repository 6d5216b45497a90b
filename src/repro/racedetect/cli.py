"""``python -m repro race`` — scan workloads and fuzz cases for races.

Usage::

    python -m repro race                          # the 9 artifact workloads
    python -m repro race --fuzz-cases 200 --seed 1
    python -m repro race --workloads bfs,lud --engines slow,fast
    python -m repro race --fuzz-cases 50 --jobs 4 --out artifacts/

Every subject runs with the shadow-memory detector attached and through
the static may-race pass; fuzz cases additionally check the generator's
constructive race-free promise.  Exit status is non-zero when any
artifact workload dynamically races (they are all race-free), when a
``race-free``-by-construction fuzz case races, or when the static and
dynamic verdicts violate their contract (see
:mod:`repro.racedetect.scan`).

``--engines slow,fast`` repeats the whole scan per engine and asserts
the verdicts are bit-identical — the detector observes the committed
access stream, which the engine contract fixes.  ``--jobs N`` shards
subjects across worker processes; ``--jobs 0`` (the default) runs the
same shard jobs inline, so the serial and sharded scans are identical.
With ``--out`` the full scan lands in ``race_scan.json`` and each
failing subject's race records in a ``race_divergence_<subject>.json``
artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.racedetect.runner import SCAN_KIND
from repro.subjects import add_subject_args, resolve_subjects, run_engines


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro race",
        description="Intra-kernel data-race scan: shadow-memory detector "
                    "+ static may-race cross-check.")
    add_subject_args(parser, verb="scan",
                     out_help="directory for race_scan.json and "
                              "divergence artifacts")
    parser.add_argument("--full-report", action="store_true",
                        help="include per-pair static findings in the "
                             "JSON output")
    return parser.parse_args(argv)


def _scan(result: dict) -> dict:
    return result.get("scan") or result["case"]["scan"]


def _summary_key(result: dict) -> tuple:
    """What must be engine-invariant about one subject's scan."""
    scan = _scan(result)
    return (result["subject"], scan["dynamic_verdict"],
            scan["static_verdict"], scan["races"])


def _render(results: List[dict]) -> str:
    lines = [f"  {'subject':<28} {'dynamic':>10} {'static':>10} "
             f"{'races':>6}  ok"]
    for result in results:
        scan = _scan(result)
        lines.append(
            f"  {result['subject']:<28} {scan['dynamic_verdict']:>10} "
            f"{scan['static_verdict']:>10} {scan['races']:>6}  "
            f"{'yes' if result['ok'] else 'NO'}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    subjects = resolve_subjects(args, verb="scan")
    if subjects is None:
        return 2
    outcome = run_engines(
        args, subjects, kind=SCAN_KIND, title="race scan", verb="scan",
        fold=lambda payloads: [r for p in payloads for r in p["results"]],
        render=_render, key=lambda rs: [_summary_key(r) for r in rs],
        agreed="verdicts", full_report=args.full_report)
    if outcome is None:
        return 2
    per_engine, engines_agree = outcome
    results = next(iter(per_engine.values()))
    failures = [r for r in results if not r["ok"]]

    if args.out:
        with open(os.path.join(args.out, "race_scan.json"), "w") as fh:
            json.dump({"seed": args.seed, "engines": list(per_engine),
                       "results": results,
                       "ok": not failures and engines_agree},
                      fh, indent=2, sort_keys=True)
        for result in failures:
            name = result["subject"].replace(":", "_").replace("/", "_")
            path = os.path.join(args.out, f"race_divergence_{name}.json")
            with open(path, "w") as fh:
                json.dump(result, fh, indent=2, sort_keys=True)
        print(f"\nartifacts written to {args.out}/")

    if failures or not engines_agree:
        print(f"\n{len(failures)} of {len(results)} subject(s) violated "
              f"the race contract"
              + ("" if engines_agree else "; engine divergence detected"),
              file=sys.stderr)
        return 1
    races = sum(_scan(r)["races"] for r in results)
    print(f"\nall {len(results)} subject(s) clean ({races} races, "
          f"0 contract violations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
