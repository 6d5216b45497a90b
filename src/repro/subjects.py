"""The subject driver shared by ``python -m repro race`` and ``profile``.

Both CLIs run one worker kind over the same subjects — benchmark names
first, then drawn fuzz cases — once per engine, and require the engines
to agree on a canonical key.  This module is everything they share:

* :func:`add_subject_args` — the common flags;
* :func:`resolve_subjects` — flags to a validated :class:`Subjects`;
  bad input prints one line and the CLI exits 2 (an uncreatable
  ``--out`` included, checked before any subject runs);
* :func:`run_engines` — per engine, the subjects planned into slice
  jobs, run through :func:`repro.runner.run_jobs` (``--jobs 0`` runs
  the same jobs inline), merged in subject order and folded, then the
  engines compared.

The worker kind is the only per-subject loop: the serial path is the
sharded one run in-process, so the two cannot drift apart.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine import ENGINES, engine
from repro.fuzz.generator import CaseGenerator
from repro.fuzz.spec import KINDS, CaseSpec
from repro.runner.shard import merge_slices, plan_slice_jobs
from repro.workloads.suite import CUDA_BENCHMARKS, RODINIA_FIG19

#: Per-slice wall-clock cap (a wedged subject is killed and retried).
SUBJECT_TIMEOUT = 600.0


def add_subject_args(parser: argparse.ArgumentParser, *, verb: str,
                     out_help: str) -> None:
    """The flags every subject CLI takes; ``verb`` words the help."""
    group = parser.add_argument_group("subjects and execution")
    group.add_argument("--workloads", default="fig19",
                       help="comma-separated benchmark names, 'fig19' "
                            "for the 9 artifact workloads (default), or "
                            "'none'")
    group.add_argument("--fuzz-cases", type=int, default=0,
                       help=f"additionally {verb} N drawn fuzz cases "
                            "(default 0)")
    group.add_argument("--kinds", default="safe",
                       help="fuzz case kinds to draw (default: safe)")
    group.add_argument("--seed", type=int, default=1,
                       help="fuzz draw seed / workload device seed "
                            "(default 1)")
    group.add_argument("--engines", default="",
                       help=f"comma-separated engines to {verb} under "
                            "and compare (default: the process default)")
    group.add_argument("--jobs", type=int, default=0,
                       help="worker processes for the parallel runner "
                            "(0 = serial in-process)")
    group.add_argument("--shards", type=int, default=None,
                       help="shard count (default: jobs * 4, capped at "
                            "the subject count)")
    group.add_argument("--out", default=None, help=out_help)


@dataclass
class Subjects:
    """What one subject CLI run covers."""

    workloads: List[str]
    specs: List[CaseSpec]
    engines: List[str]

    def items(self) -> List[dict]:
        """The job-payload form, workloads first, then fuzz cases."""
        return ([{"workload": name} for name in self.workloads]
                + [{"case": spec.to_dict()} for spec in self.specs])


def _names(text: str) -> List[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def resolve_subjects(args: argparse.Namespace, *,
                     verb: str) -> Optional[Subjects]:
    """Validate the common flags; ``None`` (after one stderr line) when
    the input is bad and the CLI should exit 2."""
    def bad(message: str) -> None:
        print(message, file=sys.stderr)

    if args.workloads == "fig19":
        workloads = list(RODINIA_FIG19)
    elif args.workloads in ("none", ""):
        workloads = []
    else:
        workloads = _names(args.workloads)
    unknown = [w for w in workloads if w not in CUDA_BENCHMARKS]
    if unknown:
        return bad(f"unknown workloads: {unknown} "
                   "(see python -m repro list)")
    kinds = _names(args.kinds)
    unknown = [k for k in kinds if k not in KINDS]
    if unknown or (args.fuzz_cases > 0 and not kinds):
        return bad(f"unknown kinds: {unknown or args.kinds!r} "
                   f"(have {list(KINDS)})")
    gen = CaseGenerator(args.seed)
    specs = [gen.draw_kind(kinds[i % len(kinds)], i)
             for i in range(args.fuzz_cases)]
    if not workloads and not specs:
        return bad(f"nothing to {verb} (no workloads, no fuzz cases)")
    engines = _names(args.engines)
    unknown = [e for e in engines if e not in ENGINES]
    if unknown:
        return bad(f"unknown engines: {unknown} (have {list(ENGINES)})")
    if args.jobs < 0 or (args.shards or 0) < 0:
        return bad(f"--jobs and --shards must not be negative "
                   f"(got {args.jobs}, {args.shards})")
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            return bad(f"cannot create --out directory {args.out!r}: "
                       f"{exc}")
    return Subjects(workloads, specs, engines)


def run_engines(args: argparse.Namespace, subjects: Subjects, *,
                kind: str, title: str, verb: str,
                fold: Callable[[List[dict]], object],
                render: Callable[[object], str],
                key: Callable[[object], list], agreed: str,
                **fields: object) -> Optional[Tuple[Dict[str, object],
                                                    bool]]:
    """Run ``kind`` over the subjects under each engine.

    Per engine: plan the slice jobs (payload ``fields`` shared by every
    slice), run them, merge the payloads in subject order, ``fold``
    them into one result and print ``render(result)``.  Returns
    ``({engine: result}, engines_agree)`` — engines agree when ``key``
    (a list of canonical items) is equal for all — or ``None`` when a
    slice failed terminally (the CLI exits 2).
    """
    from repro import runner       # run_jobs looked up at call time
    prefix = kind.split(".", 1)[0]
    per_engine: Dict[str, object] = {}
    for name in subjects.engines or [""]:
        with engine(name) if name else nullcontext():
            plan = plan_slice_jobs(kind, subjects.items(), seed=args.seed,
                                   jobs=args.jobs, shards=args.shards,
                                   timeout=SUBJECT_TIMEOUT, **fields)
            report = runner.run_jobs(
                plan, jobs=args.jobs, run_name=f"{prefix}-seed{args.seed}",
                out_dir=args.out,
                reporter=runner.HeartbeatReporter(len(plan), label=prefix),
                meta={"workloads": subjects.workloads,
                      "cases": len(subjects.specs), "seed": args.seed})
        try:
            payloads = merge_slices(
                [report.results[s.job_id] for s in plan], title)
        except RuntimeError as exc:
            print(f"{verb} incomplete: {exc}", file=sys.stderr)
            return None
        result = per_engine[name or "default"] = fold(payloads)
        print(f"{title}{f' [{name}]' if name else ''}: "
              f"{len(subjects.workloads)} workload(s), "
              f"{len(subjects.specs)} fuzz case(s)")
        print(render(result))

    if len(per_engine) < 2:
        return per_engine, True
    keys = {eng: key(result) for eng, result in per_engine.items()}
    first, baseline = next(iter(keys.items()))
    diverged = [eng for eng, k in keys.items() if k != baseline]
    for eng in diverged:
        diffs = [f"{a} != {b}" for a, b in zip(baseline, keys[eng])
                 if a != b]
        print(f"ENGINE DIVERGENCE {first} vs {eng}: "
              + "; ".join(diffs[:5]), file=sys.stderr)
    if not diverged:
        print(f"{agreed} identical across engines: {', '.join(keys)}")
    return per_engine, not diverged
