"""``python -m repro.fuzz`` — the ground-truth oracle fuzz campaign.

Generates seeded systems with *known* stability verdicts
(:mod:`repro.oracle.generate`), fans each through every
``method x validator x kernel-backend`` combination plus the
metamorphic invariants (:mod:`repro.oracle.differential`), and fails
on any disagreement. Campaigns run through the parallel runner —
process pool, crash-safe journal, retries — exactly like the
experiment sweeps:

* ``--quick`` (default) sweeps ~240 systems of sizes 1–5 in about a
  minute; ``--long`` is the nightly configuration (sizes 1–21, longer
  ``eq-smt`` deadlines);
* ``--seed`` makes the whole campaign a pure function of its flags:
  two same-seed runs produce byte-identical journals (``--jobs 1``)
  and always the same sorted-journal digest (any job count);
* failures are shrunk to the smallest failing dimension
  (``--no-shrink`` to skip) and persisted under ``--artifacts`` as
  replayable specs + ``.npz`` dumps; ``--replay kind:n:seed`` re-runs
  one spec under the same profile;
* ``--cegis N`` appends the ``cegis`` family: ground-truth *switched*
  scenarios (:mod:`repro.oracle.cegis`) run through the full
  counterexample-guided loop — ``cegis-shared`` must validate (and no
  sampled cut may exclude the constructed witness), ``cegis-bistable``
  must be proved infeasible; failures shrink and replay like every
  other kind (e.g. ``--replay cegis-shared:2:7``);
* ``--plant`` installs a deliberately sign-flipped ``sylvester``
  validator first — the campaign must then *fail*; this is the
  self-test proving the harness detects planted bugs (forces
  ``--jobs 1`` so the sabotage reaches the executing process).

The CLI writes only the ``--journal`` file and, when a system fails,
the ``--artifacts`` directory.

Exit status: 0 for a clean campaign, 1 when any system failed, 2 for
usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import time

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential + metamorphic fuzzing against the "
        "ground-truth system generator.",
    )
    profile = parser.add_mutually_exclusive_group()
    profile.add_argument(
        "--quick", action="store_true",
        help="quick profile: sizes 1-5, short deadlines (default)",
    )
    profile.add_argument(
        "--long", action="store_true",
        help="long profile: sizes 1-21, nightly deadlines",
    )
    parser.add_argument(
        "--systems", type=int, default=240,
        help="number of systems to generate (default 240)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign master seed (default 0)",
    )
    parser.add_argument(
        "--cegis", type=int, default=0, metavar="N",
        help="append N cegis-family scenarios (ground-truth switched "
        "systems run through the full counterexample-guided loop; "
        "verdicts and the cut-admissibility invariant known by "
        "construction)",
    )
    parser.add_argument(
        "--max-n", type=int, default=None,
        help="cap the profile's size range (trims the plan, not the grid)",
    )
    parser.add_argument(
        "--icp-backends", default=None, metavar="ENGINES",
        help="comma list of ICP engines to cross-check per system "
        "(default 'scalar,batched'; a single engine disables the "
        "icp-engine differential)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: all cores; 1 = in-process)",
    )
    parser.add_argument(
        "--task-deadline", type=float, default=120.0,
        help="per-system wall-clock deadline in seconds (pooled mode)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="retry transiently failed tasks this many times (default 1)",
    )
    parser.add_argument(
        "--journal", type=pathlib.Path, default=None,
        help="append-only JSONL journal path (enables resume + digest)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay an existing journal instead of truncating it",
    )
    parser.add_argument(
        "--artifacts", type=pathlib.Path, default=pathlib.Path("fuzz-artifacts"),
        help="directory for failure artifacts (default ./fuzz-artifacts)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip the minimal-dimension shrinking pass on failures",
    )
    parser.add_argument(
        "--plant", action="store_true",
        help="plant a sign-flipped sylvester validator (self-test: the "
        "campaign must fail; forces --jobs 1)",
    )
    parser.add_argument(
        "--replay", metavar="KIND:N:SEED", default=None,
        help="re-run one spec (e.g. 'stable:3:12345') and exit",
    )
    return parser


def _profile(args):
    from dataclasses import replace

    from ..oracle import LONG_PROFILE, QUICK_PROFILE
    from ..smt import ICP_BACKENDS

    profile = LONG_PROFILE if args.long else QUICK_PROFILE
    if args.max_n is not None:
        sizes = tuple(n for n in profile.sizes if n <= args.max_n)
        if not sizes:
            raise SystemExit(f"--max-n {args.max_n} empties the size range")
        profile = replace(profile, sizes=sizes)
    if getattr(args, "icp_backends", None):
        engines = tuple(
            name.strip() for name in args.icp_backends.split(",") if name.strip()
        )
        unknown = [name for name in engines if name not in ICP_BACKENDS]
        if unknown:
            raise SystemExit(
                f"unknown ICP engine(s) {unknown}; known: {ICP_BACKENDS}"
            )
        profile = replace(profile, icp_backends=engines)
    return profile


def _plant_sign_flip():
    """Shadow ``sylvester`` with a verdict-negating impostor."""
    from ..validate import VALIDATORS, temporary_validator

    genuine = VALIDATORS["sylvester"]

    def sabotaged(matrix, **options):
        verdict, _witness, extra = genuine(matrix, **options)
        return (not verdict), None, extra

    return temporary_validator("sylvester", sabotaged)


def _parse_spec(text: str) -> dict:
    try:
        kind, n, seed = text.split(":")
        return {"kind": kind, "n": int(n), "seed": int(seed)}
    except ValueError:
        raise SystemExit(f"bad --replay spec {text!r}; expected KIND:N:SEED")


def _replay(args) -> int:
    from ..oracle import replay_spec

    record = replay_spec(_parse_spec(args.replay), _profile(args))
    print(json.dumps({
        "spec": record.spec(),
        "failed": record.failed,
        "checks": record.checks,
        "synth": record.synth,
        "disagreements": record.disagreements,
        "harness_errors": record.harness_errors,
    }, indent=2, default=str))
    return 1 if record.failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.replay is not None:
        return _replay(args)

    from ..oracle import shrink_failure, system_specs, write_failure
    from ..runner import (
        CampaignStats,
        FuzzTask,
        Journal,
        RetryPolicy,
        journal_digest,
        resolve_jobs,
        run_tasks,
    )

    profile = _profile(args)
    if args.plant and args.jobs != 1:
        print("--plant forces --jobs 1 (the sabotage lives in-process)")
        args.jobs = 1
    jobs = resolve_jobs(args.jobs)

    specs = system_specs(args.systems, args.seed, profile.sizes)
    if args.cegis:
        from ..oracle import cegis_specs

        specs = specs + cegis_specs(args.cegis, args.seed)
    profile_spec = profile.spec()
    tasks = [FuzzTask(profile=profile_spec, **spec) for spec in specs]

    journal = (
        Journal(args.journal, resume=args.resume)
        if args.journal is not None else None
    )
    stats = CampaignStats()
    start = time.perf_counter()
    # The sabotage must stay armed through the shrinking pass too, or
    # the re-checks at smaller n all pass and nothing ever reduces.
    with contextlib.ExitStack() as stack:
        if args.plant:
            stack.enter_context(_plant_sign_flip())
        if journal is not None:
            stack.enter_context(journal)
        records = run_tasks(
            tasks, jobs=jobs, task_deadline=args.task_deadline,
            journal=journal,
            retry=RetryPolicy(retries=args.retries), stats=stats,
        )
        wall = time.perf_counter() - start

        records = [r for r in records if r is not None]
        failures = [r for r in records if r.failed]

        for record in failures:
            minimal = None
            if not args.no_shrink and record.provenance != "aborted":
                result = shrink_failure(record, profile)
                minimal = result.minimal
                print(
                    f"FAIL {record.spec()} -> minimal {result.minimal} "
                    f"({len(result.record.disagreements)} disagreement(s), "
                    f"{len(result.record.harness_errors)} harness error(s))"
                )
            else:
                print(f"FAIL {record.spec()}")
            write_failure(args.artifacts, record, minimal=minimal)

    total_checks = sum(r.checks for r in records)
    synth_counts: dict[str, int] = {}
    for record in records:
        for status in record.synth.values():
            synth_counts[status] = synth_counts.get(status, 0) + 1

    rate = len(records) / wall if wall > 0 else float("inf")
    print(
        f"fuzz[{profile.name}]: {len(records)} systems, "
        f"{total_checks} checks, {len(failures)} failing, "
        f"{sum(len(r.disagreements) for r in records)} disagreement(s), "
        f"{sum(len(r.harness_errors) for r in records)} harness error(s) "
        f"in {wall:.1f}s ({rate:.1f} systems/s, jobs={jobs})"
    )
    if synth_counts:
        print("  synth: " + ", ".join(
            f"{status}={count}" for status, count in sorted(synth_counts.items())
        ))
    print(f"  {stats.summary()}")
    if journal is not None:
        print(f"  journal digest: {journal_digest(args.journal)}")
    if failures:
        print(f"  artifacts: {args.artifacts}/failures.jsonl")
    return 1 if failures else 0
