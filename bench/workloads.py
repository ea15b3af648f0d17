"""The four workloads of the benchmark of record.

A workload builds its fixed work from the seed in its constructor (the
program only ever receives the generated inputs), makes lazy imports and
per-process caches ready in ``warm_up`` so that every timed round does
the same work, and times one round of that work per ``run_round`` call.
The seed only reorders the work (or, for certify-stream, reorders a
request stream over a fixed population; table1-ladder ignores it), so
every seed costs the same
and answers the same verdicts: one golden file per workload holds for
all seeds.

Round sizes are scaled so that several rounds fit one benchmark run;
the README records the sizing.
"""

from __future__ import annotations

import pathlib
import random
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.engine import MODES, benchmark_suite
from repro.experiments.cegis import run_cegis
from repro.experiments.records import MethodKey
from repro.experiments.table1 import rounding_sweep, run_table1
from repro.oracle import QUICK_PROFILE, system_specs
from repro import runner
from repro.runner import (
    CampaignStats,
    FuzzTask,
    Journal,
    TimingCollector,
    journal_digest,
)
from repro.service import CampaignEngine, CertificateStore, CertificationService


@dataclass
class Round:
    """One timed round: what it cost, what it answered."""

    wall_s: float
    attempted: int  # tasks or requests
    failed: int  # errored, timed out or aborted
    #: submission to verdict as the caller sees it: per request, or per
    #: task the time until the campaign call that returns it comes back
    latencies_ms: list
    verdicts: dict  # compared against the golden file
    #: counters the program keeps itself (see trace.layer_metrics)
    program: dict = field(default_factory=dict)


def _runner_program(stats: CampaignStats, timing: TimingCollector) -> dict:
    return {
        "stats": stats.counters(),
        "task_wall_s": [t.wall_s for t in timing.timings],
    }


class Table1Ladder:
    """Table I synthesis and validation on the whole size ladder, pooled.

    Every case of sizes 3/5/10/15/18 with integer variants 3i/5i/10i,
    both modes, one method row per synthesis family such that each SDP
    backend appears, then the rounding sweep at 6 and 4 significant
    figures; ``CampaignEngine(jobs=2)`` with a journal. The seed has no
    effect: ``run_table1`` sorts the sizes, so every run submits the same
    tasks in the same order. Reordering them would change which
    BLAS-heavy tasks overlap in the two workers and, with it, the wall.
    """

    name = "table1-ladder"
    jobs = 2
    sizes = (3, 5, 10, 15, 18)
    integer_sizes = (3, 5, 10)
    method_rows = (
        ("eq-num", None), ("modal", None), ("lmi", "shift"),
        ("lmi-alpha", "proj"), ("lmi-alpha+", "ipm"),
    )
    sigfig_levels = (10, 6, 4)

    def __init__(self, seed: int, workdir):
        self.workdir = workdir
        self.methods = [MethodKey(*row) for row in self.method_rows]

    def warm_up(self) -> None:
        run_table1(sizes=(3,), integer_sizes=(), methods=self.methods)

    def run_round(self, tracer=None) -> Round:
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp, Journal(
            pathlib.Path(tmp) / "journal.jsonl"
        ) as journal:
            timing = TimingCollector()
            engine = CampaignEngine(
                jobs=self.jobs, journal=journal, timing=timing
            )
            start = time.perf_counter()
            records, candidates = run_table1(
                sizes=self.sizes, integer_sizes=self.integer_sizes,
                methods=self.methods, keep_candidates=True, engine=engine,
            )
            grid_wall = time.perf_counter() - start
            grid_tasks = engine.stats.total
            sweep = rounding_sweep(
                candidates, sigfig_levels=self.sigfig_levels,
                base_records=records, engine=engine,
            )
            wall = time.perf_counter() - start
        verdicts = {}
        for record in records + sweep:
            key = (f"{record.case}/{record.mode}/{record.method}/"
                   f"{record.backend or '-'}/{record.sigfigs}")
            verdicts[key] = (
                record.valid if record.synth_status == "ok"
                else record.synth_status
            )
        stats = engine.stats
        return Round(
            wall_s=wall, attempted=stats.total,
            failed=stats.errors + stats.timeouts,
            latencies_ms=[grid_wall * 1e3] * grid_tasks
            + [wall * 1e3] * (stats.total - grid_tasks),
            verdicts=verdicts, program=_runner_program(stats, timing),
        )


class CegisLoop:
    """CEGIS cells on the 3- and 5-state models, in-process.

    The default grid (nominal/full, attracting/full, attracting/sampled)
    on size3, the sampled-synthesis refinement on its integer variant
    size3i, and both full-synthesis cells on size5, so the loop's cost
    shows at two state dimensions. Nearly all time is in the piecewise
    loop: LMI compile, ellipsoid oracle, barrier polish, exact snap and
    sphere-ICP acceptance. The seed permutes the cell order.
    """

    name = "cegis-loop"
    jobs = 1
    cells = (
        ("size3", "nominal", "full"), ("size3", "attracting", "full"),
        ("size3", "attracting", "sampled"),
        ("size3i", "attracting", "sampled"),
        ("size5", "nominal", "full"), ("size5", "attracting", "full"),
    )

    def __init__(self, seed: int, workdir, cases=None):
        cells = [c for c in self.cells if cases is None or c[0] in cases]
        self.order = random.Random(seed).sample(cells, len(cells))

    def warm_up(self) -> None:
        run_cegis(case_names=("size3",), grid=(("attracting", "full"),))

    def run_round(self, tracer=None) -> Round:
        timing = TimingCollector()
        engine = CampaignEngine(jobs=self.jobs, timing=timing)
        start = time.perf_counter()
        records = [
            record
            for case, regime, synthesis in self.order
            for record in run_cegis(case_names=(case,),
                                    grid=((regime, synthesis),),
                                    engine=engine)
        ]
        wall = time.perf_counter() - start
        stats = engine.stats
        return Round(
            wall_s=wall, attempted=stats.total,
            failed=stats.errors + stats.timeouts
            + sum(r.status == "aborted" for r in records),
            latencies_ms=[wall * 1e3] * stats.total,
            verdicts={
                f"{r.case}/{r.regime}/{r.synthesis}": [r.status, r.digest]
                for r in records
            },
            program=_runner_program(stats, timing),
        )


class FuzzSmall:
    """The oracle fuzzer's quick profile on a fixed plan of small systems.

    ``system_specs(80, 0, QUICK_PROFILE.sizes)`` run as ``FuzzTask`` through
    ``run_tasks(jobs=2)`` with a journal: many short tasks, so dispatch,
    pickling, journal fsync and fingerprinting are a visible share. The
    plan seed is fixed because per-system cost varies enough that
    different plans alone would spread the round wall by about 10%; the
    benchmark seed permutes the submission order.
    """

    name = "fuzz-small"
    jobs = 2
    systems = 80
    plan_seed = 0

    def __init__(self, seed: int, workdir):
        self.workdir = workdir
        self.specs = system_specs(self.systems, self.plan_seed,
                                  QUICK_PROFILE.sizes)
        random.Random(seed).shuffle(self.specs)
        self.profile = QUICK_PROFILE.spec()

    def warm_up(self) -> None:
        FuzzTask(kind="stable", n=3, seed=1, profile=self.profile).run()

    def run_round(self, tracer=None) -> Round:
        tasks = [FuzzTask(profile=self.profile, **spec) for spec in self.specs]
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            path = pathlib.Path(tmp) / "journal.jsonl"
            stats = CampaignStats()
            timing = TimingCollector()
            with Journal(path) as journal:
                start = time.perf_counter()
                # Looked up at call time so a traced round sees the
                # tracer's wrapper, as the program's own callers do.
                records = runner.run_tasks(
                    tasks, jobs=self.jobs, collect=timing, journal=journal,
                    stats=stats,
                )
                wall = time.perf_counter() - start
            digest = journal_digest(path)
        return Round(
            wall_s=wall, attempted=len(tasks),
            failed=stats.errors + stats.timeouts
            + sum(r.provenance == "aborted" for r in records),
            latencies_ms=[wall * 1e3] * len(tasks),
            verdicts={
                "journal_digest": digest,
                "systems": len(records),
                "disagreements": sum(len(r.disagreements) for r in records),
                "harness_errors": sum(len(r.harness_errors) for r in records),
            },
            program=_runner_program(stats, timing),
        )


class CertifyStream:
    """One closed-loop client certifying a skewed request stream.

    The population is 48 closed-loop matrices: both modes of the 3-, 5-
    and 10-state models and their integer variants, each under four
    decay scalings. Every matrix is requested once; the other requests
    pick one of the 12 closed-loop bases uniformly and a scaling by
    Zipf(1.2) popularity, whose rank order the seed permutes. Keeping
    the size mix uniform keeps the median request inside one size class
    whatever the seed. One ``CertificationService(sigfigs=8)`` per round
    serves the stream over a fresh disk-backed store, so each round pays
    the same 48 misses (ipm, validation, store put) between hits
    (fingerprint plus store lookup).
    """

    name = "certify-stream"
    jobs = 1
    sizes = (3, 5, 10)
    scales = (8 / 7, 9 / 7, 10 / 7, 11 / 7)
    #: 16 of the 48 misses are 10-state ipm solves, 1.6% of the stream:
    #: each round's p99 falls inside that group, 10 samples beyond it.
    requests = 1000
    zipf = 1.2

    def __init__(self, seed: int, workdir):
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        bases = [
            (f"{case.name}/{mode}", np.asarray(case.mode_matrix(mode), float))
            for case in benchmark_suite(
                sizes=self.sizes, integer_sizes=self.sizes
            )
            for mode in MODES
        ]
        population = [
            (base, scale)
            for base in range(len(bases)) for scale in range(len(self.scales))
        ]
        self.matrices = {
            (base, scale): self.scales[scale] * bases[base][1]
            for base, scale in population
        }
        self.names = {
            (base, scale): f"{bases[base][0]}/x{self.scales[scale]:.4f}"
            for base, scale in population
        }
        by_rank = rng.permutation(len(self.scales))
        weights = np.arange(1, len(self.scales) + 1.0) ** -self.zipf
        draws = self.requests - len(population)
        stream = population + [
            (int(base), int(by_rank[rank]))
            for base, rank in zip(
                rng.integers(len(bases), size=draws),
                rng.choice(len(self.scales), size=draws,
                           p=weights / weights.sum()),
            )
        ]
        self.stream = [stream[i] for i in rng.permutation(len(stream))]

    def warm_up(self) -> None:
        with CertificationService(sigfigs=8) as service:
            for case in benchmark_suite(sizes=self.sizes, integer_sizes=()):
                service.certify(
                    np.asarray(case.mode_matrix(0), float),
                    method="lmi", backend="ipm",
                )

    def run_round(self, tracer=None) -> Round:
        answers = defaultdict(set)
        latencies = []
        failed = 0
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            store = CertificateStore(pathlib.Path(tmp) / "store.jsonl")
            with CertificationService(store=store, sigfigs=8) as service:
                start = time.perf_counter()
                for number, key in enumerate(self.stream):
                    if tracer is not None:
                        tracer.index = number
                    sent = time.perf_counter()
                    try:
                        certificate = service.certify(
                            self.matrices[key].copy(),
                            method="lmi", backend="ipm",
                        )
                    except Exception:
                        traceback.print_exc()
                        answer = ("exception", None)
                    else:
                        answer = (certificate.synth_status, certificate.valid)
                    latencies.append((time.perf_counter() - sent) * 1e3)
                    failed += answer[0] in ("exception", "error")
                    answers[key].add(answer)
                wall = time.perf_counter() - start
                counters = service.counters()
        return Round(
            wall_s=wall, attempted=len(self.stream), failed=failed,
            latencies_ms=latencies,
            verdicts={
                self.names[key]:
                    list(next(iter(seen))) if len(seen) == 1
                    else "inconsistent"
                for key, seen in answers.items()
            },
            program={"service": counters},
        )


WORKLOADS = {
    cls.name: cls
    for cls in (Table1Ladder, CegisLoop, FuzzSmall, CertifyStream)
}
