"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments [ids…|list] [--backend hybrid|exact|scipy]``
    Run (a subset of) the E01–E15 experiment suite at test scale and print
    the tables; ``experiments list`` prints every registered experiment id
    with its one-line summary.  ``--backend`` overrides the LP backend for
    every experiment whose runner accepts one.
``sweep <ids…> [--jobs N] [--store PATH] [--seeds K] [--seed0 S] [--shard K/N] [--params k=v …]``
    Shard the selected experiments' parameter spaces across a process pool
    and persist results in a resumable store (SQLite index + JSONL
    payloads).  Completed tasks are skipped on re-runs; ``--jobs N`` output
    is bit-identical to ``--jobs 1``.  ``--shard K/N`` runs only the K-th
    of N deterministic round-robin slices of the task list, so independent
    CI machines can split one sweep and a final un-sharded run resumes
    with nothing left to execute.  Fault tolerance: ``--task-timeout`` /
    ``--task-pivots`` / ``--task-memory`` budget each attempt,
    ``--task-retries`` bounds retries, failures land in the store's
    ledger (quarantined after the budget; ``--retry-failed`` re-runs
    them), and ``--chaos SPEC`` injects deterministic faults to prove the
    recovery paths work.
``report <store> [ids…] [--timings]``
    Reassemble accumulated sweep tables from a results store;
    ``--failures`` renders the failure ledger instead.
``solve --demo <name> [--backend hybrid|exact|scipy]``
    Solve one of the built-in demo instances (``ii1``, ``v1``, ``smp``) with
    the exact solver and the 2-approximation, printing schedules as Gantt
    charts.
``analyze [--demo <name> | --topology <name> --utilization U] [--class C] [--T X]``
    Analytic schedulability (the :mod:`repro.rta` engine): print the
    SCHEDULABLE / UNSCHEDULABLE / UNKNOWN verdict with its certificate —
    per-job busy-window response bounds for witnesses, the violated demand
    bound for refutations — all exact Fractions, zero LP solves
    (``--profile`` proves it by counter; ``--trace`` shows the ``rta.*``
    spans).
``store stats <store>``
    Inspect a store/cache directory: bucket entry counts and payload sizes,
    solve-cache hit rates, per-experiment solver counters.
``version``
    Print the package version.

Backend guide: ``hybrid`` (default) = HiGHS speed with exact certification;
``exact`` = pure rational simplex; ``scipy`` = uncertified floats (fast,
re-checked at the call sites that need exactness).

Every exact solve runs the one fraction-free revised simplex; canonical
solves pin Dantzig pricing for a deterministic vertex, and ``"lex"`` solves
return the warm-start-independent lex-min vertex.  ``--profile`` prints
aggregated solver counters (solves, pivots, refactorizations, warm-start
hits, probe shortcuts, cache hits/misses) after the run, so perf claims can
cite counters instead of wall-clock.

``--cache PATH`` (on ``experiments`` and ``solve``) opens a persistent
solve cache at PATH and makes it the process default: every
:class:`repro.session.Session` the run constructs looks solves up by
content key before computing.  A warm second run performs **zero** LP
solves — ``--profile`` shows only cache hits.  The store format is the
sweep store's (SQLite index + JSONL payloads), so a cache directory can be
inspected with the same tooling.

``--trace FILE`` (on ``experiments``, ``sweep`` and ``solve``) records the
run's span tree — LP solves with phase boundaries, binary-search probes,
session cache lookups, admission windows, sweep tasks — through
:mod:`repro.obs`.  A ``.jsonl`` suffix streams one canonical JSON span per
line; any other suffix writes a Chrome ``trace_event`` file that opens in
``chrome://tracing`` or https://ui.perfetto.dev.  Sweeps merge worker span
trees into the driver's trace.  ``repro report --profile <store>`` and
``repro store stats <store>`` read the measured side back from a store
index: per-experiment and fleet-wide solver counters, bucket sizes, cache
hit rates.
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Any, Dict, List, Optional

from . import __version__


def _parse_params(pairs: List[str]) -> Dict[str, Any]:
    """``k=v`` pairs with Python-literal values (``trials=2``,
    ``shapes="((4,3),(6,3))"``); non-literals stay strings."""
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--params expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            overrides[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            overrides[key] = raw
    return overrides


def _list_experiments() -> int:
    from .runner import all_specs

    for spec in all_specs():
        print(f"{spec.id}  {spec.summary}")
    return 0


def _run_experiments(ids: List[str], backend: Optional[str] = None) -> int:
    from .runner import experiment_ids, get_spec

    if ids and ids[0] == "list":
        return _list_experiments()
    chosen = ids or experiment_ids()
    for exp_id in chosen:
        try:
            spec = get_spec(exp_id)
        except KeyError:
            print(f"unknown experiment {exp_id!r}; choose from {experiment_ids()}")
            return 2
        kwargs = dict(spec.cli_params)
        if backend is not None:
            if spec.accepts("backend"):
                kwargs["backend"] = backend
            elif spec.accepts("backends"):
                kwargs["backends"] = (backend,)
        result = spec.run(**kwargs)
        print()
        print(result.table.render())
    return 0


def _parse_shard(raw: Optional[str]):
    """``K/N`` → ``(K, N)`` with 1 ≤ K ≤ N (SystemExit on malformed input)."""
    if raw is None:
        return None
    try:
        k_str, _, n_str = raw.partition("/")
        k, n = int(k_str), int(n_str)
    except ValueError:
        raise SystemExit(f"--shard expects K/N (e.g. 1/3), got {raw!r}")
    if n < 1 or not 1 <= k <= n:
        raise SystemExit(f"--shard requires 1 ≤ K ≤ N, got {raw!r}")
    return (k, n)


def _run_sweep(
    ids: List[str],
    jobs: int,
    store_path: str,
    seeds: int,
    seed0: Optional[int],
    params: List[str],
    shard: Optional[str] = None,
    trace: bool = False,
    task_timeout: Optional[float] = None,
    task_retries: int = 0,
    task_memory: Optional[float] = None,
    task_pivots: Optional[int] = None,
    chaos: Optional[str] = None,
    retry_failed: bool = False,
) -> int:
    from .runner import ResultsStore, TaskBudget, experiment_ids, get_spec, run_sweep
    from .runner.chaos import resolve as resolve_chaos

    chosen = ids or experiment_ids()
    known = set(experiment_ids())
    unknown = [i for i in chosen if i not in known]
    if unknown:
        print(f"unknown experiment(s) {unknown}; choose from {sorted(known)}")
        return 2
    overrides = _parse_params(params)
    # A key no selected experiment accepts is almost certainly a typo; a
    # silently-dropped override would cache default-parameter results the
    # user believes were overridden.
    for key in overrides:
        takers = [i for i in chosen if get_spec(i).accepts(key)]
        if not takers:
            print(
                f"--params key {key!r} is not accepted by any of {chosen}; "
                "check `repro experiments list` and the run() signatures"
            )
            return 2
    if seeds > 1 or seed0 is not None:
        seedable = [i for i in chosen if get_spec(i).seedable]
        if not seedable:
            print(
                f"--seeds/--seed0 have no effect: none of {chosen} takes a "
                "seed (deterministic worked examples run once per point)"
            )
            return 2
        unseedable = sorted(set(chosen) - set(seedable))
        if unseedable:
            print(f"note: {unseedable} take no seed; replicates apply to {seedable}")
    shard_kn = _parse_shard(shard)
    try:
        budget = TaskBudget(
            wall_seconds=task_timeout,
            max_pivots=task_pivots,
            max_memory_mb=task_memory,
            retries=task_retries,
        )
        chaos_spec = resolve_chaos(chaos)
    except ValueError as exc:
        raise SystemExit(str(exc))
    with ResultsStore(store_path) as store:
        stats = run_sweep(
            chosen,
            store,
            jobs=jobs,
            overrides=overrides,
            seeds=seeds,
            seed0=seed0,
            shard=shard_kn,
            echo=print,
            trace=trace,
            budget=budget,
            chaos=chaos_spec,
            retry_failed=retry_failed,
        )
    shard_note = f", shard {shard}" if shard_kn else ""
    fault_note = ""
    if stats.quarantined:
        fault_note += f", {stats.quarantined} quarantined"
    if stats.retried:
        fault_note += f", {stats.retried} retried"
    if stats.budget_kills:
        fault_note += f", {stats.budget_kills} budget kills"
    print(
        f"\nsweep: {stats.total} tasks{shard_note} — {stats.executed} executed, "
        f"{stats.skipped} skipped (cached), {stats.failed} failed{fault_note}  "
        f"[store: {store_path}]"
    )
    if stats.failed or stats.quarantined:
        print(
            "failures are recorded in the store ledger; inspect with "
            f"`repro report --failures {store_path}`, re-run quarantined "
            "tasks with `repro sweep --retry-failed`"
        )
    return 1 if stats.failed or stats.quarantined else 0


def _run_report(
    store_path: str, ids: List[str], timings: bool, profile: bool = False,
    failures: bool = False,
) -> int:
    import os

    from .runner import ResultsStore, assemble_table

    if not os.path.isdir(store_path):
        print(f"no results store at {store_path!r}")
        return 2
    with ResultsStore(store_path) as store:
        if failures:
            return _render_failures(store, ids or None)
        chosen = ids or store.experiments()
        if not chosen and not profile:
            print(f"store {store_path!r} holds no completed tasks yet")
            return 0
        for exp_id in chosen:
            table = assemble_table(store, exp_id, timings=timings)
            if table is None:
                print(f"\n{exp_id}: no completed tasks in store")
                continue
            print()
            print(table.render())
        if profile:
            print()
            _render_store_profile(store, ids or None)
    return 0


def _render_failures(store, ids: Optional[List[str]] = None) -> int:
    """``repro report --failures``: render the store's failure ledger."""
    rows = store.failures()
    if ids:
        wanted = set(ids)
        rows = [row for row in rows if row["experiment"] in wanted]
    if not rows:
        print("failure ledger is empty (no open failures)")
        return 0
    print(f"failure ledger: {len(rows)} open failure(s)")
    for row in rows:
        attempts = row["attempts"]
        print(
            f"\n{row['experiment']}  key={row['key'][:12]}  "
            f"attempts={attempts}  elapsed={row['elapsed_s']:.2f}s"
        )
        print(f"  {row['error_class']}: {row['message']}")
        if row.get("params_json"):
            print(f"  params: {row['params_json']}")
        if row.get("traceback"):
            last = row["traceback"].rstrip().splitlines()[-1]
            print(f"  traceback (last line): {last}")
    print(
        "\nre-run with `repro sweep --retry-failed` to retry quarantined "
        "tasks; a successful run clears its ledger row"
    )
    return 0


def _render_store_profile(store, ids: Optional[List[str]] = None) -> None:
    """Per-experiment and fleet-wide solver counters from a store index."""
    from .lp.stats import SolverStats

    totals = store.stats_totals()
    if ids:
        totals = {name: totals[name] for name in ids if name in totals}
    if not totals:
        print(
            "no solver counters in the store index (tasks recorded before "
            "the observability layer carry none; re-run the sweep to fill "
            "them in)"
        )
        return
    print("per-experiment solver counters (store index):")
    for name in sorted(totals):
        s = totals[name]
        print(
            f"  {name}: solves={s.solves} pivots={s.pivots} "
            f"refactorizations={s.refactorizations} "
            f"cache={s.cache_hits}h/{s.cache_misses}m"
        )
    fleet = SolverStats()
    for s in totals.values():
        fleet.add(s)
    print()
    print("fleet-wide " + fleet.render())


def _store_stats(store_path: str) -> int:
    """``repro store stats``: bucket sizes, hit rates, solver counters."""
    import os

    from .lp.stats import SolverStats
    from .session.cache import SolveCache

    if not os.path.isdir(store_path):
        print(f"no store at {store_path!r}")
        return 2
    with SolveCache(store_path) as cache:
        summary = cache.bucket_summary()
        if not summary:
            print(f"store {store_path!r} holds no completed entries yet")
            return 0
        totals = cache.stats_totals()
        print(f"store: {cache.root}")
        print()
        header = (
            f"{'bucket':<24} {'entries':>7} {'payload':>10} {'elapsed':>9} "
            f"{'solves':>7} {'pivots':>8} {'refac':>6} {'cache h/m':>10}"
        )
        print(header)
        print("-" * len(header))
        for name in sorted(summary):
            info = summary[name]
            s = totals.get(name, SolverStats())
            print(
                f"{name:<24} {info['entries']:>7} "
                f"{info['payload_bytes']:>9}B {info['elapsed_s']:>8.2f}s "
                f"{s.solves:>7} {s.pivots:>8} {s.refactorizations:>6} "
                f"{f'{s.cache_hits}/{s.cache_misses}':>10}"
            )
        fleet = SolverStats()
        for s in totals.values():
            fleet.add(s)
        lookups = fleet.cache_hits + fleet.cache_misses
        print()
        if lookups:
            rate = 100.0 * fleet.cache_hits / lookups
            print(
                f"solve-cache lookups: {lookups} "
                f"({fleet.cache_hits} hits, {rate:.0f}% hit rate)"
            )
        open_failures = cache.failure_count()
        if open_failures:
            print(
                f"failure ledger: {open_failures} open failure(s) — "
                "`repro report --failures` for details"
            )
        print("fleet-wide " + fleet.render())
    return 0


def _demo_instance(name: str):
    """The built-in demo instances shared by ``solve`` and ``analyze``."""
    if name == "ii1":
        from .workloads import example_ii1

        return example_ii1()
    if name == "v1":
        from .workloads import example_v1

        return example_v1(6)
    if name == "smp":
        from .simulation import CostModel, Topology
        from .workloads import rng_from_seed
        from .workloads.generators import instance_from_topology

        topo = Topology.smp_cmp(2, 1, 2)
        instance, _ = instance_from_topology(
            rng_from_seed(2017), topo, CostModel.xeon_like(), n=topo.m + 1,
            base_range=(20, 24), flexible_fraction=1.0, specialist_fraction=0.0,
        )
        return instance
    return None


def _solve_demo(name: str, backend: str = "hybrid") -> int:
    from .analysis.gantt import render_gantt
    from .session import Session

    instance = _demo_instance(name)
    if instance is None:
        print(f"unknown demo {name!r}; choose from ii1, v1, smp")
        return 2

    print(f"instance: {instance}")
    with Session(backend=backend) as session:
        exact = session.solve_exact(instance)
        schedule = session.template(instance, exact.assignment, exact.optimum)
        print(f"\nexact optimum: {exact.optimum}")
        print(render_gantt(schedule))
        approx = session.two_approximation(instance)
        print(f"\n2-approximation: makespan {approx.makespan} "
              f"(T* = {approx.T_lp}, guarantee ≤ {approx.bound}, "
              f"backend = {backend})")
        print(render_gantt(approx.schedule))
    return 0


def _analyze(
    demo: Optional[str],
    topology: Optional[str],
    utilization: float,
    seed: int,
    scheduler_class: str,
    T: Optional[str],
) -> int:
    """``repro analyze``: analytic schedulability verdict + certificate."""
    from fractions import Fraction

    from .rta import SCHEDULABLE, UNSCHEDULABLE, analytic_schedulable

    if topology is not None:
        from .workloads import rng_from_seed
        from .workloads.families import make_topology
        from .workloads.generators import utilization_workload

        topo = make_topology(topology)
        T_ref = Fraction(T) if T is not None else Fraction(20)
        instance = utilization_workload(
            rng_from_seed(seed), topo.family, utilization, T_ref
        )
    else:
        instance = _demo_instance(demo or "ii1")
        if instance is None:
            print(f"unknown demo {demo!r}; choose from ii1, v1, smp")
            return 2
        T_ref = Fraction(T) if T is not None else instance.trivial_bounds()[0]

    print(f"instance: {instance}")
    verdict = analytic_schedulable(instance, scheduler_class, T_ref)
    print(f"\nverdict: {verdict.status}")
    print(f"class:   {verdict.scheduler_class}")
    print(f"T:       {verdict.T}")
    print(f"reason:  {verdict.reason}")
    cert = verdict.certificate
    if verdict.status == SCHEDULABLE:
        print(f"strategy: {cert['strategy']}")
        print(f"makespan bound: {cert['makespan_bound']}")
        print("per-job response bounds (busy windows):")
        for j, bound in sorted(verdict.response_bounds.items()):
            mask = ",".join(map(str, cert["masks"][j]))
            print(f"  job {j} on {{{mask}}}: ≤ {bound}")
    elif verdict.status == UNSCHEDULABLE:
        print(f"violated test: {cert.get('test')}")
        print(f"  {cert.get('detail')}")
        if cert.get("lhs") is not None:
            print(f"  bound: {cert['lhs']} > {cert['rhs']}")
    else:
        print(f"strategies tried: {', '.join(cert['strategies_tried'])}")
        print(f"demand margin: {cert['demand_margin']}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Algorithms for hierarchical and "
        "semi-partitioned parallel scheduling' (IPDPS 2017)",
    )
    sub = parser.add_subparsers(dest="command")
    exp = sub.add_parser(
        "experiments", help="run the E01–E15 suite (test scale), or list ids"
    )
    exp.add_argument("ids", nargs="*", help="experiment ids (e.g. e01 e08), or 'list'")
    exp.add_argument(
        "--backend",
        choices=("hybrid", "exact", "scipy"),
        default=None,
        help="LP backend override (default: each experiment's own)",
    )
    exp.add_argument(
        "--profile", action="store_true",
        help="print aggregated solver counters after the run",
    )
    exp.add_argument(
        "--cache", default=None, metavar="PATH",
        help="persistent solve cache directory; a warm run does zero LP solves",
    )
    exp.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span trace (.jsonl = JSONL spans, else Chrome "
        "trace_event for chrome://tracing / Perfetto)",
    )
    sweep = sub.add_parser(
        "sweep", help="shard experiment sweeps across a process pool"
    )
    sweep.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep.add_argument(
        "--store", default="results", help="results store directory (default: results)"
    )
    sweep.add_argument(
        "--seeds", type=int, default=1,
        help="replicates per sweep point with derived seeds (default: 1 = "
        "each experiment's built-in seed)",
    )
    sweep.add_argument(
        "--seed0", type=int, default=None,
        help="root seed for per-task seed derivation",
    )
    sweep.add_argument(
        "--shard", default=None, metavar="K/N",
        help="run only the K-th of N deterministic round-robin slices of "
        "the task list (split one sweep across CI machines)",
    )
    sweep.add_argument(
        "--params", nargs="*", default=[], metavar="K=V",
        help="axis overrides applied to every experiment accepting them",
    )
    sweep.add_argument(
        "--profile", action="store_true",
        help="print aggregated solver counters after the sweep (worker "
        "counters included)",
    )
    sweep.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span trace of the sweep; worker span trees are "
        "merged into the driver's trace",
    )
    sweep.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per task attempt; an expired task's worker "
        "is killed and the attempt recorded (needs --jobs >= 2)",
    )
    sweep.add_argument(
        "--task-retries", type=int, default=0, metavar="N",
        help="extra attempts per failed task before its failure is final "
        "(default: 0)",
    )
    sweep.add_argument(
        "--task-memory", type=float, default=None, metavar="MB",
        help="Python-allocation peak budget per task attempt, in MiB "
        "(tracemalloc-enforced in the worker)",
    )
    sweep.add_argument(
        "--task-pivots", type=int, default=None, metavar="N",
        help="simplex pivot budget per task attempt (enforced through the "
        "solver's own pivot-limit channel)",
    )
    sweep.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic fault injection, e.g. 'crash:0.1,hang:0.05' "
        "(kinds: crash|hang|pivot|fail, optional @ATTEMPT qualifier; "
        "default: $REPRO_CHAOS)",
    )
    sweep.add_argument(
        "--retry-failed", action="store_true",
        help="re-run tasks the failure ledger has quarantined",
    )
    report = sub.add_parser(
        "report", help="reassemble accumulated sweep tables from a store"
    )
    report.add_argument("store", help="results store directory")
    report.add_argument("ids", nargs="*", help="experiment ids (default: all stored)")
    report.add_argument(
        "--timings", action="store_true",
        help="append per-task wall-clock from the store index",
    )
    report.add_argument(
        "--profile", action="store_true",
        help="render per-experiment and fleet-wide solver counters from "
        "the store index",
    )
    report.add_argument(
        "--failures", action="store_true",
        help="render the store's failure ledger (open failures and "
        "quarantined tasks) instead of result tables",
    )
    solve = sub.add_parser("solve", help="solve a built-in demo instance")
    solve.add_argument("--demo", default="ii1", help="ii1 | v1 | smp")
    solve.add_argument(
        "--backend",
        choices=("hybrid", "exact", "scipy"),
        default="hybrid",
        help="LP backend for the 2-approximation (default: hybrid)",
    )
    solve.add_argument(
        "--profile", action="store_true",
        help="print aggregated solver counters after the run",
    )
    solve.add_argument(
        "--cache", default=None, metavar="PATH",
        help="persistent solve cache directory; a warm run does zero LP solves",
    )
    solve.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span trace (.jsonl = JSONL spans, else Chrome "
        "trace_event for chrome://tracing / Perfetto)",
    )
    analyze = sub.add_parser(
        "analyze",
        help="analytic schedulability verdict + certificate (zero LP solves)",
    )
    analyze.add_argument("--demo", default=None, help="ii1 | v1 | smp (default: ii1)")
    analyze.add_argument(
        "--topology", default=None, metavar="NAME",
        help="judge a generated workload on a topology-zoo family instead "
        "of a demo (e.g. flat4, clustered4x2)",
    )
    analyze.add_argument(
        "--utilization", type=float, default=0.8,
        help="target utilization for --topology workloads (default: 0.8)",
    )
    analyze.add_argument(
        "--seed", type=int, default=190,
        help="workload seed for --topology (default: 190)",
    )
    analyze.add_argument(
        "--class", dest="scheduler_class", default="hierarchical",
        choices=("global", "partitioned", "clustered", "semi", "hierarchical"),
        help="scheduler class to analyze within (default: hierarchical)",
    )
    analyze.add_argument(
        "--T", default=None, metavar="MAKESPAN",
        help="makespan budget as an exact number, e.g. 20 or 41/2 "
        "(default: the instance's trivial lower bound; 20 with --topology)",
    )
    analyze.add_argument(
        "--profile", action="store_true",
        help="print solver counters after the verdict (the analytic path "
        "proves itself LP-free: all zeros)",
    )
    analyze.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record the rta.* span tree (.jsonl = JSONL spans, else "
        "Chrome trace_event)",
    )
    store_cmd = sub.add_parser(
        "store", help="inspect a results/cache store directory"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command")
    store_stats = store_sub.add_parser(
        "stats",
        help="bucket sizes, cache hit rates, per-experiment solver counters",
    )
    store_stats.add_argument("store", help="store directory")
    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)
    cache = None
    if getattr(args, "cache", None):
        from .session import set_default_cache

        cache = set_default_cache(args.cache)
    try:
        return _run_instrumented(args, parser)
    finally:
        if cache is not None:
            from .session import set_default_cache

            set_default_cache(None)
            cache.close()


def _run_instrumented(args, parser) -> int:
    """Dispatch under the requested ``--profile`` scope and ``--trace``
    tracer (``report --profile`` reads a store instead — no live scope)."""
    from contextlib import ExitStack

    trace_path = getattr(args, "trace", None)
    want_profile = (
        bool(getattr(args, "profile", False)) and args.command != "report"
    )
    tracer = None
    profile = None
    with ExitStack() as stack:
        if want_profile:
            from .lp.stats import collect_stats

            profile = stack.enter_context(collect_stats())
        if trace_path:
            from .obs import JsonlSpanSink, Tracer, span, tracing

            if trace_path.endswith(".jsonl"):
                sink = stack.enter_context(JsonlSpanSink(trace_path))
                tracer = Tracer(sink=sink)
            else:
                tracer = Tracer()
            stack.enter_context(tracing(tracer))
            stack.enter_context(span(f"repro.{args.command}"))
        code = _dispatch(args, parser)
    if tracer is not None:
        if not trace_path.endswith(".jsonl"):
            from .obs import write_chrome_trace

            write_chrome_trace(
                trace_path, tracer.spans, label=f"repro {args.command}"
            )
        print(f"\ntrace: {len(tracer.spans)} spans -> {trace_path}")
    if profile is not None:
        print()
        print(profile.render())
    return code


def _dispatch(args, parser) -> int:
    if args.command == "experiments":
        return _run_experiments(args.ids, backend=args.backend)
    if args.command == "sweep":
        return _run_sweep(
            args.ids, args.jobs, args.store, args.seeds, args.seed0,
            args.params, shard=args.shard, trace=bool(args.trace),
            task_timeout=args.task_timeout, task_retries=args.task_retries,
            task_memory=args.task_memory, task_pivots=args.task_pivots,
            chaos=args.chaos, retry_failed=args.retry_failed,
        )
    if args.command == "report":
        return _run_report(
            args.store, args.ids, args.timings, profile=args.profile,
            failures=args.failures,
        )
    if args.command == "solve":
        return _solve_demo(args.demo, backend=args.backend)
    if args.command == "analyze":
        return _analyze(
            args.demo, args.topology, args.utilization, args.seed,
            args.scheduler_class, args.T,
        )
    if args.command == "store":
        if getattr(args, "store_command", None) == "stats":
            return _store_stats(args.store)
        parser.parse_args(["store", "--help"])
        return 1
    if args.command == "version":
        print(__version__)
        return 0
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main
    sys.exit(main())
