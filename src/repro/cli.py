"""``cheri-run``/``repro``: run CHERI C programs, regenerate the paper
reports, and drive the differential fuzzer.

Usage::

    cheri-run test.c                  # reference semantics (cerberus)
    cheri-run test.c --impl clang-riscv-O3
    cheri-run test.c --all            # compare every implementation
    cheri-run --report table1        # regenerate Table 1
    cheri-run --report compliance    # the S5 comparison
    cheri-run --list                 # list known implementations
    repro suite --impl gcc-morello-O0 --jobs 4
    repro compare --jobs 4           # parallel S5 compliance report
    repro fuzz --seed 0 --iterations 200 --jobs 4
    repro fuzz --seed 0 --time-budget 30 --corpus-dir tests/corpus
    repro trace test.c --explain     # semantic event trace + UB explainer
    repro trace test.c --jsonl out.jsonl --metrics
    repro run test.c --dump-core     # print the elaborated Core IR
    repro suite --evaluator core     # run on the reference Core loop
    repro compare --allocator freelist   # the grid over reusing heaps
    repro fuzz --allocator freelist --seed 0   # + allocator targets

``--jobs N`` fans runs across N worker processes (0 = all cores) with
results stitched back in input order, so reports are bit-identical to
serial runs; ``--no-compile-cache`` disables the shared compilation
cache (see docs/PERFORMANCE.md).  ``--max-steps/--max-allocations/
--max-alloc-bytes/--deadline`` put a resource budget on every run, so
even a nonterminating program ends with a structured
``resource_exhausted`` outcome (see docs/ROBUSTNESS.md).
``--evaluator {core,compiled}`` selects the execution strategy
(default: ``compiled``, which is tiered: a run memo serves identical
deterministic repeats and every other run takes the Core loop; see
docs/PERFORMANCE.md) and ``--dump-core`` prints the elaborated listing
-- with fold/fuse annotations under ``compiled`` -- instead of running.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.coreeval import EVALUATORS
from repro.impls import ALL_IMPLEMENTATIONS, by_name


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The execution-engine flags shared by run/suite/compare/fuzz."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan runs across N worker processes "
                             "(0 = all cores; default: 1, serial)")
    parser.add_argument("--no-compile-cache", action="store_true",
                        help="disable the shared compilation cache "
                             "(each run re-parses and re-optimises)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="directory for the on-disk compile cache "
                             "shared across processes and invocations "
                             "(default: $REPRO_CACHE_DIR or "
                             "~/.cache/repro)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="disable the on-disk compile-cache layer "
                             "(in-memory caching still applies)")
    parser.add_argument("--evaluator",
                        choices=EVALUATORS,
                        default=None,
                        help="execution strategy: core, the iterative "
                             "Core-IR evaluator, which executes every run; "
                             "or compiled (the default), which is tiered: "
                             "identical deterministic runs are served "
                             "from a run memo and every other run takes "
                             "the Core loop (held byte-identical to core "
                             "and to closure dispatch by the "
                             "differential gate)")
    parser.add_argument("--allocator",
                        choices=("bump", "freelist", "quarantine"),
                        default=None,
                        help="heap allocator policy override: bump "
                             "(never reuse; the default), freelist "
                             "(freed addresses recycle -- use-after-free "
                             "aliasing), or quarantine (FIFO-delayed "
                             "reuse, CHERIoT-style); run/suite/compare "
                             "re-run the selection under the policy, "
                             "fuzz adds policy targets to the grid")
    budgets = parser.add_argument_group(
        "resource budgets",
        "per-run limits (docs/ROBUSTNESS.md); a run over budget ends "
        "with a structured resource_exhausted outcome instead of "
        "hanging.  With --jobs, a worker blowing --deadline is torn "
        "down and the case retried/quarantined by the pool.")
    budgets.add_argument("--max-steps", type=int, default=None,
                         metavar="N",
                         help="interpreter evaluation-step limit per run")
    budgets.add_argument("--max-allocations", type=int, default=None,
                         metavar="N",
                         help="allocation-count limit per run")
    budgets.add_argument("--max-alloc-bytes", type=int, default=None,
                         metavar="N",
                         help="allocated-bytes limit per run")
    budgets.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="wall-clock limit per run")


def _allocator_override(args, impl):
    """``impl`` under the ``--allocator`` policy (None = unchanged)."""
    policy = getattr(args, "allocator", None)
    if policy is None:
        return impl
    from repro.impls import with_allocator
    return with_allocator(impl, policy)


def _budget_from(args):
    """The Budget described by the CLI flags (None when no flag set)."""
    if (args.max_steps is None and args.max_allocations is None
            and args.max_alloc_bytes is None and args.deadline is None):
        return None
    from repro.robust import Budget
    return Budget(max_steps=args.max_steps,
                  max_alloc_bytes=args.max_alloc_bytes,
                  max_allocations=args.max_allocations,
                  deadline=args.deadline)


def _apply_cache_flag(args) -> bool:
    """Set the process-wide cache switches (in-memory and on-disk),
    which reach pool workers through the pool's initializer; returns
    the use_cache value for the engine entry points."""
    from repro.perf import configure_disk_cache, set_cache_enabled
    use_cache = not args.no_compile_cache
    set_cache_enabled(use_cache)
    configure_disk_cache(
        enabled=use_cache and not getattr(args, "no_disk_cache", False),
        directory=getattr(args, "cache_dir", None))
    return use_cache


def _apply_evaluator_flag(args) -> str | None:
    """Set the process-wide evaluator default when ``--evaluator`` is
    given (pool workers take it through the pool's initializer);
    returns the choice for the engine entry points (None = flag
    absent, keep the default)."""
    if getattr(args, "evaluator", None) is not None:
        from repro.core.coreeval import set_default_evaluator
        set_default_evaluator(args.evaluator)
    return getattr(args, "evaluator", None)


def fuzz_main(argv: list[str]) -> int:
    """The ``fuzz`` subcommand: differential fuzzing of the registry."""
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="Generate random CHERI C programs, run them on every "
                    "registered implementation, and classify every "
                    "divergence against the executable semantics")
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed (default: 0)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="number of programs to generate "
                             "(default: 100 unless --time-budget is given)")
    parser.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="stop generating after this many seconds")
    parser.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="blind mode: write minimized finding cases "
                             "to this regression-corpus directory; "
                             "guided mode: the campaign corpus "
                             "(seeds/, findings/, state.json)")
    guided = parser.add_argument_group(
        "coverage-guided campaigns",
        "AFL-style guided fuzzing (docs/FUZZING.md): coverage-advancing "
        "programs persist as corpus seeds and later candidates mutate "
        "them; findings dedup to distinct bugs by explaining signature.")
    guided.add_argument("--guided", action="store_true",
                        help="run a coverage-guided campaign against "
                             "--corpus-dir instead of the blind loop")
    guided.add_argument("--shard", default=None, metavar="I/N",
                        help="evaluate only candidate indices congruent "
                             "to I mod N (guided; shard corpora merge "
                             "byte-for-byte via --merge)")
    guided.add_argument("--resume", action="store_true",
                        help="continue the campaign from the corpus "
                             "directory's stored cursor (guided)")
    guided.add_argument("--merge", action="append", default=None,
                        metavar="SRC",
                        help="merge this shard corpus into --corpus-dir "
                             "(repeatable; no campaign is run)")
    guided.add_argument("--minimise-corpus", action="store_true",
                        help="greedily prune --corpus-dir seeds whose "
                             "coverage is subsumed (no campaign is run)")
    parser.add_argument("--save-known", action="store_true",
                        help="also write minimized known-cause divergence "
                             "cases to the corpus directory")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write reference JSONL event traces of every "
                             "finding's minimized reproducer to this "
                             "directory")
    parser.add_argument("--preserve-explanation", action="store_true",
                        help="shrink findings under the 'same explaining "
                             "event' predicate: minimisation must keep the "
                             "reference trace's explaining signature")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-iteration progress output")
    parser.add_argument("--metrics", action="store_true",
                        help="print this process's compile-cache layer "
                             "table after the report")
    _add_engine_flags(parser)
    args = parser.parse_args(argv)
    # The engine's process settings; the fuzz loops and their pool
    # workers take them from here.
    _apply_cache_flag(args)
    _apply_evaluator_flag(args)

    def print_metrics() -> None:
        if args.metrics:
            from repro.perf import global_cache
            sys.stdout.write(global_cache().stats.summary())

    from repro.fuzz import run_fuzz
    from repro.reporting.tables import render_fuzz_summary
    from repro.robust import DEFAULT_FUZZ_BUDGET

    budget = _budget_from(args) or DEFAULT_FUZZ_BUDGET

    # --allocator POLICY extends the differential grid with targets
    # running that heap-reuse policy and switches on the generator's
    # heap-reuse statement shapes so the axis is actually exercised.
    from repro.fuzz.oracle import FUZZ_TARGETS, allocator_fuzz_targets
    policy_targets = allocator_fuzz_targets(args.allocator) \
        if args.allocator else ()
    # Keep the default object identity: the drivers pickle the target
    # tuple to workers only when it is not FUZZ_TARGETS itself.
    targets = FUZZ_TARGETS + policy_targets if policy_targets \
        else FUZZ_TARGETS
    heap_reuse = bool(policy_targets)

    guided_mode = (args.guided or args.merge or args.minimise_corpus
                   or args.shard or args.resume)
    if guided_mode and args.corpus_dir is None:
        parser.error("--guided/--shard/--resume/--merge/"
                     "--minimise-corpus require --corpus-dir")
    if (args.shard or args.resume) and not args.guided:
        parser.error("--shard/--resume only apply to --guided campaigns")

    if args.merge:
        from repro.fuzz import merge_corpus_dirs
        stats = merge_corpus_dirs(args.corpus_dir, args.merge)
        print(f"merged {len(args.merge)} shard corpora into "
              f"{args.corpus_dir}: +{stats['seeds']} seed(s), "
              f"+{stats['bugs']} distinct bug(s), "
              f"+{stats['witnesses']} witness(es)")
        return 0

    if args.minimise_corpus:
        from repro.fuzz import minimise_corpus
        kept, removed = minimise_corpus(args.corpus_dir)
        print(f"minimised {args.corpus_dir}: kept {len(kept)} seed(s), "
              f"removed {len(removed)} subsumed seed(s)")
        return 0

    if args.guided:
        from repro.fuzz import CampaignError, parse_shard, run_campaign
        from repro.reporting.tables import render_campaign_summary

        def campaign_progress(count: int, report) -> None:
            if not args.quiet and count % 25 == 0:
                print(f"  ... {count} candidates, "
                      f"{len(report.new_seeds)} new seeds, "
                      f"{len(report.new_bugs)} new distinct bugs so far",
                      file=sys.stderr)

        try:
            report = run_campaign(
                seed=args.seed,
                iterations=args.iterations,
                time_budget=args.time_budget,
                corpus_dir=args.corpus_dir,
                shard=parse_shard(args.shard) if args.shard else (0, 1),
                resume=args.resume,
                targets=targets,
                jobs=args.jobs,
                budget=budget,
                progress=campaign_progress)
        except CampaignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_campaign_summary(report), end="")
        print_metrics()
        return 0 if report.ok else 1

    def progress(index: int, report) -> None:
        if not args.quiet and index % 25 == 0:
            print(f"  ... {index} programs, "
                  f"{report.divergence_total} divergences so far",
                  file=sys.stderr)

    report = run_fuzz(
        seed=args.seed,
        iterations=args.iterations,
        time_budget=args.time_budget,
        targets=targets,
        heap_reuse=heap_reuse,
        corpus_dir=args.corpus_dir,
        save_known=args.save_known,
        trace_dir=args.trace_dir,
        preserve_explanation=args.preserve_explanation,
        progress=progress,
        jobs=args.jobs,
        budget=budget)
    print(render_fuzz_summary(report), end="")
    print_metrics()
    return 0 if report.ok else 1


def _select_cases(names: list[str] | None):
    """Resolve ``--case`` filters against the suite (None = full)."""
    from repro.testsuite.suite import all_cases
    if not names:
        return None
    by_case_name = {case.name: case for case in all_cases()}
    unknown = [name for name in names if name not in by_case_name]
    if unknown:
        raise SystemExit(f"unknown test case(s): {', '.join(unknown)}; "
                         f"known cases: {', '.join(sorted(by_case_name))}")
    return tuple(by_case_name[name] for name in names)


def suite_main(argv: list[str]) -> int:
    """The ``suite`` subcommand: the validation suite on one impl."""
    parser = argparse.ArgumentParser(
        prog="repro suite",
        description="Run the 94-test validation suite against one "
                    "implementation and report pass/fail/no-claim")
    parser.add_argument("--impl", default="cerberus",
                        help="implementation name (default: cerberus)")
    parser.add_argument("--case", action="append", default=None,
                        metavar="NAME",
                        help="run only this case (repeatable)")
    parser.add_argument("--metrics", action="store_true",
                        help="print merged run metrics for the suite")
    _add_engine_flags(parser)
    args = parser.parse_args(argv)
    use_cache = _apply_cache_flag(args)
    evaluator = _apply_evaluator_flag(args)

    from repro.testsuite.compare import run_suite

    report = run_suite(_allocator_override(args, by_name(args.impl)),
                       _select_cases(args.case),
                       jobs=args.jobs, with_metrics=args.metrics,
                       use_cache=use_cache, budget=_budget_from(args),
                       evaluator=evaluator)
    print(report.summary_line())
    for result in report.failures():
        expected = result.expected.describe() if result.expected else "?"
        print(f"  FAIL {result.case.name}: expected {expected}, "
              f"got {result.outcome.describe()}")
    if args.metrics and report.metrics is not None:
        sys.stdout.write(report.metrics.summary())
    if args.metrics:
        from repro.perf import global_cache
        sys.stdout.write(global_cache().stats.summary())
    return 0 if report.failed == 0 else 1


def compare_main(argv: list[str]) -> int:
    """The ``compare`` subcommand: the S5 compliance comparison."""
    parser = argparse.ArgumentParser(
        prog="repro compare",
        description="Run the validation suite against every registered "
                    "implementation and render the S5 compliance report")
    parser.add_argument("--case", action="append", default=None,
                        metavar="NAME",
                        help="compare only this case (repeatable)")
    _add_engine_flags(parser)
    args = parser.parse_args(argv)
    use_cache = _apply_cache_flag(args)
    evaluator = _apply_evaluator_flag(args)

    from repro.reporting.tables import render_compliance
    from repro.testsuite.compare import compare_implementations

    grid = tuple(_allocator_override(args, impl)
                 for impl in ALL_IMPLEMENTATIONS)
    reports = compare_implementations(grid,
                                      _select_cases(args.case),
                                      jobs=args.jobs, use_cache=use_cache,
                                      budget=_budget_from(args),
                                      evaluator=evaluator)
    print(render_compliance(reports))
    return 0 if all(report.failed == 0 for report in reports) else 1


def trace_main(argv: list[str]) -> int:
    """The ``trace`` subcommand: run one program with the event-trace
    subsystem attached and report what the semantics observed."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run a CHERI C program with semantic event tracing: "
                    "allocation lifecycle, provenance transitions, "
                    "capability derivations, and every UB check")
    parser.add_argument("file", help="C source file")
    parser.add_argument("--impl", default="cerberus",
                        help="implementation name (default: cerberus)")
    parser.add_argument("--jsonl", default=None, metavar="FILE",
                        help="write the trace as JSON Lines "
                             "('-' for stdout)")
    parser.add_argument("--explain", action="store_true",
                        help="reconstruct the causal chain behind the "
                             "outcome (UB catalogue entry, trap, or ghost "
                             "excursion)")
    parser.add_argument("--ring", type=int, default=None, metavar="N",
                        help="keep only the last N events (bounded memory "
                             "for long runs)")
    parser.add_argument("--metrics", action="store_true",
                        help="print run metrics (event counts, UB "
                             "verdicts, allocator totals)")
    parser.add_argument("--evaluator",
                        choices=EVALUATORS,
                        default=None,
                        help="execution strategy (default: compiled; "
                             "traced runs always dispatch through the "
                             "Core loop so every event carries the Core "
                             "op id that produced it)")
    args = parser.parse_args(argv)
    evaluator = _apply_evaluator_flag(args)

    from repro.obs import EventBus, Metrics, TraceRecorder, explain

    impl = by_name(args.impl)
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()

    bus = EventBus()
    recorder = TraceRecorder(ring=args.ring)
    recorder.attach(bus)
    metrics = Metrics()
    metrics.attach(bus)
    metrics.start()
    outcome = impl.run(source, bus=bus, evaluator=evaluator)
    metrics.finish(steps=bus.step)

    if outcome.stdout:
        sys.stdout.write(outcome.stdout)
    if args.jsonl == "-":
        recorder.write_jsonl(sys.stdout)
    elif args.jsonl is not None:
        count = recorder.write_jsonl(args.jsonl)
        print(f"[{impl.name}] wrote {count} events to {args.jsonl}",
              file=sys.stderr)
    if args.jsonl is None and not args.explain and not args.metrics:
        # Bare `repro trace prog.c`: human-readable event log.
        for event in recorder.events():
            print(f"  step {event.step:>4}  {event.kind:<16} {event.what}")
    if args.explain:
        sys.stdout.write(explain(recorder.events(),
                                 outcome=outcome.describe()))
    if args.metrics:
        sys.stdout.write(metrics.summary())
    print(f"[{impl.name}] {outcome.describe()}", file=sys.stderr)
    return outcome.exit_status if outcome.ok else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "suite":
        return suite_main(argv[1:])
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    if argv and argv[0] == "run":
        return _run_main(argv[1:])
    return _run_main(argv)


def _run_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="cheri-run",
        description="Run a CHERI C program under the executable semantics")
    parser.add_argument("file", nargs="?", help="C source file")
    parser.add_argument("--impl", default="cerberus",
                        help="implementation name (default: cerberus)")
    parser.add_argument("--all", action="store_true",
                        help="run under every implementation and compare")
    parser.add_argument("--report", choices=("table1", "compliance"),
                        help="regenerate a paper artefact instead of "
                             "running a file")
    parser.add_argument("--list", action="store_true",
                        help="list the known implementations and their "
                             "memory-model options")
    parser.add_argument("--metrics", action="store_true",
                        help="print run metrics (event counts, UB "
                             "verdicts, allocator totals) after the run")
    parser.add_argument("--dump-core", action="store_true",
                        help="print the elaborated Core IR listing for "
                             "the chosen implementation instead of "
                             "running the program")
    _add_engine_flags(parser)
    args = parser.parse_args(argv)
    use_cache = _apply_cache_flag(args)
    evaluator = _apply_evaluator_flag(args)

    if args.list:
        from repro.impls.registry import _BY_NAME
        for name in sorted(_BY_NAME):
            impl = _BY_NAME[name]
            print(f"{name:32s} {impl.description}")
            print(f"{'':32s}   mode={impl.mode.name.lower()} "
                  f"O{impl.opt_level} {impl.options.describe()} "
                  f"subobject-bounds="
                  f"{'on' if impl.subobject_bounds else 'off'} "
                  f"allocator={impl.allocator}")
        return 0

    if args.report:
        from repro.reporting.tables import render_compliance, render_table1
        if args.report == "table1":
            print(render_table1())
        else:
            from repro.testsuite.compare import compare_implementations
            reports = compare_implementations(ALL_IMPLEMENTATIONS,
                                              jobs=args.jobs,
                                              use_cache=use_cache)
            print(render_compliance(reports))
        return 0

    if args.file is None:
        parser.error("a C source file is required unless --report/--list "
                     "is given")

    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()

    if args.dump_core:
        from repro.core.coreeval import default_evaluator
        from repro.errors import CSyntaxError, CTypeError
        impl = by_name(args.impl)
        try:
            if (evaluator or default_evaluator()) == "compiled":
                # Under the compiled evaluator the listing additionally
                # annotates folded regions and fused pairs.
                from repro.core.compile import render_compiled
                from repro.perf import compile_threaded
                compiled = compile_threaded(impl, source,
                                            use_cache=use_cache)
                print(render_compiled(compiled))
            else:
                from repro.core.coreir import render_core
                from repro.perf import compile_core
                core = compile_core(impl, source, use_cache=use_cache)
                print(render_core(core))
        except (CSyntaxError, CTypeError) as exc:
            print(f"[{impl.name}] rejected: {exc}", file=sys.stderr)
            return 1
        return 0

    budget = _budget_from(args)

    def run_with_metrics(impl):
        if not args.metrics:
            return impl.run(source, budget=budget,
                            evaluator=evaluator), None
        from repro.obs import EventBus, Metrics
        bus = EventBus()
        metrics = Metrics()
        metrics.attach(bus)
        metrics.start()
        outcome = impl.run(source, bus=bus, budget=budget,
                           evaluator=evaluator)
        metrics.finish(steps=bus.step)
        return outcome, metrics

    if args.all:
        for impl in ALL_IMPLEMENTATIONS:
            impl = _allocator_override(args, impl)
            outcome, metrics = run_with_metrics(impl)
            print(f"== {impl.name}: {outcome.describe()}")
            if outcome.stdout:
                sys.stdout.write(outcome.stdout)
            if metrics is not None:
                sys.stdout.write(metrics.summary())
        return 0

    impl = _allocator_override(args, by_name(args.impl))
    outcome, metrics = run_with_metrics(impl)
    if outcome.stdout:
        sys.stdout.write(outcome.stdout)
    if metrics is not None:
        sys.stdout.write(metrics.summary())
        from repro.perf import global_cache
        sys.stdout.write(global_cache().stats.summary())
    print(f"[{impl.name}] {outcome.describe()}", file=sys.stderr)
    return outcome.exit_status if outcome.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
