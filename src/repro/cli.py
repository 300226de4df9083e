"""Command-line interface: ``python -m repro <command>``.

Operates on JSON system files (written by
:func:`repro.model.serialization.save_system` or ``repro export``) or
built-in suite names, both resolved by :func:`repro.api.load`:

* ``analyze``  — WCRT analysis of a mapped system (proposed/naive/adhoc);
* ``simulate`` — Monte-Carlo simulation campaign (WC-Sim);
* ``explore``  — GA design-space exploration, optionally saving the
  Pareto-optimal design points;
* ``verify``   — adversarial soundness campaign (differential oracles,
  metamorphic properties, counterexample shrinking, corpus replay);
* ``export``   — write a built-in benchmark suite to a system file;
* ``generate`` — write a random TGFF-style system to a file;
* ``serve``    — run the JSON-over-HTTP analysis/exploration service
  (``--processes N`` pre-forks a supervised SO_REUSEPORT fleet);
* ``submit``   — send a request to a running ``repro serve`` instance
  (retries 429/503/transport faults idempotently by default);
* ``chaos``    — fault-injection campaign against a supervised fleet,
  asserting zero wrong answers under worker kills and broken sockets.

Examples::

    python -m repro export cruise cruise.json --with-reference-mapping
    python -m repro analyze cruise.json --dropped info,diag,log,cam
    python -m repro simulate cruise.json --profiles 500 --dropped info
    python -m repro explore cruise.json --generations 20 --out pareto.json

Every command accepts the observability flags ``--log-level``,
``--progress``, ``--metrics-out PATH`` (JSON metrics + per-generation
records) and ``--trace-out PATH`` (JSONL span + event trace); final
results go to stdout, telemetry to stderr/files.  A recorded trace is
inspected offline with ``repro trace summarize <file>`` (per-phase
self-time and critical path) or converted for Perfetto with
``repro trace chrome <file> <out.json>``.
"""

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro import api
from repro.benchgen.tgff import generate_problem
from repro.core import FastPathConfig
from repro.core.analysis import analysis_result_to_dict
from repro.core.factory import DEFAULT_BACKEND, SCHED_BACKENDS
from repro.errors import ReproError
from repro.hardening.spec import HardeningPlan
from repro.model.serialization import (
    bundle_to_payload,
    load_system,
    save_system,
)
from repro.obs.export import JsonlSpanExporter
from repro.obs.logging import configure as configure_logging
from repro.obs.logging import get_logger
from repro.obs.metrics import metrics
from repro.obs.trace import tracer
from repro.sim.montecarlo import montecarlo_result_to_dict
from repro.suites import benchmark_names, get_benchmark

_LOG = get_logger("cli")


def _plan_arg(args) -> Optional[HardeningPlan]:
    """The ``--plan`` file as a plan; ``None`` keeps the system's own."""
    if not args.plan:
        return None
    try:
        return HardeningPlan.from_dict(json.loads(Path(args.plan).read_text()))
    except (OSError, ValueError, AttributeError, TypeError) as error:
        raise ReproError(
            f"cannot read plan file {args.plan!r}: {error}"
        ) from None


def _add_comm_flags(parser) -> None:
    """The ``--comm-*`` flag group shared by analyze/simulate/verify.

    ``--comm-backend`` validates against the registry via argparse
    ``choices`` — unknown names list every registered backend, the same
    UX as ``--method``.
    """
    from repro.comm import COMM_BACKENDS

    parser.add_argument(
        "--comm-backend", choices=COMM_BACKENDS, default=None,
        help="interconnect contention model (overrides the system's "
        "comm_backend field)",
    )
    parser.add_argument(
        "--comm-arq", type=int, default=None, metavar="K",
        help="message-fault budget: lost transfers are re-sent up to K "
        "times (overrides the system's arq_retries field)",
    )
    parser.add_argument(
        "--comm-arq-timeout", type=float, default=None, metavar="T",
        help="loss-detection overhead charged per ARQ retransmission",
    )


def _cmd_analyze(args) -> int:
    result = api.analyze(
        args.system,
        method=args.method,
        backend=args.backend,
        granularity=args.granularity,
        dropped=args.dropped or "",
        plan=_plan_arg(args),
        policy=args.policy,
        comm_backend=args.comm_backend,
        comm_arq=args.comm_arq,
        comm_arq_timeout=args.comm_arq_timeout,
        # Memoization + warm starts change no reported number (prune
        # stays off), so the fast path is always on.
        fast_path=FastPathConfig(),
    )
    return _print_analysis(analysis_result_to_dict(result), args.method)


def _print_analysis(result: dict, method: str) -> int:
    """Print an analysis response dict; returns the command's exit code.

    The one table of ``analyze`` and ``submit analyze``.  Rows follow
    the order of ``result["verdicts"]``; a served brownout answer
    (``"degraded": true``) gets one more line saying so.
    """
    print(f"{'application':>16} | {'wcrt':>10} | {'deadline':>9} | status")
    print("-" * 52)
    for name, verdict in result["verdicts"].items():
        status = "dropped" if verdict["dropped"] else (
            "ok" if verdict["meets_deadline"] else "MISS"
        )
        print(
            f"{name:>16} | {verdict['wcrt']:10.2f} | "
            f"{verdict['deadline']:9.1f} | {status}"
        )
    if method == "proposed":
        print(f"\ntransitions analyzed: {result['transitions_analyzed']}")
    if result.get("degraded"):
        print(
            "degraded: brownout fallback bounds (window back-end, "
            "no shared cache)"
        )
    return 0 if result["schedulable"] else 1


def _cmd_simulate(args) -> int:
    result = api.simulate(
        args.system,
        profiles=args.profiles,
        seed=args.seed,
        dropped=args.dropped or "",
        plan=_plan_arg(args),
        policy=args.policy,
        max_faults=args.max_faults,
        worst_bias=args.worst_bias,
        comm_backend=args.comm_backend,
        comm_arq=args.comm_arq,
        comm_arq_timeout=args.comm_arq_timeout,
    )
    return _print_simulation(montecarlo_result_to_dict(result))


def _print_simulation(result: dict) -> int:
    """Print a simulation response dict (``simulate``, ``submit simulate``)."""
    print(
        f"{'application':>16} | {'max resp':>9} | {'p99':>9} | {'mean':>9}"
    )
    print("-" * 54)
    for graph in sorted(result["worst_response"]):
        print(
            f"{graph:>16} | {result['worst_response'][graph]:9.2f} | "
            f"{result['p99_response'][graph]:9.2f} | "
            f"{result['mean_response'][graph]:9.2f}"
        )
    print(
        f"\nprofiles: {result['profiles']}, "
        f"critical runs: {result['critical_runs']}, "
        f"runs with drops: {result['runs_with_drops']}"
    )
    for graph, count in sorted(result["deadline_miss_runs"].items()):
        print(f"deadline misses observed for {graph!r} in {count} run(s)")
    return 0


def _explore_request_from_args(args):
    """The ``ExploreRequest`` an ``explore`` argv resolves to.

    Split out so the config-parity tests can assert that a flag vector,
    the equivalent HTTP payload and the equivalent ``api`` call all land
    on the same request.
    """
    from repro.dse import ExploreRequest

    return ExploreRequest.from_options(
        args.system,
        backend=args.backend,
        islands=args.islands,
        migration_every=args.migration_every,
        migrants=args.migrants,
        topology=args.topology,
        generations=args.generations,
        population=args.population,
        seed=args.seed,
        workers=args.workers,
        eval_retries=args.eval_retries,
        eval_budget=args.eval_budget,
        quarantine=args.quarantine,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )


def _cmd_explore(args) -> int:
    from repro.dse.islands import run_explore

    request = _explore_request_from_args(args)
    result = run_explore(
        request, execution=args.execution, fleet=args.fleet
    )
    print(f"evaluations: {result.statistics.evaluations}, "
          f"feasible: {result.statistics.feasible}")
    if result.statistics.guard_failures:
        print(
            f"guarded failures: {result.statistics.guard_failures} "
            f"(fallback evaluations: {result.statistics.fallback_evaluations})"
        )
    if result.statistics.interrupted:
        print(f"interrupted after generation {result.generations_run}")
    print(f"\nPareto front ({len(result.pareto)} points):")
    print(f"{'power':>10} | {'service':>8} | dropped")
    print("-" * 44)
    for power, service, dropped in result.front_as_rows():
        label = "{" + ", ".join(dropped) + "}" if dropped else "{}"
        print(f"{power:10.3f} | {service:8.1f} | {label}")
    if args.out:
        payload = {
            "pareto": [
                {
                    "power": point.power,
                    "service": point.service,
                    "design": point.design.to_dict(),
                }
                for point in result.pareto
            ]
        }
        Path(args.out).write_text(json.dumps(payload, indent=2))
        _LOG.info("wrote %d design point(s) to %s", len(result.pareto), args.out)
    return 0 if result.pareto else 1


def _cmd_verify(args) -> int:
    from repro.verify.campaign import replay_corpus

    if args.replay:
        report = replay_corpus(args.replay)
        for entry in report.entries:
            status = "REPRODUCES" if entry["reproduced"] else "fixed"
            print(
                f"{status:>10} | {entry['oracle']:>26} | "
                f"{entry['subject']:>16} | {entry['source']}"
            )
        for source in report.skipped:
            print(f"{'skipped':>10} | {'-':>26} | {'-':>16} | {source}")
        print(
            f"\nreplayed: {len(report.entries)}, "
            f"still reproducing: {report.still_reproducing}, "
            f"skipped: {len(report.skipped)}"
        )
        if args.out:
            Path(args.out).write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True)
            )
            _LOG.info("wrote replay report to %s", args.out)
        return 0 if report.ok else 1

    if not args.system:
        raise ReproError("a system (file or suite name) is required "
                         "unless --replay is given")
    report = api.verify(
        args.system,
        budget=args.budget,
        seed=args.seed,
        granularity=args.granularity,
        policy=args.policy,
        max_faults=args.max_faults,
        shrink=not args.no_shrink,
        metamorphic=not args.no_metamorphic,
        corpus_dir=args.corpus,
        comm_backend=args.comm_backend,
        comm_arq=args.comm_arq,
        comm_arq_timeout=args.comm_arq_timeout,
    )
    print(f"{'oracle':>26} | {'checks':>6} | violations")
    print("-" * 50)
    for oracle, entry in sorted(report.oracles.items()):
        print(
            f"{oracle:>26} | {entry['checks']:6d} | {entry['violations']}"
        )
    print(
        f"\nscenarios: {len(report.scenarios)}, checks: {report.checks}, "
        f"violations: {len(report.violations)}"
    )
    if report.violations:
        for violation in report.violations:
            print(
                f"VIOLATION [{violation['oracle']}] {violation['subject']}: "
                f"expected <= {violation['expected']:.6f}, "
                f"observed {violation['actual']:.6f}"
            )
        if report.reproducers:
            print("reproducers written:")
            for path in report.reproducers:
                print(f"  {path}")
    if args.out:
        report.write(args.out)
        _LOG.info("wrote verification report to %s", args.out)
    return 0 if report.ok else 1


def _cmd_margins(args) -> int:
    from repro.core.sensitivity import deadline_margins, wcet_scaling_margin

    bundle, _hardened, dropped = api._prepare(
        args.system, plan=_plan_arg(args), dropped=args.dropped or ""
    )
    margins = deadline_margins(
        bundle.applications, bundle.plan, bundle.architecture,
        bundle.mapping, dropped,
    )
    print(f"{'application':>16} | {'deadline margin':>15}")
    print("-" * 36)
    for name, margin in sorted(margins.items()):
        print(f"{name:>16} | {margin:15.2f}")
    scaling = wcet_scaling_margin(
        bundle.applications, bundle.plan, bundle.architecture,
        bundle.mapping, dropped, tolerance=args.tolerance,
    )
    print("\nuniform WCET scaling margin: " + f"{scaling:.2f}x")
    return 0 if scaling > 0 else 1


def _cmd_export(args) -> int:
    benchmark = get_benchmark(args.benchmark)
    if args.with_reference_mapping and args.benchmark == "cruise":
        from repro.suites.cruise import cruise_reference_plan, cruise_sample_mappings

        _hardened, mappings = cruise_sample_mappings()
        save_system(
            args.out,
            benchmark.problem.applications,
            benchmark.problem.architecture,
            mapping=mappings[0],
            plan=cruise_reference_plan(),
        )
        _LOG.info(
            "wrote %s with reference plan and sample mapping 1 to %s",
            args.benchmark,
            args.out,
        )
        return 0
    save_system(
        args.out,
        benchmark.problem.applications,
        benchmark.problem.architecture,
    )
    _LOG.info("wrote %s to %s", args.benchmark, args.out)
    return 0


def _cmd_generate(args) -> int:
    problem = generate_problem(
        seed=args.seed,
        critical_graphs=args.critical,
        droppable_graphs=args.droppable,
        processors=args.processors,
    )
    save_system(args.out, problem.applications, problem.architecture)
    _LOG.info(
        "wrote random system (seed %d, %d tasks, %d processors) to %s",
        args.seed,
        len(problem.applications.all_tasks),
        len(problem.architecture),
        args.out,
    )
    return 0


def _serve_cache_dir(args):
    """The disk-cache directory: explicit flag, else under state-dir."""
    if args.cache_dir:
        return args.cache_dir
    if args.state_dir:
        return str(Path(args.state_dir) / "cache")
    return None


def _cmd_serve_supervised(args) -> int:
    """Run a pre-fork fleet: N ``repro serve`` workers on one port."""
    from repro.serve.supervisor import Supervisor, SupervisorConfig

    worker_argv = [
        sys.executable, "-m", "repro", "serve",
        "--processes", "1",
        "--workers", str(args.workers),
        "--queue-size", str(args.queue_size),
        "--job-workers", str(args.job_workers),
        "--drain-timeout", str(args.drain_timeout),
        "--brownout-enter", str(args.brownout_enter),
        "--brownout-exit", str(args.brownout_exit),
        "--brownout-dwell", str(args.brownout_dwell),
        "--aging-floor", str(args.aging_floor),
    ]
    if args.quota_rps is not None:
        worker_argv += ["--quota-rps", str(args.quota_rps)]
    if args.quota_burst is not None:
        worker_argv += ["--quota-burst", str(args.quota_burst)]
    if args.brownout:
        worker_argv.append("--brownout")
    if args.state_dir:
        worker_argv += ["--state-dir", args.state_dir]
    cache_dir = _serve_cache_dir(args)
    if cache_dir:
        worker_argv += ["--cache-dir", cache_dir]
    if args.cache_size is not None:
        worker_argv += ["--cache-size", str(args.cache_size)]
    if args.allow_local_paths:
        worker_argv.append("--allow-local-paths")
    status_path = args.status_file
    if status_path is None and args.state_dir:
        status_path = str(Path(args.state_dir) / "supervisor.json")
    supervisor = Supervisor(SupervisorConfig(
        worker_argv,
        processes=args.processes,
        host=args.host,
        port=args.port,
        status_path=status_path,
        drain_timeout=args.drain_timeout,
    ))
    supervisor.start()
    print(
        f"supervising {args.processes} workers on {supervisor.url}",
        file=sys.stderr,
    )
    return supervisor.run()


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.serve.app import ReproServer, ServeConfig

    if args.processes > 1:
        return _cmd_serve_supervised(args)

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        state_dir=args.state_dir,
        job_workers=args.job_workers,
        cache_capacity=args.cache_size,
        allow_local_paths=args.allow_local_paths,
        cache_dir=_serve_cache_dir(args),
        reuse_port=args.reuse_port,
        drain_timeout=args.drain_timeout,
        worker_id=args._worker_id,
        supervisor_status_path=args._status_file,
        quota_rps=args.quota_rps,
        quota_burst=args.quota_burst,
        brownout=args.brownout,
        brownout_enter=args.brownout_enter,
        brownout_exit=args.brownout_exit,
        brownout_dwell=args.brownout_dwell,
        aging_seconds=args.aging_floor,
    )
    server = ReproServer(config)
    stop = threading.Event()

    def _on_signal(_signum, _frame):
        stop.set()

    # SIGTERM drains exactly like Ctrl-C: finish/park in-flight work,
    # commit checkpoints, exit 0 (the supervisor relies on this).
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    server.start()
    print(f"serving on {server.url}", file=sys.stderr)
    try:
        while not stop.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass
    clean = server.drain(timeout=args.drain_timeout)
    return 0 if clean else 1


def _cmd_chaos(args) -> int:
    if args.mode == "overload":
        from repro.serve.chaos import OverloadConfig, run_overload

        report = run_overload(OverloadConfig(
            seed=args.seed,
            duration_seconds=args.duration,
            critical_budget_seconds=args.critical_budget,
            report_path=args.report,
        ))
        print(report.render())
        return 0 if report.ok else 1

    from repro.serve.chaos import ChaosConfig, run_chaos

    config = ChaosConfig(
        seed=args.seed,
        processes=args.processes,
        duration_seconds=args.duration,
        clients=args.clients,
        kill_every_seconds=args.kill_every,
        mischief_every_seconds=args.mischief_every,
        state_dir=args.state_dir,
        report_path=args.report,
    )
    report = run_chaos(config)
    print(report.render())
    return 0 if report.ok else 1


def _submit_system(spec: str):
    """A ``repro submit`` system argument as the request's system field.

    A readable local file is read and inlined (self-contained request);
    anything else passes through as a suite name or server-local path.
    """
    if Path(spec).is_file():
        return bundle_to_payload(load_system(spec))
    return spec


def _submit_client(args):
    from repro.serve.client import RetryPolicy, ServeClient

    retries = getattr(args, "retries", 0)
    retry = RetryPolicy(retries=retries) if retries else None
    return ServeClient(
        args.server,
        timeout=args.timeout,
        retry=retry,
        criticality=getattr(args, "criticality", None),
        client_id=getattr(args, "client_id", None),
    )


def _cmd_submit_analyze(args) -> int:
    client = _submit_client(args)
    params = {
        "granularity": args.granularity,
        "policy": args.policy,
        "method": args.method,
        "backend": args.backend,
    }
    if args.dropped:
        params["dropped"] = args.dropped
    if args.deadline is not None:
        params["deadline_seconds"] = args.deadline
    result = client.analyze(_submit_system(args.system), **params)
    return _print_analysis(result, args.method)


def _cmd_submit_simulate(args) -> int:
    client = _submit_client(args)
    params = {
        "profiles": args.profiles,
        "seed": args.seed,
        "policy": args.policy,
        "max_faults": args.max_faults,
        "worst_bias": args.worst_bias,
    }
    if args.dropped:
        params["dropped"] = args.dropped
    if args.deadline is not None:
        params["deadline_seconds"] = args.deadline
    result = client.simulate(_submit_system(args.system), **params)
    return _print_simulation(result)


def _cmd_submit_explore(args) -> int:
    client = _submit_client(args)
    stub = client.explore(
        _submit_system(args.system),
        generations=args.generations,
        population=args.population,
        seed=args.seed,
        workers=args.workers,
        checkpoint_every=args.checkpoint_every,
        islands=args.islands,
        migration_every=args.migration_every,
        migrants=args.migrants,
        topology=args.topology,
        backend=args.backend,
        deadline_seconds=args.deadline,
    )
    print(f"job accepted: {stub['id']}")
    if not args.wait:
        print(f"poll with: python -m repro submit job {stub['id']}")
        return 0
    record = client.wait_job(stub["id"], timeout=args.timeout)
    print(f"job {record['id']}: {record['status']}")
    if record.get("error"):
        print(f"error: {record['error']}", file=sys.stderr)
    result = record.get("result")
    if result:
        print(f"generations run: {result['generations_run']}")
        print(f"Pareto front ({len(result['pareto'])} points):")
        for point in result["pareto"]:
            label = (
                "{" + ", ".join(point["dropped"]) + "}"
                if point["dropped"]
                else "{}"
            )
            print(
                f"{point['power']:10.3f} | {point['service']:8.1f} | {label}"
            )
    return 0 if record["status"] == "done" else 1


def _cmd_submit_job(args) -> int:
    client = _submit_client(args)
    record = client.job(args.job_id)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _cmd_submit_cancel(args) -> int:
    client = _submit_client(args)
    record = client.cancel(args.job_id)
    print(f"job {record['id']}: {record['status']} "
          f"(cancel_requested={record['cancel_requested']})")
    return 0


def _cmd_trace_summarize(args) -> int:
    from repro.obs.export import format_summary, read_spans, summarize

    spans = read_spans(args.trace_file)
    if not spans:
        print(f"no spans in {args.trace_file}", file=sys.stderr)
        return 1
    print(format_summary(summarize(spans), top=args.top))
    return 0


def _cmd_trace_chrome(args) -> int:
    from repro.obs.export import read_spans, write_chrome_trace

    spans = read_spans(args.trace_file)
    if not spans:
        print(f"no spans in {args.trace_file}", file=sys.stderr)
        return 1
    write_chrome_trace(spans, args.out)
    print(
        f"wrote {len(spans)} span(s) to {args.out} "
        "(load in Perfetto or chrome://tracing)"
    )
    return 0


def observability_options() -> argparse.ArgumentParser:
    """Parent parser carrying the shared observability flags."""
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("observability")
    group.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="warning",
        help="repro.* logger verbosity (stderr)",
    )
    group.add_argument(
        "--progress",
        action="store_true",
        help="print per-generation progress lines to stderr",
    )
    group.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the metrics registry (plus per-generation records) "
        "as JSON when the command finishes",
    )
    group.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write every telemetry event and span as a JSON line to "
        "PATH (inspect with `repro trace summarize`)",
    )
    return common


_MAPPED_SYSTEM_HELP = "system JSON path or suite name (must carry a mapping)"


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Fault-tolerant mixed-criticality MPSoC mapping toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    obs = [observability_options()]

    analyze = sub.add_parser(
        "analyze", help="WCRT analysis of a mapped system", parents=obs
    )
    analyze.add_argument("system", help=_MAPPED_SYSTEM_HELP)
    analyze.add_argument("--plan", help="hardening plan JSON")
    analyze.add_argument("--dropped", help="comma-separated dropped applications")
    analyze.add_argument(
        "--method", choices=("proposed", "naive", "adhoc"), default="proposed"
    )
    analyze.add_argument("--granularity", choices=("job", "task"), default="job")
    analyze.add_argument(
        "--policy", choices=("fp", "edf"), default="fp",
        help="per-processor scheduling policy",
    )
    analyze.add_argument(
        "--backend", choices=SCHED_BACKENDS, default=DEFAULT_BACKEND,
        help="schedulability back-end for the proposed analysis",
    )
    _add_comm_flags(analyze)
    analyze.set_defaults(handler=_cmd_analyze)

    simulate = sub.add_parser(
        "simulate", help="Monte-Carlo simulation campaign", parents=obs
    )
    simulate.add_argument("system", help=_MAPPED_SYSTEM_HELP)
    simulate.add_argument("--plan", help="hardening plan JSON")
    simulate.add_argument("--dropped", help="comma-separated dropped applications")
    simulate.add_argument("--profiles", type=int, default=500)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--max-faults", type=int, default=3)
    simulate.add_argument("--worst-bias", type=float, default=0.5)
    simulate.add_argument(
        "--policy", choices=("fp", "edf"), default="fp",
        help="per-processor scheduling policy",
    )
    _add_comm_flags(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    explore = sub.add_parser(
        "explore", help="design-space exploration", parents=obs
    )
    explore.add_argument("system", help="system JSON path or suite name")
    explore.add_argument("--generations", type=int, default=25)
    explore.add_argument("--population", type=int, default=32)
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument("--out", help="write Pareto designs to this JSON file")
    explore.add_argument(
        "--backend", choices=SCHED_BACKENDS, default=DEFAULT_BACKEND,
        help="schedulability back-end driving the evaluator",
    )
    explore.add_argument(
        "--workers", type=int, default=1,
        help="thread-pool size for candidate evaluation (1 = serial)",
    )
    explore.add_argument(
        "--checkpoint-dir",
        help="directory for crash-safe run snapshots (enables checkpointing)",
    )
    explore.add_argument(
        "--checkpoint-every", type=int, default=10,
        help="snapshot every N generations (with --checkpoint-dir)",
    )
    explore.add_argument(
        "--resume", action="store_true",
        help="restart from the latest valid snapshot in --checkpoint-dir",
    )
    explore.add_argument(
        "--quarantine",
        help="JSONL file collecting poison design points "
        "(default: <checkpoint-dir>/quarantine.jsonl when checkpointing)",
    )
    explore.add_argument(
        "--eval-retries", type=int, default=1,
        help="extra evaluation attempts after a raising backend",
    )
    explore.add_argument(
        "--eval-budget", type=float, default=None,
        help="per-evaluation wall-clock soft budget in seconds",
    )
    explore.add_argument(
        "--islands", type=int, default=1,
        help="island-model shards evolving in parallel (1 = plain GA)",
    )
    explore.add_argument(
        "--migration-every", type=int, default=10,
        help="generations between archive-migrant exchanges",
    )
    explore.add_argument(
        "--migrants", type=int, default=2,
        help="archive members each island donates per exchange",
    )
    explore.add_argument(
        "--topology", choices=("ring", "all", "none"), default="ring",
        help="island migration topology",
    )
    explore.add_argument(
        "--execution", choices=("process", "inline"), default=None,
        help="island execution mode (default: worker processes)",
    )
    explore.add_argument(
        "--fleet",
        help="serve base URL; fan island epochs out as durable jobs",
    )
    explore.set_defaults(handler=_cmd_explore)

    verify = sub.add_parser(
        "verify",
        help="adversarial soundness campaign against a system",
        parents=obs,
    )
    verify.add_argument(
        "system", nargs="?",
        help="system JSON or suite name (optional with --replay)",
    )
    verify.add_argument("--budget", type=int, default=200,
                        help="fault-injection scenarios to run")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--granularity", choices=("job", "task"), default="job")
    verify.add_argument(
        "--policy", choices=("fp", "edf"), default="fp",
        help="per-processor scheduling policy",
    )
    verify.add_argument("--max-faults", type=int, default=3,
                        help="faults per random profile")
    verify.add_argument(
        "--corpus", metavar="DIR",
        help="write shrunken reproducer JSON files into this directory",
    )
    verify.add_argument(
        "--replay", metavar="DIR",
        help="replay an existing corpus instead of running a campaign "
        "(exit 1 while any reproducer still fires)",
    )
    verify.add_argument("--out", help="write the report JSON to this file")
    verify.add_argument("--no-shrink", action="store_true",
                        help="skip counterexample minimization")
    _add_comm_flags(verify)
    verify.add_argument("--no-metamorphic", action="store_true",
                        help="skip the metamorphic mutation properties")
    verify.set_defaults(handler=_cmd_verify)

    margins = sub.add_parser(
        "margins",
        help="deadline and WCET-scaling sensitivity of a design",
        parents=obs,
    )
    margins.add_argument("system", help=_MAPPED_SYSTEM_HELP)
    margins.add_argument("--plan", help="hardening plan JSON")
    margins.add_argument("--dropped", help="comma-separated dropped applications")
    margins.add_argument("--tolerance", type=float, default=0.05)
    margins.set_defaults(handler=_cmd_margins)

    export = sub.add_parser(
        "export", help="write a built-in benchmark to JSON", parents=obs
    )
    export.add_argument("benchmark", choices=benchmark_names())
    export.add_argument("out")
    export.add_argument(
        "--with-reference-mapping",
        action="store_true",
        help="cruise only: apply the reference plan and sample mapping 1",
    )
    export.set_defaults(handler=_cmd_export)

    generate = sub.add_parser(
        "generate", help="write a random system to JSON", parents=obs
    )
    generate.add_argument("out")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--critical", type=int, default=2)
    generate.add_argument("--droppable", type=int, default=2)
    generate.add_argument("--processors", type=int, default=4)
    generate.set_defaults(handler=_cmd_generate)

    serve = sub.add_parser(
        "serve",
        help="run the JSON-over-HTTP analysis/exploration service",
        parents=obs,
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8352, help="0 picks a free port"
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="analysis/simulation worker threads",
    )
    serve.add_argument(
        "--queue-size", type=int, default=64,
        help="admission queue bound (full queue answers 429)",
    )
    serve.add_argument(
        "--state-dir",
        help="durable job directory (enables /v1/explore and "
        "resume-on-restart)",
    )
    serve.add_argument(
        "--job-workers", type=int, default=1,
        help="threads running exploration jobs",
    )
    serve.add_argument(
        "--cache-size", type=int, default=None,
        help="capacity of the process-wide schedule cache",
    )
    serve.add_argument(
        "--allow-local-paths", action="store_true",
        help="let a request's system field name a server-local file "
        "(off by default: any client could read arbitrary paths)",
    )
    serve.add_argument(
        "--processes", type=int, default=1,
        help="worker processes; >1 runs a pre-fork SO_REUSEPORT "
        "supervisor with crash-restart and graceful fleet drain",
    )
    serve.add_argument(
        "--cache-dir",
        help="disk tier of the schedule cache, shared across worker "
        "processes and restarts (default: <state-dir>/cache)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds granted to finish/park in-flight work on "
        "SIGTERM/SIGINT before hard shutdown",
    )
    serve.add_argument(
        "--reuse-port", action="store_true",
        help="bind with SO_REUSEPORT so multiple server processes can "
        "share the port",
    )
    serve.add_argument(
        "--status-file",
        help="supervisor status JSON path "
        "(default: <state-dir>/supervisor.json)",
    )
    serve.add_argument(
        "--quota-rps", type=float, default=None,
        help="per-client token-bucket rate in requests/second "
        "(keyed on X-Repro-Client; default: no quotas)",
    )
    serve.add_argument(
        "--quota-burst", type=float, default=None,
        help="token-bucket burst capacity (default: 2x the rate)",
    )
    serve.add_argument(
        "--brownout", action="store_true",
        help="enable the brownout controller: shed best-effort, then "
        "degrade standard analyze when the queue delay grows",
    )
    serve.add_argument(
        "--brownout-enter", type=float, default=0.75,
        help="estimated queue delay (s) that enters brownout stage 1",
    )
    serve.add_argument(
        "--brownout-exit", type=float, default=0.25,
        help="delay (s) the system must stay under to recover a stage",
    )
    serve.add_argument(
        "--brownout-dwell", type=float, default=2.0,
        help="seconds the delay must stay under the exit threshold "
        "before a stage clears (hysteresis)",
    )
    serve.add_argument(
        "--aging-floor", type=float, default=5.0,
        help="seconds after which a queued request outranks younger "
        "higher-priority work (anti-starvation)",
    )
    serve.add_argument(
        "--_worker-id", dest="_worker_id", type=int, default=None,
        help=argparse.SUPPRESS,
    )
    serve.add_argument(
        "--_status-file", dest="_status_file", default=None,
        help=argparse.SUPPRESS,
    )
    serve.set_defaults(handler=_cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection campaign against a supervised serve fleet",
        parents=obs,
    )
    chaos.add_argument(
        "--mode", choices=("faults", "overload"), default="faults",
        help="faults: worker kills + connection mischief; overload: 4x "
        "sustained load asserting the criticality rely-guarantee",
    )
    chaos.add_argument(
        "--critical-budget", type=float, default=10.0,
        help="overload mode: p99 latency budget (s) critical requests "
        "must keep under sustained overload",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--processes", type=int, default=2, help="fleet worker processes"
    )
    chaos.add_argument(
        "--duration", type=float, default=20.0,
        help="campaign duration in seconds",
    )
    chaos.add_argument(
        "--clients", type=int, default=4, help="concurrent client threads"
    )
    chaos.add_argument(
        "--kill-every", type=float, default=3.0,
        help="mean seconds between SIGKILLs of a random worker",
    )
    chaos.add_argument(
        "--mischief-every", type=float, default=0.5,
        help="mean seconds between connection-level faults (garbage "
        "bytes, half-close, RST, slow sends)",
    )
    chaos.add_argument(
        "--state-dir",
        help="durable state directory (default: a fresh temp dir)",
    )
    chaos.add_argument("--report", help="write the JSON report here")
    chaos.set_defaults(handler=_cmd_chaos)

    submit = sub.add_parser(
        "submit", help="send a request to a running repro serve instance"
    )
    submit_sub = submit.add_subparsers(dest="action", required=True)

    def submit_common(sp):
        sp.add_argument(
            "--server", default="http://127.0.0.1:8352",
            help="base URL of the repro serve instance",
        )
        sp.add_argument(
            "--timeout", type=float, default=600.0,
            help="client-side request/poll timeout in seconds",
        )
        sp.add_argument(
            "--retries", type=int, default=4,
            help="retry budget for 429/503/transport faults (0 disables)",
        )
        sp.add_argument(
            "--class", dest="criticality", default=None,
            choices=("critical", "standard", "best-effort"),
            help="criticality class sent as X-Repro-Class "
            "(server default: standard)",
        )
        sp.add_argument(
            "--client", dest="client_id", default=None,
            help="client id sent as X-Repro-Client (quota-bucket key)",
        )

    s_analyze = submit_sub.add_parser(
        "analyze", help="served WCRT analysis", parents=obs
    )
    s_analyze.add_argument("system", help="system JSON path or suite name")
    s_analyze.add_argument("--dropped", help="comma-separated dropped applications")
    s_analyze.add_argument(
        "--method", choices=("proposed", "naive", "adhoc"), default="proposed"
    )
    s_analyze.add_argument("--granularity", choices=("job", "task"), default="job")
    s_analyze.add_argument("--policy", choices=("fp", "edf"), default="fp")
    s_analyze.add_argument(
        "--backend", choices=SCHED_BACKENDS, default=DEFAULT_BACKEND
    )
    s_analyze.add_argument(
        "--deadline", type=float, default=None,
        help="server-side deadline in seconds (504 when exceeded queued)",
    )
    submit_common(s_analyze)
    s_analyze.set_defaults(handler=_cmd_submit_analyze)

    s_simulate = submit_sub.add_parser(
        "simulate", help="served Monte-Carlo campaign", parents=obs
    )
    s_simulate.add_argument("system", help="system JSON path or suite name")
    s_simulate.add_argument("--dropped", help="comma-separated dropped applications")
    s_simulate.add_argument("--profiles", type=int, default=500)
    s_simulate.add_argument("--seed", type=int, default=0)
    s_simulate.add_argument("--max-faults", type=int, default=3)
    s_simulate.add_argument("--worst-bias", type=float, default=0.5)
    s_simulate.add_argument("--policy", choices=("fp", "edf"), default="fp")
    s_simulate.add_argument(
        "--deadline", type=float, default=None,
        help="overall request budget in seconds (propagated as "
        "X-Repro-Deadline; 504 when exceeded)",
    )
    submit_common(s_simulate)
    s_simulate.set_defaults(handler=_cmd_submit_simulate)

    s_explore = submit_sub.add_parser(
        "explore", help="submit an async exploration job", parents=obs
    )
    s_explore.add_argument("system", help="system JSON path or suite name")
    s_explore.add_argument("--generations", type=int, default=25)
    s_explore.add_argument("--population", type=int, default=32)
    s_explore.add_argument("--seed", type=int, default=0)
    s_explore.add_argument("--workers", type=int, default=1)
    s_explore.add_argument("--checkpoint-every", type=int, default=2)
    s_explore.add_argument("--islands", type=int, default=1)
    s_explore.add_argument("--migration-every", type=int, default=10)
    s_explore.add_argument("--migrants", type=int, default=2)
    s_explore.add_argument(
        "--topology", choices=("ring", "all", "none"), default="ring"
    )
    s_explore.add_argument(
        "--backend", choices=SCHED_BACKENDS, default=DEFAULT_BACKEND
    )
    s_explore.add_argument(
        "--deadline", type=float, default=None,
        help="overall budget in seconds (becomes the job's cooperative "
        "deadline)",
    )
    s_explore.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes and print its front",
    )
    submit_common(s_explore)
    s_explore.set_defaults(handler=_cmd_submit_explore)

    s_job = submit_sub.add_parser(
        "job", help="print a job record", parents=obs
    )
    s_job.add_argument("job_id")
    submit_common(s_job)
    s_job.set_defaults(handler=_cmd_submit_job)

    s_cancel = submit_sub.add_parser(
        "cancel", help="request job cancellation", parents=obs
    )
    s_cancel.add_argument("job_id")
    submit_common(s_cancel)
    s_cancel.set_defaults(handler=_cmd_submit_cancel)

    trace = sub.add_parser(
        "trace", help="inspect a span trace written by --trace-out"
    )
    trace_sub = trace.add_subparsers(dest="action", required=True)
    t_summarize = trace_sub.add_parser(
        "summarize",
        help="per-phase self-time table and critical-path breakdown",
        parents=obs,
    )
    t_summarize.add_argument("trace_file", help="JSONL trace file")
    t_summarize.add_argument(
        "--top", type=int, default=20, help="phases to list"
    )
    t_summarize.set_defaults(handler=_cmd_trace_summarize)
    t_chrome = trace_sub.add_parser(
        "chrome",
        help="convert to Chrome trace-event JSON (Perfetto-loadable)",
        parents=obs,
    )
    t_chrome.add_argument("trace_file", help="JSONL trace file")
    t_chrome.add_argument("out", help="Chrome trace JSON output path")
    t_chrome.set_defaults(handler=_cmd_trace_chrome)

    return parser


#: Event kinds behind ``--metrics-out``'s lists and ``--progress``.
_GENERATION = "generation-complete"
_EARLY_STOP = "early-stop"


def _progress_line(record: dict) -> Optional[str]:
    """The ``--progress`` line for a generation or early-stop record."""
    kind = record.get("event")
    if kind not in (_GENERATION, _EARLY_STOP):
        return None
    fields = record["attrs"]
    best = (
        f"{fields['best_power']:.3f}"
        if fields["best_power"] is not None
        else "-"
    )
    if kind == _EARLY_STOP:
        return (
            f"[gen {fields['generation']:4d}] early stop after "
            f"{fields['stagnation']} stagnant generation(s), "
            f"best_power={best}"
        )
    return (
        f"[gen {fields['generation']:4d}] "
        f"archive={fields['archive_size']:3d} "
        f"feasible={fields['feasible_in_archive']:3d} best_power={best} "
        f"hv={fields['hypervolume']:.3f} "
        f"cache_hit_rate={fields['cache_hit_rate']:.2f} "
        f"({fields['wall_seconds'] * 1e3:.0f} ms)"
    )


def _print_progress(record: dict) -> None:
    """Tracer sink behind ``--progress``: one stderr line per generation."""
    line = _progress_line(record)
    if line is not None:
        sys.stderr.write(line + "\n")
        sys.stderr.flush()


def _write_metrics_report(args, records: List[dict]) -> None:
    """Assemble the ``--metrics-out`` JSON report."""

    def entries(kind: str) -> List[dict]:
        return [
            {"event": kind, **record["attrs"]}
            for record in records
            if record["event"] == kind
        ]

    metrics().write_json(
        args.metrics_out,
        extra={
            "command": args.command,
            "generations": entries(_GENERATION),
            "early_stop": entries(_EARLY_STOP),
        },
    )
    _LOG.info("wrote metrics report to %s", args.metrics_out)


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level)

    exporter = None
    if getattr(args, "trace_out", None):
        try:
            exporter = JsonlSpanExporter(args.trace_out)
        except OSError as error:
            print(f"error: cannot open trace file: {error}", file=sys.stderr)
            return 2
        # Spans and events share the one JSONL stream.
        tracer().enable(exporter)
    reported: List[dict] = []
    if args.metrics_out:
        # Per-command report: snapshot deltas, not process history.
        metrics().reset()

        def report(record: dict) -> None:
            if record.get("event") in (_GENERATION, _EARLY_STOP):
                reported.append(record)

        tracer().add_sink(report)
    if args.progress:
        tracer().add_sink(_print_progress)
    attached = exporter is not None or args.metrics_out or args.progress

    try:
        code = args.handler(args)
        # A reader that closed the pipe early surfaces here, not in the
        # interpreter's final flush.
        sys.stdout.flush()
        if args.metrics_out:
            try:
                _write_metrics_report(args, reported)
            except OSError as error:
                print(
                    f"error: cannot write metrics report: {error}",
                    file=sys.stderr,
                )
                return 2
        return code
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Stdout was closed early (``| head``): stop without a traceback,
        # with stdout on the null device so no later flush raises again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a piped-off process
    finally:
        if attached:
            tracer().reset()
        if exporter is not None:
            exporter.close()
