"""End-to-end smoke test of the comm subsystem (comm-smoke CI job).

Three contracts, all load-bearing for the comm backends:

1. **Flat byte-identity** — on every built-in suite, analyzing with the
   default comm model, an explicit ``flat`` backend, and a hand-built
   zero-ARQ :class:`FlatBound` produces byte-identical result digests.
   The ``flat`` backend *is* the paper's fabric; any drift is a bug.
2. **Seeded verify campaign** — a full verification campaign on the
   comm-dominated synthetic family (shared-bus fabric, ARQ budget,
   round-robin scatter mapping) reports zero violations of the extended
   lattice (``sim <= Proposed``, ``flat <= contended``, ARQ
   ``k``-monotonicity) and actually exercises message-loss scenarios.
3. **Backend-selection UX** — an unknown ``--comm-backend`` name fails
   with an error listing every registered backend, matching the
   ``--method`` behaviour.

Run from the repository root:

    PYTHONPATH=src python scripts/comm_smoke.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.benchgen.tgff import comm_dominated_problem  # noqa: E402
from repro.comm import COMM_BACKENDS, ArqPolicy, make_comm  # noqa: E402
from repro.comm.flat import FlatBound  # noqa: E402
from repro.core.factory import make_analysis  # noqa: E402
from repro.errors import AnalysisError  # noqa: E402
from repro.model.serialization import SystemBundle  # noqa: E402
from repro.suites import benchmark_names, get_benchmark  # noqa: E402
from repro.verify.campaign import (  # noqa: E402
    CampaignConfig,
    run_campaign,
    scatter_state,
    state_from_bundle,
)
from repro.verify.oracles import result_digest  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def digest(state, comm) -> str:
    analysis = make_analysis(comm=comm)
    result = analysis.analyze(
        state.hardened(), state.architecture, state.mapping, state.dropped
    )
    return json.dumps(result_digest(result), sort_keys=True)


def flat_identity_sweep() -> None:
    names = benchmark_names()
    check(len(names) >= 5, f"found {len(names)} built-in suites: {names}")
    for name in names:
        problem = get_benchmark(name).problem
        bundle = SystemBundle(
            applications=problem.applications,
            architecture=problem.architecture,
            mapping=None,
            plan=None,
        )
        state = state_from_bundle(bundle, seed=0)
        reference = digest(state, None)
        explicit = digest(state, "flat")
        built = FlatBound(state.architecture.interconnect, ArqPolicy())
        check(
            reference == explicit == digest(state, built),
            f"{name}: flat backend byte-identical to a hand-built flat model",
        )


def comm_dominated_campaign() -> None:
    problem = comm_dominated_problem()
    bundle = SystemBundle(
        applications=problem.applications,
        architecture=problem.architecture,
        mapping=None,
        plan=None,
    )
    state = scatter_state(state_from_bundle(bundle, seed=7))
    report = run_campaign(
        state, CampaignConfig(budget=120, seed=7), label="comm-dominated"
    )
    check(report.ok, "comm-dominated campaign reports zero violations")
    for oracle in ("flat-le-contended", "arq-monotone"):
        entry = report.oracles.get(oracle, {})
        check(
            entry.get("checks", 0) >= 1 and entry.get("violations", 1) == 0,
            f"extended lattice oracle {oracle} ran clean",
        )
    message_runs = sum(
        1 for s in report.scenarios if s["origin"] == "directed-message"
    )
    check(message_runs > 0, f"{message_runs} message-loss scenarios simulated")


def backend_error_ux() -> None:
    try:
        make_comm("token-ring")
    except AnalysisError as error:
        text = str(error)
        check(
            all(name in text for name in COMM_BACKENDS),
            f"unknown-backend error lists every backend: {text}",
        )
    else:
        check(False, "make_comm('token-ring') should have raised")

    from repro.cli import build_parser

    parser = build_parser()
    try:
        parser.parse_args(
            ["analyze", "--suite", "cruise", "--comm-backend", "token-ring"]
        )
    except SystemExit as exit_error:
        check(
            exit_error.code != 0,
            "--comm-backend rejects unknown names via argparse choices",
        )
    else:
        check(False, "--comm-backend should reject unknown names")


def main() -> None:
    flat_identity_sweep()
    comm_dominated_campaign()
    backend_error_ux()
    print("comm smoke: all checks passed")


if __name__ == "__main__":
    main()
