"""The verification campaign runner.

One campaign = one system state + one seeded scenario budget, pushed
through every oracle:

1. analyze once with the configured (possibly adversarial) back-end;
2. simulate the generated scenario list, checking **sim-le-proposed**;
3. run the analysis-level lattice (**proposed-le-naive**,
   **adhoc-le-proposed**) and consistency (**fastpath-identical**,
   **warmstart-identical**) oracles;
4. run the metamorphic mutations;
5. shrink each violation to a minimal reproducer and write it into the
   corpus directory.

Everything is deterministic in ``(system, config.seed, config.budget)``:
two runs produce identical :class:`VerificationReport` content, which
the acceptance tests and CI assert literally.

Surfaced as :func:`repro.api.verify` and the ``repro verify`` CLI.
"""

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.analysis import MCAnalysisResult
from repro.core.problem import Problem
from repro.errors import ReproError
from repro.hardening.spec import HardeningPlan
from repro.model.serialization import SystemBundle
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import metrics
from repro.obs.trace import event
from repro.sched.wcrt import SchedBackend
from repro.sim.faults import FaultProfile
from repro.verify import metamorphic as meta_checks
from repro.verify.oracles import OracleRunner, SystemState, Violation
from repro.verify.reproducer import (
    REPRODUCER_SCHEMA,
    Reproducer,
    load_quarantine_reproducers,
)
from repro.verify.scenarios import Scenario, generate_scenarios
from repro.verify.shrink import ReproducePredicate, shrink_counterexample

_LOG = get_logger("verify")


@dataclass(frozen=True)
class CampaignConfig:
    """Tuning knobs of one verification campaign."""

    #: Fault-injection scenarios to run (directed first, random fill).
    budget: int = 200
    #: Drives scenario fill, mutation choice, and the default design.
    seed: int = 0
    granularity: str = "job"
    policy: str = "fp"
    #: Faults per random profile.
    max_faults: int = 3
    hyperperiods: int = 1
    #: Max scenarios for the exhaustive small-k enumeration.
    exhaustive_limit: int = 64
    #: Run the analysis-level lattice oracles.
    lattice: bool = True
    #: Run the fast-path / warm-start identity oracles.
    consistency: bool = True
    #: Run the metamorphic mutation properties.
    metamorphic: bool = True
    #: Mutation targets per metamorphic property.
    metamorphic_mutations: int = 2
    #: Shrink violations before writing reproducers.
    shrink: bool = True
    #: Oracle re-runs the shrinker may spend per violation.
    max_shrink_checks: int = 300
    #: Violations to shrink + persist (the rest are reported unshrunk).
    max_reproducers: int = 5
    #: Where reproducer JSON files go (``None``: keep them in memory).
    corpus_dir: Optional[Union[str, Path]] = None
    #: ``sched()`` back-end under test (``None``: the stock default).
    #: This is the fault-injection point for the harness's own tests.
    backend: Optional[SchedBackend] = None
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.budget < 1:
            raise ReproError(f"verify budget must be >= 1, got {self.budget}")
        if self.max_shrink_checks < 0:
            raise ReproError("max_shrink_checks must be >= 0")
        if self.metamorphic_mutations < 0:
            raise ReproError("metamorphic_mutations must be >= 0")


@dataclass
class VerificationReport:
    """Everything one campaign did, in deterministic JSON-ready form."""

    label: str
    seed: int
    budget: int
    granularity: str
    policy: str
    #: One entry per simulated scenario: the scenario's canonical dict
    #: plus its verdict (``ok`` or ``violation``).
    scenarios: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-oracle check/violation tallies.
    oracles: Dict[str, Dict[str, int]] = field(default_factory=dict)
    violations: List[Dict[str, Any]] = field(default_factory=list)
    #: Corpus paths of the written reproducers.
    reproducers: List[str] = field(default_factory=list)
    #: Accepted shrink steps across all shrunk violations.
    shrink_steps: int = 0
    #: Oracle re-runs the shrinker spent.
    shrink_checks: int = 0

    @property
    def ok(self) -> bool:
        """Whether the campaign observed zero violations."""
        return not self.violations

    @property
    def checks(self) -> int:
        """Total oracle checks."""
        return sum(entry["checks"] for entry in self.oracles.values())

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form — no wall-clock, bit-stable across runs."""
        return {
            "label": self.label,
            "seed": self.seed,
            "budget": self.budget,
            "granularity": self.granularity,
            "policy": self.policy,
            "ok": self.ok,
            "scenarios": self.scenarios,
            "oracles": self.oracles,
            "violations": self.violations,
            "reproducers": self.reproducers,
            "shrink_steps": self.shrink_steps,
            "shrink_checks": self.shrink_checks,
        }

    def write(self, path: Union[str, Path]) -> None:
        """Write the report as indented, key-sorted JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True)
        )


# ----------------------------------------------------------------------
# System-state resolution
# ----------------------------------------------------------------------

def state_from_bundle(bundle: SystemBundle, seed: int = 0) -> SystemState:
    """A concrete system state from a (possibly mapping-less) bundle.

    Bundles without a mapping (the built-in suite names) get a
    deterministic seeded design: the locality-first partition heuristic
    with uniform re-execution and every *second* droppable graph dropped
    — leaving both surviving droppables (for the drop-monotonicity
    mutations) and nontrivial critical-state transitions.
    """
    if bundle.mapping is not None:
        return SystemState(
            applications=bundle.applications,
            architecture=bundle.architecture,
            mapping=bundle.mapping,
            plan=bundle.plan or HardeningPlan(),
            dropped=(),
        )
    from repro.dse.chromosome import partition_chromosome

    problem = Problem(
        applications=bundle.applications, architecture=bundle.architecture
    )
    droppable = tuple(
        g.name for g in bundle.applications.droppable_graphs
    )
    design = partition_chromosome(
        problem, random.Random(seed), dropped=droppable[::2]
    ).decode(problem)
    return SystemState(
        applications=bundle.applications,
        architecture=bundle.architecture,
        mapping=design.mapping,
        plan=design.plan,
        dropped=tuple(sorted(design.dropped)),
    )


def scatter_state(state: SystemState) -> SystemState:
    """A copy of ``state`` remapped round-robin across all processors.

    The seeded default design is locality-first: whole graphs collapse
    onto one processor, so no channel ever crosses the fabric and the
    contention-aware comm backends degenerate to the flat reference.
    Comm verification wants the opposite — deterministic round-robin
    over the hardened task set maximises cross-processor channels, so
    arbitration, ARQ folding and message-loss scenarios are actually
    exercised.
    """
    hardened = state.hardened()
    processors = state.architecture.processor_names
    assignment = {}
    index = 0
    for graph in hardened.applications.graphs:
        for task in graph.tasks:
            assignment[task.name] = processors[index % len(processors)]
            index += 1
    from repro.model.mapping import Mapping

    return replace(state, mapping=Mapping(assignment))


# ----------------------------------------------------------------------
# Findings: a violation plus everything needed to re-check it
# ----------------------------------------------------------------------

@dataclass
class _Finding:
    violation: Violation
    state: SystemState
    profile: Optional[FaultProfile]
    recheck: ReproducePredicate


def _retag(violation: Violation, oracle: str) -> Violation:
    if violation.oracle == oracle:
        return violation
    return replace(violation, oracle=oracle)


def _scenario_recheck(
    runner: OracleRunner, scenario: Scenario, oracle: str
) -> ReproducePredicate:
    """Re-simulate (a possibly reduced profile of) the scenario."""

    def recheck(
        state: SystemState, profile: Optional[FaultProfile]
    ) -> Optional[Violation]:
        candidate = (
            scenario
            if profile is None
            else scenario.with_profile(profile, scenario.name)
        )
        for violation in runner.check_scenario(state, candidate):
            return _retag(violation, oracle)
        return None

    return recheck


def _oracle_recheck(
    check: Callable[[SystemState], List[Violation]], oracle: str
) -> ReproducePredicate:
    """Re-run a profile-free oracle and pick the matching violation."""

    def recheck(
        state: SystemState, profile: Optional[FaultProfile]
    ) -> Optional[Violation]:
        for violation in check(state):
            if violation.oracle == oracle:
                return violation
        return None

    return recheck


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------

def run_campaign(
    state: SystemState,
    config: Optional[CampaignConfig] = None,
    label: str = "system",
) -> VerificationReport:
    """Run one full verification campaign against ``state``."""
    config = config or CampaignConfig()
    registry = metrics()
    registry.counter("verify.campaigns").inc()
    runner = OracleRunner(
        backend=config.backend,
        granularity=config.granularity,
        policy=config.policy,
        tolerance=config.tolerance,
    )
    report = VerificationReport(
        label=label,
        seed=config.seed,
        budget=config.budget,
        granularity=config.granularity,
        policy=config.policy,
    )
    findings: List[_Finding] = []

    with registry.timer("verify.seconds").time():
        analysis = runner.analyze(state)
        _run_scenarios(runner, state, analysis, config, report, findings)
        if config.lattice:
            _run_profile_free(
                runner.check_lattice,
                ("proposed-le-naive", "adhoc-le-proposed"),
                runner,
                state,
                report,
                findings,
            )
            if _comm_active(state):
                _run_profile_free(
                    runner.check_comm,
                    ("flat-le-contended", "arq-monotone"),
                    runner,
                    state,
                    report,
                    findings,
                )
        if config.consistency:
            _run_profile_free(
                runner.check_consistency,
                ("fastpath-identical", "warmstart-identical"),
                runner,
                state,
                report,
                findings,
            )
        if config.metamorphic:
            _run_metamorphic(runner, state, analysis, config, report, findings)
        _shrink_and_persist(config, report, findings)

    registry.counter("verify.violations").inc(len(report.violations))
    event(
        "verify-complete",
        label=label,
        scenarios=len(report.scenarios),
        checks=report.checks,
        violations=len(report.violations),
        shrink_steps=report.shrink_steps,
        reproducers=len(report.reproducers),
    )
    _LOG.info(
        "campaign finished %s",
        kv(
            label=label,
            scenarios=len(report.scenarios),
            checks=report.checks,
            violations=len(report.violations),
        ),
    )
    return report


def _tally(report: VerificationReport, oracle: str, violations: int) -> None:
    entry = report.oracles.setdefault(oracle, {"checks": 0, "violations": 0})
    entry["checks"] += 1
    entry["violations"] += violations


def _record_violation(
    report: VerificationReport, violation: Violation
) -> None:
    report.violations.append(violation.to_dict())
    metrics().counter("verify.violations.found").inc()
    event(
        "verify-violation",
        oracle=violation.oracle,
        subject=violation.subject,
        expected=violation.expected,
        actual=violation.actual,
        scenario=(violation.scenario or {}).get("name"),
    )


def _comm_active(state: SystemState) -> bool:
    """Whether the state's fabric opted into contention or ARQ.

    Gates the comm oracles and message-loss scenarios so legacy systems
    (flat backend, no retransmission budget) keep byte-identical
    campaign reports.
    """
    interconnect = state.architecture.interconnect
    return interconnect.comm_backend != "flat" or interconnect.arq_retries > 0


def _run_scenarios(
    runner: OracleRunner,
    state: SystemState,
    analysis: MCAnalysisResult,
    config: CampaignConfig,
    report: VerificationReport,
    findings: List[_Finding],
) -> None:
    comm_active = _comm_active(state)
    scenarios = generate_scenarios(
        state.hardened(),
        analysis,
        budget=config.budget,
        seed=config.seed,
        max_faults=config.max_faults,
        exhaustive_limit=config.exhaustive_limit,
        hyperperiods=config.hyperperiods,
        mapping=state.mapping if comm_active else None,
        arq_retries=state.architecture.interconnect.arq_retries
        if comm_active
        else 0,
    )
    counter = metrics().counter("verify.scenarios")
    for scenario in scenarios:
        counter.inc()
        violations = runner.check_scenario(state, scenario, analysis)
        _tally(report, "sim-le-proposed", len(violations))
        entry = scenario.to_dict()
        entry["verdict"] = "violation" if violations else "ok"
        report.scenarios.append(entry)
        for violation in violations:
            _record_violation(report, violation)
            findings.append(
                _Finding(
                    violation=violation,
                    state=state,
                    profile=scenario.profile,
                    recheck=_scenario_recheck(
                        runner, scenario, violation.oracle
                    ),
                )
            )


def _run_profile_free(
    check: Callable[[SystemState], List[Violation]],
    oracles: Tuple[str, ...],
    runner: OracleRunner,
    state: SystemState,
    report: VerificationReport,
    findings: List[_Finding],
) -> None:
    violations = check(state)
    by_oracle: Dict[str, int] = {name: 0 for name in oracles}
    for violation in violations:
        by_oracle[violation.oracle] = by_oracle.get(violation.oracle, 0) + 1
        _record_violation(report, violation)
        findings.append(
            _Finding(
                violation=violation,
                state=state,
                profile=None,
                recheck=_oracle_recheck(check, violation.oracle),
            )
        )
    for name in oracles:
        _tally(report, name, by_oracle.get(name, 0))


def _run_metamorphic(
    runner: OracleRunner,
    state: SystemState,
    analysis: MCAnalysisResult,
    config: CampaignConfig,
    report: VerificationReport,
    findings: List[_Finding],
) -> None:
    rng = random.Random(config.seed ^ 0x5EED)
    wcet_tasks, drop_graphs, harden_tasks = meta_checks.metamorphic_targets(
        state, rng, config.metamorphic_mutations
    )
    for task in wcet_tasks:
        check = _bind(meta_checks.check_wcet_monotonicity, runner, task)
        _apply_metamorphic(
            check, "metamorphic-wcet-monotone", state, report, findings
        )
    for graph in drop_graphs:
        check = _bind(meta_checks.check_drop_monotonicity, runner, graph)
        _apply_metamorphic(
            check, "metamorphic-drop-monotone", state, report, findings
        )
    for task in harden_tasks:
        check = _bind(meta_checks.check_harden_soundness, runner, task)
        _apply_metamorphic(
            check, "metamorphic-harden-sound", state, report, findings
        )


def _bind(
    check_fn, runner: OracleRunner, target: str
) -> Callable[[SystemState], List[Violation]]:
    def check(state: SystemState) -> List[Violation]:
        return check_fn(runner, state, target)

    return check


def _apply_metamorphic(
    check: Callable[[SystemState], List[Violation]],
    oracle: str,
    state: SystemState,
    report: VerificationReport,
    findings: List[_Finding],
) -> None:
    violations = check(state)
    _tally(report, oracle, len(violations))
    for violation in violations:
        _record_violation(report, violation)
        findings.append(
            _Finding(
                violation=violation,
                state=state,
                profile=None,
                recheck=_oracle_recheck(check, oracle),
            )
        )


def _shrink_and_persist(
    config: CampaignConfig,
    report: VerificationReport,
    findings: List[_Finding],
) -> None:
    registry = metrics()
    for finding in findings[: config.max_reproducers]:
        state, profile, violation = (
            finding.state,
            finding.profile,
            finding.violation,
        )
        steps = 0
        if config.shrink and config.max_shrink_checks > 0:
            result = shrink_counterexample(
                state,
                profile,
                violation,
                finding.recheck,
                max_checks=config.max_shrink_checks,
            )
            state, profile, violation = (
                result.state,
                result.profile,
                result.violation,
            )
            steps = result.steps
            report.shrink_steps += result.steps
            report.shrink_checks += result.checks
            registry.counter("verify.shrink.steps").inc(result.steps)
            registry.counter("verify.shrink.checks").inc(result.checks)
        reproducer = Reproducer.from_violation(
            violation,
            state,
            policy=config.policy,
            granularity=config.granularity,
            tolerance=config.tolerance,
            shrink_steps=steps,
            meta={"seed": config.seed, "label": report.label},
        )
        if config.corpus_dir is not None:
            path = reproducer.save(config.corpus_dir)
            report.reproducers.append(str(path))
            registry.counter("verify.reproducers").inc()
            _LOG.warning(
                "reproducer written %s",
                kv(oracle=violation.oracle, path=str(path)),
            )


# ----------------------------------------------------------------------
# Corpus replay
# ----------------------------------------------------------------------

@dataclass
class ReplayReport:
    """Outcome of replaying a corpus directory."""

    #: One entry per replayed reproducer.
    entries: List[Dict[str, Any]] = field(default_factory=list)
    #: Files that were skipped (wrong schema, unreadable).
    skipped: List[str] = field(default_factory=list)

    @property
    def still_reproducing(self) -> int:
        """Reproducers whose violation still fires."""
        return sum(1 for e in self.entries if e["reproduced"])

    @property
    def ok(self) -> bool:
        """Whether every replayed violation is gone (bug fixed)."""
        return self.still_reproducing == 0

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form."""
        return {
            "ok": self.ok,
            "still_reproducing": self.still_reproducing,
            "entries": self.entries,
            "skipped": self.skipped,
        }


def replay_corpus(corpus_dir: Union[str, Path]) -> ReplayReport:
    """Replay every reproducer (and quarantine log) under a directory.

    ``*.json`` files carrying the reproducer schema are replayed
    directly; ``*.jsonl`` files are treated as PR-2 quarantine logs and
    replayed through the quarantine adapter.  Anything else lands in
    ``skipped``.
    """
    directory = Path(corpus_dir)
    if not directory.exists():
        raise ReproError(f"corpus directory {directory} does not exist")
    report = ReplayReport()
    for path in sorted(directory.rglob("*.json")):
        try:
            reproducer = Reproducer.load(path)
        except (ReproError, KeyError, ValueError, OSError):
            report.skipped.append(str(path))
            continue
        _replay_one(report, reproducer, str(path))
    for path in sorted(directory.rglob("*.jsonl")):
        try:
            reproducers = load_quarantine_reproducers(path)
        except (ValueError, OSError):
            report.skipped.append(str(path))
            continue
        if not reproducers:
            report.skipped.append(str(path))
            continue
        for index, reproducer in enumerate(reproducers):
            _replay_one(report, reproducer, f"{path}#{index}")
    metrics().counter("verify.replays").inc(len(report.entries))
    return report


def _replay_one(
    report: ReplayReport, reproducer: Reproducer, source: str
) -> None:
    try:
        outcome = reproducer.replay()
    except Exception as error:  # noqa: BLE001 — a broken record is a finding
        report.entries.append(
            {
                "source": source,
                "kind": reproducer.kind,
                "oracle": reproducer.oracle,
                "subject": reproducer.subject,
                "reproduced": True,
                "deterministic": False,
                "detail": f"replay raised {type(error).__name__}: {error}",
            }
        )
        return
    report.entries.append(
        {
            "source": source,
            "kind": reproducer.kind,
            "oracle": reproducer.oracle,
            "subject": reproducer.subject,
            "reproduced": outcome.reproduced,
            "deterministic": outcome.deterministic,
            "detail": outcome.detail,
        }
    )


# Re-exported for corpus tooling convenience.
__all__ = [
    "CampaignConfig",
    "REPRODUCER_SCHEMA",
    "ReplayReport",
    "VerificationReport",
    "replay_corpus",
    "run_campaign",
    "scatter_state",
    "state_from_bundle",
]
