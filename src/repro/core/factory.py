"""A uniform way to build the three analysis methods.

The paper's evaluation compares three analyses — the proposed Algorithm 1
(:class:`~repro.core.analysis.MixedCriticalityAnalysis`), the ``Naive``
static baseline, and the ``Adhoc`` worst-trace simulation — but their
constructors drifted apart as options accumulated (granularity and
fast-path knobs only make sense for Algorithm 1, back-end selection only
for the analytical methods, and so on).  This module gives callers one
front door:

* :data:`AnalysisMethod` — the behavioural protocol every method
  satisfies: ``analyze(hardened, architecture, mapping, dropped) ->
  MCAnalysisResult``;
* :data:`SCHED_BACKENDS` — the one table of ``sched()`` back-end names,
  which every front door (CLI, HTTP, :class:`~repro.dse.ExploreRequest`)
  validates and canonicalizes against;
* :func:`make_backend` — ``sched()`` back-end by name;
* :func:`make_analysis` — analysis method by name, accepting the union
  of the options and routing each to the methods that understand it.

The CLI's ``--method``/``--backend`` flags and the :mod:`repro.api`
facade both go through :func:`make_analysis`.
"""

from typing import Iterable, Optional, Protocol, Union, runtime_checkable

from repro.comm import CommBackend
from repro.core.adhoc import AdhocAnalysis
from repro.core.analysis import MCAnalysisResult, MixedCriticalityAnalysis
from repro.core.fastpath import FastPathConfig
from repro.core.naive import NaiveAnalysis
from repro.errors import AnalysisError
from repro.hardening.transform import HardenedSystem
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.sched.wcrt import SchedBackend, WindowAnalysisBackend

__all__ = [
    "ANALYSIS_METHODS",
    "DEFAULT_BACKEND",
    "SCHED_BACKENDS",
    "AnalysisMethod",
    "backend_token",
    "make_analysis",
    "make_backend",
    "make_dse_evaluator",
]

#: Method names accepted by :func:`make_analysis`.
ANALYSIS_METHODS = ("proposed", "naive", "adhoc")

#: Every sched back-end spelling accepted anywhere, with the back-end it
#: names.  ``"fast"`` is the window back-end's first name: it stays an
#: input spelling, and exploration digests still write it (see
#: :data:`DSE_DEFAULT_TOKEN`).
SCHED_BACKENDS = {"window": "window", "fast": "window", "holistic": "holistic"}

#: The back-end an omitted name selects: Algorithm 1's window fixed point.
DEFAULT_BACKEND = "window"

#: What exploration digests (``ExploreRequest.canonical_options``,
#: persisted jobs) write for the default back-end.
DSE_DEFAULT_TOKEN = "fast"


def backend_token(
    name: Optional[str], default: Optional[str] = None
) -> Optional[str]:
    """The canonical token of a back-end spelling.

    ``default`` for the default back-end, however it is spelled
    (omitted, ``"window"`` or ``"fast"``); the back-end's name otherwise.
    Served analyze requests keep ``None`` as their default token and
    explorations keep :data:`DSE_DEFAULT_TOKEN`, so every spelling of
    one request digests identically.  Unknown names raise an
    :class:`AnalysisError` listing the table.
    """
    if name is None:
        return default
    if not isinstance(name, str) or name not in SCHED_BACKENDS:
        raise AnalysisError(
            f"unknown sched backend {name!r}; available: "
            f"{', '.join(SCHED_BACKENDS)}"
        )
    resolved = SCHED_BACKENDS[name]
    return default if resolved == DEFAULT_BACKEND else resolved


@runtime_checkable
class AnalysisMethod(Protocol):
    """What every analysis method exposes (duck-typed, checkable)."""

    def analyze(
        self,
        hardened: HardenedSystem,
        architecture: Architecture,
        mapping: Mapping,
        dropped: Iterable[str] = (),
    ) -> MCAnalysisResult:
        """Analyze a hardened, mapped system under a drop set."""
        ...  # pragma: no cover - protocol stub


def make_backend(name: str) -> SchedBackend:
    """Instantiate a ``sched()`` back-end by one of :data:`SCHED_BACKENDS`."""
    if backend_token(name) is None:
        return WindowAnalysisBackend()
    from repro.sched.holistic import HolisticAnalysisBackend

    return HolisticAnalysisBackend()


def make_analysis(
    method: str = "proposed",
    backend: Union[SchedBackend, str, None] = None,
    granularity: str = "job",
    comm: Union[CommBackend, str, None] = None,
    comm_arq: Optional[int] = None,
    comm_arq_timeout: Optional[float] = None,
    policy: str = "fp",
    zero_dropped_bcet: bool = False,
    fast_path: Optional[FastPathConfig] = None,
) -> AnalysisMethod:
    """Build an analysis method from the union of the options.

    Options that a method has no use for are ignored, mirroring how the
    CLI always carried the full flag set: ``naive`` runs one back-end
    pass (no granularity, no fast path), ``adhoc`` simulates a single
    trace (no back-end at all).

    ``backend`` accepts an instance or one of :data:`SCHED_BACKENDS`;
    ``comm`` accepts a model/backend instance or one of
    :data:`repro.comm.COMM_BACKENDS` (with optional ``comm_arq`` /
    ``comm_arq_timeout`` ARQ overrides — giving only the overrides
    applies them to whatever backend each analyzed architecture names);
    ``fast_path`` is a :class:`FastPathConfig`, or ``None`` for the cold
    path.
    """
    if method not in ANALYSIS_METHODS:
        raise AnalysisError(
            f"unknown analysis method {method!r}; available: {ANALYSIS_METHODS}"
        )
    if fast_path is not None and not isinstance(fast_path, FastPathConfig):
        raise AnalysisError(
            f"fast_path must be a FastPathConfig or None, got {fast_path!r}"
        )
    if isinstance(backend, str):
        backend = make_backend(backend)
    if isinstance(comm, str):
        from repro.comm import make_comm

        comm = make_comm(
            comm, arq_retries=comm_arq, arq_timeout=comm_arq_timeout
        )
    elif comm is None and (comm_arq is not None or comm_arq_timeout is not None):
        from repro.comm import make_comm

        comm = make_comm(
            None, arq_retries=comm_arq, arq_timeout=comm_arq_timeout
        )
    if method == "proposed":
        return MixedCriticalityAnalysis(
            backend=backend,
            granularity=granularity,
            comm=comm,
            zero_dropped_bcet=zero_dropped_bcet,
            policy=policy,
            fast_path=fast_path,
        )
    if method == "naive":
        return NaiveAnalysis(
            backend=backend,
            comm=comm,
            policy=policy,
        )
    return AdhocAnalysis(comm=comm, policy=policy)


def make_dse_evaluator(problem, backend: Optional[str] = None):
    """The GA's design-point evaluator for a named sched back-end.

    One validation path for CLI, HTTP, and the api facade: unknown names
    raise with the table listed, and every spelling of the default
    back-end builds the evaluator the Explorer would default to (task
    granularity, the DSE fast path, the problem's communication model).
    """
    from repro.core.evaluator import Evaluator

    if backend_token(backend) is None:
        return Evaluator(problem)
    return Evaluator(
        problem,
        analysis=make_analysis(
            backend=backend,
            granularity="task",
            comm=problem.comm_model(),
            fast_path=FastPathConfig.for_dse(),
        ),
    )
