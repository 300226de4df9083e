"""The one typed description of an exploration run.

Every entry point — CLI flags, HTTP job payloads, the :mod:`repro.api`
facade, experiments — folds its inputs into an :class:`ExploreRequest`:
a system reference (bundle, suite name, path, or inline payload), an
:class:`~repro.dse.ga.ExplorerConfig` built through
``ExplorerConfig.from_options``, an :class:`IslandTopology`, and the
schedulability backend driving the evaluator.  Because the request is a
plain frozen value, "do these two invocations run the same computation?"
reduces to comparing two dataclasses (or their canonical JSON forms, see
:mod:`repro.serve.encoding`).
"""

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.factory import DSE_DEFAULT_TOKEN, backend_token
from repro.dse.ga import ExplorerConfig
from repro.errors import ExplorationError

__all__ = ["TOPOLOGY_KINDS", "IslandTopology", "ExploreRequest"]

#: Migration graph shapes: a directed ring (each island receives from its
#: predecessor), all-to-all, or fully independent islands.
TOPOLOGY_KINDS = ("ring", "all", "none")


@dataclass(frozen=True)
class IslandTopology:
    """How the population is sharded and how migrants flow.

    ``islands == 1`` degenerates to the plain single-process Explorer.
    ``migration_every`` is the barrier period in generations: at every
    multiple of it (strictly inside the run), each island's
    ``migrants`` best archive members — by SPEA2 fitness, ties broken by
    archive position — are injected into the populations of the islands
    it feeds per ``kind``.
    """

    islands: int = 1
    migration_every: int = 10
    migrants: int = 2
    kind: str = "ring"

    def __post_init__(self):
        if self.islands < 1:
            raise ExplorationError("islands must be >= 1")
        if self.migration_every < 1:
            raise ExplorationError("migration_every must be >= 1")
        if self.migrants < 0:
            raise ExplorationError("migrants must be >= 0")
        if self.kind not in TOPOLOGY_KINDS:
            raise ExplorationError(
                f"unknown topology {self.kind!r}; "
                f"available: {', '.join(TOPOLOGY_KINDS)}"
            )

    @property
    def migrates(self) -> bool:
        """Whether any migration can ever happen under this topology."""
        return self.islands > 1 and self.kind != "none" and self.migrants > 0

    def normalized(self) -> "IslandTopology":
        """Canonical form: all non-migrating spellings coalesce.

        A single island with a ring, or four islands with ``migrants=0``,
        run the exact same computation as the ``none`` topology — the
        canonical form maps them all to one value so the serve dedup
        layer shares their results.
        """
        if not self.migrates:
            return IslandTopology(
                islands=self.islands, migration_every=1, migrants=0,
                kind="none",
            )
        return self

    def sources(self, island: int) -> Tuple[int, ...]:
        """Islands donating migrants *into* ``island``."""
        if not self.migrates:
            return ()
        if self.kind == "ring":
            return ((island - 1) % self.islands,)
        return tuple(j for j in range(self.islands) if j != island)


@dataclass(frozen=True)
class ExploreRequest:
    """A complete, entry-point-independent exploration request."""

    system: Any  #: SystemBundle, suite name, path, or inline payload dict
    config: ExplorerConfig
    topology: IslandTopology = field(default_factory=IslandTopology)
    #: Sched back-end, any spelling of :data:`repro.core.SCHED_BACKENDS`
    #: (``None`` is the default); stored as its exploration token.
    backend: Optional[str] = None

    def __post_init__(self):
        token = backend_token(self.backend, DSE_DEFAULT_TOKEN)
        object.__setattr__(self, "backend", token)

    @classmethod
    def from_options(
        cls,
        system: Any,
        *,
        backend: Optional[str] = None,
        islands: int = 1,
        migration_every: int = 10,
        migrants: int = 2,
        topology: str = "ring",
        **options: Any,
    ) -> "ExploreRequest":
        """Build a request the way every entry point does.

        ``options`` are forwarded verbatim to
        :meth:`ExplorerConfig.from_options` — the single config
        construction path — so CLI flags, HTTP payload fields and
        Python callers land on identical configs.
        The topology is stored :meth:`~IslandTopology.normalized`, so
        every non-migrating spelling builds the same request object.
        """
        return cls(
            system=system,
            config=ExplorerConfig.from_options(**options),
            topology=IslandTopology(
                islands=islands,
                migration_every=migration_every,
                migrants=migrants,
                kind=topology,
            ).normalized(),
            backend=backend,
        )

    def canonical_options(self) -> Dict[str, Any]:
        """The request's semantics minus the system, in canonical form.

        Equivalent spellings (every spelling of the default back-end, one
        island with any migration settings vs an explicit ``none`` topology)
        produce equal dicts; the serve layer composes this with the
        inlined system payload to form the dedup digest.  Keys follow
        the ``/v1/explore`` wire schema (``population`` carries the
        population size; the offspring/archive sizes ride as explicit
        overrides), so the dict doubles as the HTTP request body of the
        equivalent submission.
        """
        cfg = self.config
        topo = self.topology.normalized()
        return {
            "population": cfg.population_size,
            "offspring_size": cfg.offspring_size,
            "archive_size": cfg.archive_size,
            "generations": cfg.generations,
            "seed": cfg.seed,
            "workers": cfg.workers,
            "checkpoint_every": cfg.checkpoint_every,
            "eval_retries": cfg.eval_retries,
            "eval_budget": cfg.eval_soft_budget_seconds,
            "islands": topo.islands,
            "migration_every": topo.migration_every,
            "migrants": topo.migrants,
            "topology": topo.kind,
            "backend": self.backend,
        }
