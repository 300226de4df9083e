"""Comm configuration must participate in job-set fingerprints.

The :class:`~repro.sched.cache.ScheduleCache` keys on
``JobSet.fingerprint()``; if two systems differing only in their comm
backend collided, a cached contended schedule could answer a flat query
(or vice versa).
"""

import hashlib
import random

from repro.benchgen.tgff import comm_dominated_problem
from repro.comm import make_comm
from repro.comm.base import channel_sites
from repro.dse.chromosome import heuristic_chromosome
from repro.hardening.transform import harden
from repro.model.mapping import Mapping
from repro.sched.jobs import unroll


def _cross_mapping(apps):
    names = sorted(apps.all_task_names)
    return Mapping(
        {name: f"pe{i % 2}" for i, name in enumerate(names)}
    )


class TestFingerprint:
    def test_flat_backend_keeps_the_legacy_fingerprint(self, apps, architecture):
        mapping = _cross_mapping(apps)
        legacy = unroll(apps, mapping, architecture)
        explicit = unroll(
            apps, mapping, architecture, comm=make_comm("flat")
        )
        assert explicit.comm_token == ""
        assert explicit.fingerprint() == legacy.fingerprint()

    def test_backend_only_difference_changes_the_fingerprint(
        self, apps, architecture
    ):
        mapping = _cross_mapping(apps)
        fingerprints = {
            name: unroll(
                apps, mapping, architecture, comm=make_comm(name)
            ).fingerprint()
            for name in ("flat", "shared-bus", "tdma", "noc-xy")
        }
        assert len(set(fingerprints.values())) == 4

    def test_arq_budget_changes_the_fingerprint(self, apps, architecture):
        mapping = _cross_mapping(apps)
        one = unroll(
            apps, mapping, architecture, comm=make_comm("flat", arq_retries=1)
        )
        two = unroll(
            apps, mapping, architecture, comm=make_comm("flat", arq_retries=2)
        )
        assert one.comm_token != ""
        assert one.fingerprint() != two.fingerprint()

    def test_token_survives_with_bounds_clone(self, apps, architecture):
        mapping = _cross_mapping(apps)
        jobset = unroll(
            apps, mapping, architecture, comm=make_comm("tdma")
        )
        clone = jobset.with_bounds({("a", 0): (0.0, 9.0)})
        assert clone.comm_token == jobset.comm_token


def _pinned_design():
    """``comm_dominated_problem`` under a fixed round-robin design."""
    problem = comm_dominated_problem()
    design = heuristic_chromosome(problem, random.Random(1)).decode(problem)
    hardened = harden(problem.applications, design.plan).applications
    return hardened, design.mapping, problem.architecture


class TestSharedBusPins:
    """Literal shared-bus outputs: disk ScheduleCache keys stay valid."""

    def test_worst_table_digest(self):
        hardened, mapping, architecture = _pinned_design()
        bound = make_comm("shared-bus", arq_retries=0).bind(
            hardened, mapping, architecture
        )
        sites = channel_sites(hardened, mapping, architecture)
        assert len(sites) == 35
        text = ";".join(
            f"{site.src}>{site.dst}="
            f"{bound.attempt_worst(site.src, site.dst, site.size).hex()}"
            for site in sorted(sites, key=lambda site: site.key)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9c519baa7671bbee56e2322f3338acea827ce25f0e05239d80c4c194e447489b"
        )

    def test_unrolled_fingerprints(self):
        hardened, mapping, architecture = _pinned_design()
        pinned = {
            (0, 0.0): (
                "c9e903bb9067db72a64e0b4fe0b0f192"
                "38efcd4b3704ea49bf16f4802ac79613"
            ),
            (2, 0.5): (
                "b7cfef16816553680bd9f6f1a203493c"
                "3e588d348948a9ad80477b63eb9449b3"
            ),
        }
        for (retries, timeout), fingerprint in pinned.items():
            comm = make_comm(
                "shared-bus", arq_retries=retries, arq_timeout=timeout
            )
            jobset = unroll(hardened, mapping, architecture, comm=comm)
            assert jobset.fingerprint() == fingerprint
