"""A registry of every reproducible artefact in this repository.

Maps experiment ids (listed by ``repro list``; see
``docs/architecture.md``) to declarative ``kind: artefact``
:class:`~repro.api.spec.ExperimentSpec` values plus the expected-artefact
locations, so tooling — the CLI (``repro spec show/dump``, ``repro
regen``), docs generators, CI's spec-roundtrip job — can enumerate,
serialize and run them uniformly.  An entry's generator is not stored
here: the spec's artefact kind resolves it through
:data:`repro.api.compile.ARTEFACTS`, the one kind → generator table, and
execution routes through the spec (``repro.api.run``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.api.compile import resolve_artefact
from repro.api.spec import ArtefactSpec, ExperimentSpec


@dataclass(frozen=True)
class Experiment:
    """One regenerable artefact: a named spec + where its output lives."""

    exp_id: str
    paper_artefact: str
    description: str
    bench: str
    #: The ``kind: artefact`` spec of the experiment with its generator's
    #: defaults; ``repro regen`` executes this through the spec API.
    spec: ExperimentSpec
    #: Committed rendering of the expected artefact (the golden text the
    #: bench harness regenerates), relative to the repo root.
    artefact_path: str = ""

    @property
    def regenerate(self) -> Callable[..., object]:
        """The generator behind the spec's artefact kind."""
        return resolve_artefact(self.spec.artefact.kind)


REGISTRY: dict[str, Experiment] = {}


def _register(exp_id: str, paper_artefact: str, description: str,
              bench: str, artefact_kind: str, artefact_file: str) -> None:
    spec = ExperimentSpec(name=exp_id, kind="artefact",
                          artefact=ArtefactSpec(kind=artefact_kind))
    REGISTRY[exp_id] = Experiment(
        exp_id, paper_artefact, description, bench, spec=spec,
        artefact_path=f"benchmarks/results/{artefact_file}.txt")


_register(
    "FIG2A", "Figure 2(a)",
    "total system load vs time (350 min, 30 req/h), with vs w/o "
    "coordination",
    "benchmarks/test_bench_fig2a.py",
    "fig2a", "fig2a")
_register(
    "FIG2B", "Figure 2(b)",
    "peak load vs arrival rate {4, 18, 30}/h, with vs w/o coordination",
    "benchmarks/test_bench_fig2b.py",
    "fig2b", "fig2b")
_register(
    "FIG2C", "Figure 2(c)",
    "average load with load-deviation bars vs arrival rate",
    "benchmarks/test_bench_fig2c.py",
    "fig2c", "fig2c")
_register(
    "HEADLINE", "abstract / §III text",
    "peak reduced up to 50%, variation up to 58%, average unchanged",
    "benchmarks/test_bench_headline.py",
    "headline", "headline")
_register(
    "FIG1", "Figure 1",
    "MiniCast Communication-Plane rounds every 2 s (latency, delivery, "
    "sync, energy)",
    "benchmarks/test_bench_cp_round.py",
    "cp-trace", "fig1-cp-trace")
_register(
    "ABL-CP-PERIOD", "design choice (2 s round period)",
    "CP-period sweep: admission latency vs load shape",
    "benchmarks/test_bench_ablation_cp_period.py",
    "abl-cp-period", "abl-cp-period")
_register(
    "ABL-LOSS", "robustness",
    "path-loss sweep across the flood-delivery cliff",
    "benchmarks/test_bench_ablation_loss.py",
    "abl-loss", "abl-loss")
_register(
    "ABL-SCALE", "scalability",
    "fleet-size sweep 10→60 devices at constant per-device rate",
    "benchmarks/test_bench_ablation_scale.py",
    "abl-scale", "abl-scale")
_register(
    "ABL-SLOTS", "sensitivity",
    "minDCD/maxDCP working-point sweep",
    "benchmarks/test_bench_ablation_slots.py",
    "abl-slots", "abl-slots")
_register(
    "ABL-VARIANTS", "design choice (placement mode)",
    "stagger vs grid placement; period vs strict deferral",
    "benchmarks/test_bench_ablation_variants.py",
    "abl-variants", "abl-variants")
_register(
    "NBHD-COORD", "beyond-paper: feeder-level coordination",
    "cross-home phase staggering vs independent homes: diversity-factor "
    "uplift across fleet mixes and sizes",
    "benchmarks/test_bench_neighborhood.py",
    "nbhd-coord", "nbhd-coord")
_register(
    "ABL-ST-VS-AT", "introduction's motivation",
    "ST vs AT stacks: energy, latency, request storms",
    "benchmarks/test_bench_st_vs_at.py",
    "abl-st-vs-at", "abl-st-vs-at")
_register(
    "ABL-SPOF", "introduction's motivation",
    "controller death vs one-DI death",
    "benchmarks/test_bench_ablation_variants.py",
    "abl-spof", "abl-spof")
_register(
    "GRID-10K", "beyond-paper: hierarchical multi-feeder grid",
    "10,000 homes on 20 feeders under one substation: two-tier "
    "coordination and the substation-level diversity uplift, "
    "profile-digest locked",
    "benchmarks/test_bench_grid.py",
    "grid-10k", "grid-10k")
_register(
    "NBHD-ONLINE", "beyond-paper: online per-epoch coordination",
    "500 homes re-negotiating phase offsets each CP epoch against "
    "forecast envelopes: oracle recovery of the hindsight ceiling and "
    "the noise-degradation sweep, profile-digest locked",
    "benchmarks/test_bench_online.py",
    "nbhd-online", "nbhd-online")


def get(exp_id: str) -> Experiment:
    """Look up one experiment (KeyError lists the known ids)."""
    try:
        return REGISTRY[exp_id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}")


def all_experiments() -> list[Experiment]:
    """Every registered experiment, in id order."""
    return [REGISTRY[key] for key in sorted(REGISTRY)]
