"""Collaborative Load Management in Smart Home Area Networks.

A from-scratch reproduction of Debadarshini & Saha (ICDCS 2022,
arXiv:2207.04733): a decentralized HAN in which Device Interfaces share
state over Synchronous-Transmission rounds (MiniCast) and collaboratively
stagger the duty cycles of power-hungry Type-2 appliances, cutting peak
load and load variance without deferring energy.

Quickstart (the declarative front door — see ``docs/experiment-spec.md``)::

    from repro.api import ExperimentSpec, run

    spec = ExperimentSpec.from_json('''{
        "name": "quickstart",
        "scenario": {"preset": "paper-high"},
        "control": {"policy": "coordinated"},
        "seeds": [1]
    }''')
    result = run(spec)
    print(result.stats()[0].peak_kw, result.provenance.short_hash)
"""

from repro.core import (
    HanConfig,
    HanSystem,
    RunResult,
)
from repro.workloads import PAPER_RATES, Scenario, paper_scenario

#: Release version; also the result-cache invalidation key.  2.0 removed
#: the deprecated 1.x entry points; every experiment now goes through
#: ``repro.api.run``.
__version__ = "2.0.0"

__all__ = [
    "HanConfig",
    "HanSystem",
    "PAPER_RATES",
    "RunResult",
    "Scenario",
    "paper_scenario",
    "__version__",
]
