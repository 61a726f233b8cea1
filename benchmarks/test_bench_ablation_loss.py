"""ABL-LOSS — robustness of coordination to radio-channel degradation.

Concurrent-flood dissemination stays near-perfect until the topology
approaches partition, so the sweep walks the path-loss exponent across
that cliff.  DIs always see their own requests, so admission never
stalls; coordination quality degrades gracefully instead of collapsing.
"""

from repro.experiments import loss_sweep
from repro.sim.units import MINUTE

HORIZON = 180 * MINUTE
EXPONENTS = (3.5, 4.3, 4.4, 4.45)


def test_loss_sweep(record_figure):
    figure = loss_sweep(exponents=EXPONENTS, seeds=(1, 2),
                        horizon=HORIZON)
    record_figure(figure)
    data = figure.data

    # The channel genuinely degrades across the sweep...
    assert data[EXPONENTS[-1]]["flood_delivery"] < 0.95
    assert data[EXPONENTS[0]]["flood_delivery"] > 0.99
    # ...yet decentralized self-admission keeps working everywhere.
    for exponent in EXPONENTS:
        assert data[exponent]["admitted_fraction"] > 0.95, exponent
    # Coordination quality degrades gracefully: even at the cliff, the
    # peak stays below the uncoordinated level (~13.6 kW at this rate).
    for exponent in EXPONENTS:
        assert data[exponent]["peak_kw"] <= 13.0
