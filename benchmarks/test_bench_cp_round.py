"""FIG1 — the Communication Plane: MiniCast rounds every 2 s.

Measures what Figure 1 sketches: one slot-level round shares every DI's
items with every other DI well inside the 2 s period, with >99% delivery,
microsecond sync and a single-digit-mJ energy bill.
"""

from repro.experiments import trace_cp
from repro.radio import FloodMedium, flocklab26
from repro.sim import RandomStreams
from repro.st import GlossyConfig, MiniCast, run_flood


def test_fig1_cp_trace(record_figure):
    result = trace_cp(rounds=25, seed=1)

    class _Figure:  # adapt CpTraceResult to the record_figure helper
        figure_id = "fig1-cp-trace"
        text = result.text

    record_figure(_Figure)

    # One round must fit far inside the 2 s period (paper Figure 1).
    assert result.mean_duration_ms < 500.0
    # All-to-all sharing is effectively reliable.
    assert result.mean_delivery > 0.99
    # Clock agreement is orders of magnitude below the 15-min slots.
    assert max(result.sync_errors_us) < 100.0
    # Duty-cycled radio: a few percent, not always-on.
    assert result.radio_duty_cycle < 0.25


def _medium(seed=1):
    streams = RandomStreams(seed)
    channel = flocklab26().make_channel(rng=streams.stream("channel"))
    return FloodMedium(channel, streams.stream("floods"))


def test_single_flood_speed():
    """One slot-level Glossy flood over 26 nodes."""
    medium = _medium()
    nodes = list(range(26))
    result = run_flood(medium, 0, nodes, GlossyConfig())
    assert len(result.receivers) >= 24


def test_minicast_round_speed():
    """One full 26-node MiniCast round (13 floods)."""
    medium = _medium()
    minicast = MiniCast(medium)
    nodes = list(range(26))
    outcome = minicast.run_round(nodes)
    assert outcome.delivery_ratio(nodes) > 0.98
