"""Wireless channel model: path loss, shadowing, and link quality.

The model composes

* **log-distance path loss** with exponent ``exponent`` around a reference
  loss at 1 m,
* **per-link log-normal shadowing**, frozen per link (drawn once from a named
  RNG stream, symmetric between the two directions), and
* the classic **802.15.4 O-QPSK DSSS bit-error model** (as used by TOSSIM)
  mapping SINR to packet reception ratio (PRR).

All powers are dBm, all distances metres.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from typing import Optional, Sequence

import networkx as nx
import numpy as np

from repro.radio.phy import DEFAULT_RADIO_CONFIG, RadioConfig


def dbm_to_mw(dbm: float) -> float:
    """Convert dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert milliwatts to dBm (−inf for 0)."""
    if mw <= 0.0:
        return float("-inf")
    return 10.0 * math.log10(mw)


@lru_cache(maxsize=4096)
def ber_oqpsk(sinr_db: float) -> float:
    """Bit error rate of 802.15.4 O-QPSK DSSS at a given SINR.

    Uses the standard 16-ary orthogonal-signalling approximation
    (IEEE 802.15.4-2006 Annex E / TOSSIM)::

        BER = (8/15) * (1/16) * sum_{k=2}^{16} (-1)^k C(16,k) e^{20 SINR (1/k - 1)}
    """
    sinr = 10.0 ** (sinr_db / 10.0)
    total = 0.0
    for k in range(2, 17):
        total += ((-1) ** k) * math.comb(16, k) * math.exp(
            20.0 * sinr * (1.0 / k - 1.0))
    ber = (8.0 / 15.0) * (1.0 / 16.0) * total
    return min(max(ber, 0.0), 0.5)


def prr_from_sinr(sinr_db: float, psdu_bytes: int) -> float:
    """Probability that a ``psdu_bytes``-byte frame decodes at ``sinr_db``."""
    ber = ber_oqpsk(round(sinr_db, 2))
    return (1.0 - ber) ** (8 * psdu_bytes)


#: Relative half-width of the band around each PRR step edge inside
#: which :class:`PrrSteps` defers to the scalar chain.  ``math.log10``
#: and the float arithmetic of the chain move an edge by ~1e-14
#: relative; 1e-9 leaves five orders of magnitude of margin.
_EDGE_GUARD = 1e-9
#: Highest SNR the step table spans, dB (powers above fall back).
_TOP_SNR_DB = 120.0


class PrrSteps:
    """The flood-slot PRR of a combined received power, by table.

    The scalar chain (:meth:`scalar_prr`: ``mw_to_dbm``, the sensitivity
    cut, then ``prr_from_sinr(dbm - noise_floor)``) depends on the power
    only through which 0.01 dB step ``round(snr, 2)`` lands on, so it is
    a step function of the power in mW.  :meth:`prrs` finds each step by
    one bisection over the step edges, each widened to a guard band of
    ``_EDGE_GUARD``, and reads a table the scalar chain fills on first
    use; a power inside a guard band (an odd bisection index) takes the
    scalar chain directly.  Every result is bit-identical to it.
    """

    def __init__(self, config: RadioConfig, psdu_bytes: int):
        self.config = config
        self.psdu_bytes = psdu_bytes
        sensitivity_snr = config.sensitivity_dbm - config.noise_floor_dbm
        #: hundredths of a dB of the step just above the sensitivity cut
        self.first_step = math.floor(sensitivity_snr * 100.0 + 0.5)
        top = math.ceil(_TOP_SNR_DB * 100.0)
        edges_snr = (np.arange(self.first_step, top) + 0.5) / 100.0
        edges = np.concatenate((
            [dbm_to_mw(config.sensitivity_dbm)],
            10.0 ** ((config.noise_floor_dbm + edges_snr) / 10.0)))
        bands = np.column_stack((edges * (1.0 - _EDGE_GUARD),
                                 edges * (1.0 + _EDGE_GUARD)))
        if bands[0, 1] >= bands[1, 0]:
            # The cut sits on a step edge: one band covers both, and the
            # step between them (never reached outside it) is dropped.
            bands[1, 0] = bands[0, 0]
            bands = bands[1:]
            self.first_step += 1
        # Edge j becomes the band [points[2j], points[2j + 1]); step j
        # (below the cut for j = 0, else first_step + j - 1 hundredths)
        # lies between bands, at bisection index 2j.
        self.points: list[float] = bands.ravel().tolist()
        self.values: list[Optional[float]] = [0.0] + [None] * len(bands)

    def scalar_prr(self, mw: float) -> float:
        """The scalar chain (0.0 at zero power or below sensitivity)."""
        if mw <= 0.0:
            return 0.0
        dbm = mw_to_dbm(mw)
        if dbm < self.config.sensitivity_dbm:
            return 0.0
        return prr_from_sinr(dbm - self.config.noise_floor_dbm,
                             self.psdu_bytes)

    def prrs(self, powers_mw: Sequence[float], nodes: Sequence[int],
             scale: float = 1.0) -> list[float]:
        """PRR at ``powers_mw[node]`` times ``scale``, for each of
        ``nodes`` in order."""
        points, values = self.points, self.values
        last = len(points)
        out = []
        for node in nodes:
            mw = powers_mw[node]
            index = bisect_right(points, mw)
            if index & 1 or index == last:
                out.append(self.scalar_prr(mw) * scale)
                continue
            value = values[index >> 1]
            if value is None:
                value = values[index >> 1] = prr_from_sinr(
                    (self.first_step + (index >> 1) - 1) / 100.0,
                    self.psdu_bytes)
            out.append(value * scale)
        return out


_PRR_STEPS: dict[tuple, PrrSteps] = {}


def prr_steps(config: RadioConfig, psdu_bytes: int) -> PrrSteps:
    """The shared :class:`PrrSteps` of a radio config and frame length."""
    key = (config.noise_floor_dbm, config.sensitivity_dbm, psdu_bytes)
    steps = _PRR_STEPS.get(key)
    if steps is None:
        steps = _PRR_STEPS[key] = PrrSteps(config, psdu_bytes)
    return steps


class Channel:
    """Static link-gain table over a set of node positions."""

    def __init__(self, positions: np.ndarray,
                 config: RadioConfig = DEFAULT_RADIO_CONFIG,
                 exponent: float = 3.5,
                 reference_loss_db: float = 40.0,
                 shadowing_sigma_db: float = 3.0,
                 rng: Optional[np.random.Generator] = None):
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must be an (n, 2) array")
        self.positions = positions
        self.config = config
        self.exponent = exponent
        self.reference_loss_db = reference_loss_db
        self.shadowing_sigma_db = shadowing_sigma_db
        self.n = len(positions)

        diffs = positions[:, None, :] - positions[None, :, :]
        self.distances = np.sqrt((diffs ** 2).sum(axis=2))

        if rng is None or shadowing_sigma_db == 0.0:
            shadowing = np.zeros((self.n, self.n))
        else:
            draw = rng.normal(0.0, shadowing_sigma_db, size=(self.n, self.n))
            shadowing = np.triu(draw, k=1)
            shadowing = shadowing + shadowing.T  # symmetric links
        with np.errstate(divide="ignore"):
            path_loss = (reference_loss_db
                         + 10.0 * exponent * np.log10(
                             np.maximum(self.distances, 1.0)))
        self._rx_power_dbm = config.tx_power_dbm - path_loss - shadowing
        np.fill_diagonal(self._rx_power_dbm, float("-inf"))
        #: linear received power of every directed link (``[src, dst]``)
        self.rx_power_mw_table = np.where(
            np.isfinite(self._rx_power_dbm),
            10.0 ** (self._rx_power_dbm / 10.0), 0.0)
        #: the same doubles as Python row lists (``[src][dst]``):
        #: per-frame link lookups (CSMA delivery, carrier sense) index
        #: these instead of paying for a NumPy scalar on every access
        self.rx_power_dbm_rows: list[list[float]] = \
            self._rx_power_dbm.tolist()
        self.rx_power_mw_rows: list[list[float]] = \
            self.rx_power_mw_table.tolist()
        self.noise_mw = dbm_to_mw(config.noise_floor_dbm)

    # -- link queries ---------------------------------------------------------

    def rx_power_dbm(self, src: int, dst: int) -> float:
        """Received power at ``dst`` of a frame sent by ``src``."""
        return self.rx_power_dbm_rows[src][dst]

    def rx_power_mw(self, src: int, dst: int) -> float:
        return self.rx_power_mw_rows[src][dst]

    def audible(self, src: int, dst: int) -> bool:
        """True when ``src``'s signal exceeds the receive sensitivity."""
        return (self.rx_power_dbm_rows[src][dst]
                >= self.config.sensitivity_dbm)

    def snr_db(self, src: int, dst: int) -> float:
        """Interference-free signal-to-noise ratio of the link."""
        return self.rx_power_dbm(src, dst) - self.config.noise_floor_dbm

    def link_prr(self, src: int, dst: int, psdu_bytes: int) -> float:
        """Interference-free PRR of the directed link."""
        if not self.audible(src, dst):
            return 0.0
        return prr_from_sinr(self.snr_db(src, dst), psdu_bytes)

    def sinr_db(self, dst: int, src: int,
                interferers: Sequence[int]) -> float:
        """SINR at ``dst`` for ``src``'s signal against ``interferers``."""
        rows = self.rx_power_mw_rows
        interference = self.noise_mw + sum(
            rows[i][dst] for i in interferers if i != src)
        return mw_to_dbm(rows[src][dst]) - mw_to_dbm(interference)

    # -- topology-level queries -------------------------------------------------

    def connectivity_graph(self, prr_threshold: float = 0.5,
                           probe_bytes: int = 40) -> nx.Graph:
        """Undirected graph of links whose PRR exceeds ``prr_threshold``.

        ``probe_bytes`` is the PSDU length used to evaluate link PRR (PRR is
        length-dependent).  Edge attribute ``prr`` holds the smaller of the
        two directed PRRs, ``etx`` its inverse (expected transmissions).
        """
        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        for src in range(self.n):
            for dst in range(src + 1, self.n):
                forward = self.link_prr(src, dst, probe_bytes)
                backward = self.link_prr(dst, src, probe_bytes)
                prr = min(forward, backward)
                if prr >= prr_threshold:
                    graph.add_edge(src, dst, prr=prr, etx=1.0 / prr)
        return graph

    def neighbours(self, node: int, prr_threshold: float = 0.5,
                   probe_bytes: int = 40) -> list[int]:
        """Nodes with a usable bidirectional link to ``node``."""
        result = []
        for other in range(self.n):
            if other == node:
                continue
            if (self.link_prr(node, other, probe_bytes) >= prr_threshold
                    and self.link_prr(other, node, probe_bytes)
                    >= prr_threshold):
                result.append(other)
        return result
