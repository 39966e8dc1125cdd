"""Idealized absorption-mode readout spectra from population states.

A readout pulse on spin j splits its resonance into one line per
configuration of the other spins. In the weak-coupling first-order
picture the line for spectator configuration s sits at the offset
sum_{k != j} J_jk * m_k(s) from the spin's own frequency, with m_k = +1/2
when spin k points up (bit 0) and -1/2 when it points down, and its
amplitude is the population difference across the j transition in that
configuration.

States in thermal deviation units make every thermal line come out at
exactly 1, so all amplitudes here read directly as multiples of the
thermal signal. Lines are listed from highest to lowest frequency offset;
under that convention the boosted three-spin state reads 1:2:1:2 on the
first spin, 0:1:0:1 on the second, and -1:0:0:1 on the third.

`Spectrum.to_csv` writes Python's `repr` of every float, yet formats about
half of them. A multiplet is exactly antisymmetric: the spectator
configuration with every bit flipped sums the exactly negated terms in the
same order, and IEEE rounding is sign-symmetric, so its offset is the
negated float. Sorted, the bottom half is the top half negated and
reversed, and its text is "-" plus the top half's. Zero is the exception
(both sides come out +0.0), and a hand-built `Spectrum` need not be sorted,
so an O(N) guard checks the property first: an even line count, a top half
of positive floats, and a bottom half equal to it negated bit for bit.
Otherwise each frequency is formatted on its own. Amplitudes take few
distinct values in most states, so each distinct bit pattern (which keeps
-0.0 apart from 0.0) is formatted once, unless more than half are distinct
(found by one sort of the bits), where plain reprs are faster and smaller.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np

from .states import IZ, PopulationState, spin_axis
from .system import SpinSystem

# One record per line; spectator is the other spins' bits, spin order, MSB first.
_LINE_DTYPE = np.dtype([("freq_hz", float), ("amplitude", float), ("spectator", np.int64)])


@dataclass
class Spectrum:
    """Multiplet of one spin: 2**(n-1) line records, highest frequency first."""

    spin: int
    lines: np.recarray

    @property
    def frequencies(self) -> np.ndarray:
        return self.lines.freq_hz

    @property
    def amplitudes(self) -> np.ndarray:
        return self.lines.amplitude

    def mean_amplitude(self) -> float:
        """Equals the spin's polarization for deviation-unit states."""
        return float(self.amplitudes.mean())

    def to_csv(self) -> str:
        """A `freq_hz,amplitude` header, then one line of float reprs per line record."""
        rows = zip(_frequency_text(self.lines.freq_hz), _amplitude_text(self.lines.amplitude))
        return "\n".join(chain(["freq_hz,amplitude"], map(",".join, rows), [""]))


def _frequency_text(freq: np.ndarray) -> Iterable[str]:
    """`repr` of each frequency; a mirrored multiplet formats its top half only."""
    half = len(freq) // 2
    top = freq[:half]
    if (
        2 * half == len(freq)
        and (top > 0).all()
        and ((-top[::-1]).view(np.int64) == freq[half:].view(np.int64)).all()
    ):
        text = list(map(repr, top.tolist()))
        return chain(text, map("-".__add__, reversed(text)))
    return map(repr, freq.tolist())


def _amplitude_text(amp: np.ndarray) -> Iterable[str]:
    """`repr` of each amplitude, formatted once per distinct bit pattern when few are distinct.

    With most amplitudes distinct, the memo's sort and its list of every
    text cost more time and memory than they save, so each gets its own repr.
    """
    bits, index = np.unique(amp.view(np.int64), return_inverse=True)
    if 2 * len(bits) > len(amp):
        return map(repr, amp.tolist())
    text = list(map(repr, bits.view(float).tolist()))
    return map(text.__getitem__, index.tolist())


def _line_offsets(system: SpinSystem, j: int) -> np.ndarray:
    """Offset of spin j's line for each spectator configuration, in index order.

    The spectators are the other n-1 spins in spin order, one axis each of
    an outer sum of their J_jk * IZ rows, so its flattening lists the
    configurations in the basis order of the spins left when j is removed.
    """
    terms = [system.coupling(j, k) * IZ for k in range(system.n) if k != j]
    return reduce(np.add.outer, terms, np.zeros(1)).reshape(-1)


def line_frequencies(system: SpinSystem, spin: int | str) -> list[float]:
    """The 2**(n-1) multiplet offsets of one spin, sorted ascending."""
    return np.sort(_line_offsets(system, system.spin_index(spin)), kind="stable").tolist()


def readout(state: PopulationState, system: SpinSystem, spin: int | str) -> Spectrum:
    """Predicted multiplet of one spin after an ideal readout pulse.

    Each line's amplitude is the up-minus-down difference across spin j's
    axis of the populations (`spin_axis`), flattened in spectator index
    order.
    """
    j = system.spin_index(spin)
    if state.n != system.n:
        raise ValueError(f"state has {state.n} spins, system has {system.n}")
    p = spin_axis(state.pops, j)
    amplitude = (p[:, 0] - p[:, 1]).reshape(-1)
    freq = _line_offsets(system, j)
    order = np.argsort(-freq, kind="stable")
    lines = np.rec.fromarrays((freq[order], amplitude[order], order), dtype=_LINE_DTYPE)
    return Spectrum(spin=j, lines=lines)


def mean_enhancement(spec_after: Spectrum, spec_before: Spectrum) -> float:
    """Ratio of mean line amplitudes, the averaged signal gain."""
    if spec_after.spin != spec_before.spin:
        raise ValueError(
            f"spectra describe different spins ({spec_after.spin} vs {spec_before.spin})"
        )
    if len(spec_after.lines) != len(spec_before.lines):
        raise ValueError("spectra have different line counts")
    reference = spec_before.mean_amplitude()
    if reference == 0.0:
        raise ValueError("reference spectrum has zero mean signal")
    return spec_after.mean_amplitude() / reference
