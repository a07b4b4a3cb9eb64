"""Variable reservoir sampling — fast fill under space constraints.

Algorithm 3.1 with a small ``p_in`` takes ``O(n log n / p_in)`` arrivals to
fill (Theorem 3.2): for the paper's Figure 1 parameters the reservoir is
still not full after the *entire* half-million-point stream. Variable
reservoir sampling fixes the startup without changing the sampled
distribution:

* Start with ``p_in = 1`` and a *fictitious* reservoir of size
  ``p_in / lambda`` (only ``n_max`` slots physically exist). The ejection
  coin ``F(t)`` is evaluated against the fictitious size, so early on almost
  every arrival simply appends and the true reservoir fills after roughly
  ``n_max`` points.
* Whenever the physical limit ``n_max`` is reached (and ``p_in`` is still
  above the target ``n_max * lambda``), multiply ``p_in`` by a factor ``q``
  and eject a uniformly random ``(1 - q)`` fraction of residents.
  Theorem 3.3 guarantees the mixed population still satisfies the bias
  proportionality ``p(r, t) ∝ p_in * exp(-lambda (t - r))``.
* The recommended schedule ``q = 1 - 1/n_max`` ejects exactly one point per
  phase, keeping the reservoir within one point of full at all times.

Why the distribution is preserved: in every phase the per-resident ejection
hazard per arrival is ``p_in * F(t) / size = p_in / (p_in/lambda) =
lambda`` — *independent of the phase* — and each phase transition is a
uniform thinning that rescales every resident's inclusion probability by the
same ``q``. Hence retention always decays at rate ``lambda`` and the
proportionality constant tracks the current ``p_in``.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.bias import ExponentialBias
from repro.core.biased import ExponentialReservoir
from repro.utils.rng import RngLike

__all__ = ["VariableReservoir"]


class VariableReservoir(ExponentialReservoir):
    """Theorem 3.3 variable-``p_in`` biased sampler.

    Like :class:`~repro.core.space_constrained.SpaceConstrainedReservoir`,
    it is an :class:`~repro.core.biased.ExponentialReservoir` subclass:
    it keeps residents in the array store, reuses its snapshot hooks,
    :meth:`ingest`, the ``p_in``-scaled inclusion model and the
    :meth:`_scatter` kernel, and ejects phase victims with the store's
    :meth:`_eject_random`.

    Per item, :meth:`offer` is the paper's step. Per block,
    :meth:`_admit_block` draws the same Markov chain in bulk (same
    distribution, different random stream): between two appends the
    state ``(size s, p_in)`` is fixed, so each arrival is rejected with
    probability ``1 - p_in``, replaces a uniform resident with
    probability ``s * lambda`` and appends otherwise, and the gap to the
    next append is geometric. The fill segment (``p_in = 1``) is one
    vectorized draw and one last-writer scatter. A phase that starts at
    ``n - 1`` residents and ejects one (every phase after the first
    under the default ``q``) appends into slot ``n - 1``, which the
    reduction's swap-remove moves into a uniform victim slot, so a run
    of them is one last-writer write too (:meth:`_phase_run`); any other
    phase is one segment that ends in :meth:`_reduce_phase`. Once
    ``p_in`` is at its target the rest of the block is Algorithm 3.1's
    gated scatter.

    Parameters
    ----------
    lam:
        Target bias rate ``lambda``.
    capacity:
        True (physical) reservoir size ``n_max``; must not exceed the
        natural size ``1/lambda`` (otherwise use
        :class:`~repro.core.biased.ExponentialReservoir`).
    q:
        Per-phase ``p_in`` reduction factor in ``(0, 1)``. Defaults to the
        paper's recommendation ``1 - 1/n_max`` (eject exactly one point per
        phase).
    rng:
        Seed or generator.

    Attributes
    ----------
    p_in:
        Current insertion probability; decays from 1.0 to the target
        ``n_max * lambda`` over the startup phases, then stays fixed.
    phase_history:
        ``(t, p_in)`` pairs recorded at each phase transition, for
        diagnostics and the Figure 1 experiment.
    """

    def __init__(
        self,
        lam: float,
        capacity: int,
        q: Optional[float] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__(capacity=capacity, rng=rng)
        lam = float(lam)
        if lam <= 0.0:
            raise ValueError(f"lambda must be > 0, got {lam}")
        target = self.capacity * lam
        if target > 1.0 + 1e-12:
            raise ValueError(
                f"capacity {self.capacity} exceeds the natural size "
                f"1/lambda = {1.0 / lam:.6g}; space is not constrained"
            )
        if q is None:
            # Paper default: eject exactly one point per phase. Degenerate
            # at capacity 1 (q would be 0), where halving is the only
            # sensible schedule.
            q = 1.0 - 1.0 / self.capacity if self.capacity > 1 else 0.5
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {q}")
        self.lam = self.requested_lam = lam
        self.q = float(q)
        self.target_p_in = min(1.0, target)
        self.p_in = 1.0
        self.bias = ExponentialBias(lam)
        self.phase_history: List[Tuple[int, float]] = [(0, 1.0)]

    @property
    def fictitious_capacity(self) -> float:
        """Size of the pretend reservoir, ``p_in / lambda``."""
        return self.p_in / self.lam

    @property
    def fictitious_fill_fraction(self) -> float:
        """``F(t)`` evaluated against the fictitious capacity."""
        return min(1.0, self.size / self.fictitious_capacity)

    def offer(self, payload: Any) -> bool:
        """One arrival: Algorithm 3.1 step against the fictitious reservoir,
        then a phase transition if the physical limit was hit."""
        size = self._size
        fill = self.fictitious_fill_fraction  # F(t) before this arrival
        self.t += 1
        self.offers += 1
        accepted = self.rng.random() < self.p_in
        if accepted:
            slot = size
            if size == self.capacity or self.rng.random() < fill:
                slot = int(self.rng.integers(size))
            self._insert(slot, payload)
        if self._size == self.capacity and self.p_in > self.target_p_in:
            self._reduce_phase()
        return accepted

    def _admit_block(self, pay: Any, glob: Optional[np.ndarray]) -> int:
        """Theorem 3.3 over a block (same distribution as :meth:`offer`).

        Walks the block one segment at a time: the fill segment, then
        runs of one-victim phases (one segment per any other phase), then
        the steady state. Returns the accepted count.
        """
        b = len(pay)
        t0, inserted = self.t, self.insertions
        local = t0 + 1 + np.arange(b, dtype=np.int64)
        glob = local if glob is None else glob
        n = self.capacity
        i = 0
        while i < b and self.p_in > self.target_p_in:
            if self._size == n:
                # A phase ejected nobody (round(n * (1 - q)) == 0), so the
                # next arrival meets a full reservoir: it replaces w.p.
                # p_in, then the next phase starts.
                if self.rng.random() < self.p_in:
                    self._write(int(self.rng.integers(n)), i, pay, local, glob)
                    self.insertions += 1
                    self.ejections += 1
                i += 1
            elif self.p_in == 1.0:
                i = self._fill_segment(pay, local, glob, i)
            else:
                # The walker takes a phase the run does not.
                j = self._phase_run(pay, local, glob, i)
                i = j if j > i else self._phase_segment(pay, local, glob, i)
            self.t = t0 + i
            if self._size == n:
                self._reduce_phase()
        if i < b:
            # Steady state: Algorithm 3.1 at the target p_in.
            rows = np.arange(i, b)
            if self.p_in < 1.0:
                rows = rows[self.rng.random(b - i) < self.p_in]
            self._scatter(pay[rows], local[rows], glob[rows])
        self.t = t0 + b
        self.offers += b
        return self.insertions - inserted

    def _fill_segment(
        self, pay: np.ndarray, local: np.ndarray, glob: np.ndarray, i: int
    ) -> int:
        """Rows ``i..`` at ``p_in = 1``, up to the append that fills the
        reservoir or the block's end, whichever comes first.

        Every arrival is admitted: with ``k`` residents it replaces a
        uniform one with probability ``k * lambda`` and appends
        otherwise, so the gap to each append is geometric. One draw
        places every append in the block, one draw picks every
        replacement's victim, and one last-writer scatter writes the
        segment. Returns the row after the segment.
        """
        b = len(pay)
        s0 = self._size
        if s0 == 0:
            self._allocate()
        sizes = s0 + np.arange(min(self.capacity - s0, b - i))
        at = i - 1 + np.cumsum(self.rng.geometric(1.0 - sizes * self.lam))
        appends = int(np.searchsorted(at, b))
        end = int(at[appends - 1]) + 1 if s0 + appends == self.capacity else b
        is_append = np.zeros(end - i, dtype=bool)
        is_append[at[:appends] - i] = True
        # Residents present once each row is in; an append writes the slot
        # it adds, a replacement a uniform victim among those present.
        present = s0 + np.cumsum(is_append)
        dest = present - 1
        replaced = ~is_append
        dest[replaced] = self.rng.integers(0, present[replaced])
        last = np.full(s0 + appends, -1, dtype=np.int64)
        last[dest] = np.arange(i, end)
        slots = np.nonzero(last >= 0)[0]
        self._write(slots, last[slots], pay, local, glob)
        self._size = s0 + appends
        self.insertions += end - i
        self.ejections += end - i - appends
        return end

    def _phase_run(
        self, pay: np.ndarray, local: np.ndarray, glob: np.ndarray, i: int
    ) -> int:
        """Rows ``i..`` as a run of phases that each eject one resident,
        up to the run's last append or the block's end.

        Each phase starts at ``n - 1`` residents: its waiting rows are
        rejected or replace a uniform resident in ``[0, n - 1)``, its
        append lands in slot ``n - 1``, and the reduction's swap-remove
        of a uniform victim ``u`` in ``[0, n)`` moves the appended row
        into slot ``u``, or drops it when ``u = n - 1``. So the run is a
        list of (slot, row) writes and one last-writer :meth:`_write`.
        ``p_in`` follows ``max(p_in * q^k, target)``, whose cumulative
        product multiplies in the order of :meth:`_reduce_phase`.

        Draws, in order: the phases' geometric gaps (``p_k - h`` with
        ``h = (n - 1) * lambda``), one ``random`` per waiting row against
        ``h / (1 - p_k + h)``, the replacement victims, then one victim
        ``u`` per phase whose append is in the block. A phase whose
        append falls past the block keeps its waiting rows only (the
        next block draws a fresh gap). Returns the row after the run, or
        ``i`` when the next phase does not start at ``n - 1`` residents
        or does not eject exactly one.
        """
        b, n = len(pay), self.capacity
        if self._size != n - 1:
            return i
        target = self.target_p_in
        # p_in before each of the next b - i phases (every phase takes a
        # row at least) and after the last; the run is their prefix whose
        # reductions eject one of the n residents.
        schedule = np.full(b - i + 1, self.q)
        schedule[0] = self.p_in
        p = np.maximum(np.cumprod(schedule), target)
        one = (p[:-1] > target) & (np.round(n * (1.0 - p[1:] / p[:-1])) == 1)
        m = len(one) if one.all() else int(np.argmin(one))
        if not m:
            return i
        h = (n - 1) * self.lam
        at = i - 1 + np.cumsum(self.rng.geometric(p[:m] - h))
        done = int(np.searchsorted(at, b))  # appends inside the block
        at = at[:done]
        end = int(at[-1]) + 1 if done == m else b
        waiting = np.ones(end - i, dtype=bool)
        waiting[at - i] = False
        rows = i + np.flatnonzero(waiting)
        p_wait = p[np.searchsorted(at, rows)]
        rows = rows[self.rng.random(len(rows)) * (1.0 - p_wait + h) < h]
        # The slot each row ends in (-1: none); a phase's append ends in
        # its victim's slot, or nowhere when the victim is itself.
        dest = np.full(end - i, -1, dtype=np.int64)
        dest[rows - i] = self.rng.integers(0, n - 1, size=len(rows))
        u = self.rng.integers(0, n, size=done)
        dest[at - i] = np.where(u < n - 1, u, -1)
        last = np.full(n - 1, -1, dtype=np.int64)
        moved = dest >= 0
        last[dest[moved]] = i + np.flatnonzero(moved)
        slots = np.flatnonzero(last >= 0)
        self._write(slots, last[slots], pay, local, glob)
        self.insertions += len(rows) + done
        self.ejections += len(rows) + done
        self.p_in = float(p[done])
        self.phase_history.extend(
            zip(local[at].tolist(), p[1 : done + 1].tolist())
        )
        return end

    def _phase_segment(
        self, pay: np.ndarray, local: np.ndarray, glob: np.ndarray, i: int
    ) -> int:
        """Rows ``i..`` up to and including the phase's next append, or to
        the block's end if the append falls past it.

        With ``s`` residents and ``p_in < 1`` the append has probability
        ``p_in - s * lambda`` per arrival; each arrival before it replaces
        a uniform resident with probability ``s * lambda`` out of the
        remaining ``1 - p_in + s * lambda`` and is rejected otherwise.
        Returns the row after the segment.
        """
        b = len(pay)
        s = self._size
        hazard = s * self.lam
        end = i + int(self.rng.geometric(self.p_in - hazard))
        waiting = min(end - 1, b) - i
        rows = i + np.nonzero(
            self.rng.random(waiting) * (1.0 - self.p_in + hazard) < hazard
        )[0]
        if len(rows):
            self._write(self.rng.integers(0, s, size=len(rows)), rows,
                        pay, local, glob)
            self.insertions += len(rows)
            self.ejections += len(rows)
        if end > b:
            return b
        self._write(s, end - 1, pay, local, glob)
        self.insertions += 1
        self._size = s + 1
        return end

    def _reduce_phase(self) -> None:
        """Shrink ``p_in`` by ``q`` (clamped at the target) and thin the
        residents by the same fraction, per Theorem 3.3."""
        new_p = max(self.target_p_in, self.q * self.p_in)
        fraction_out = 1.0 - new_p / self.p_in
        self._eject_random(round(self.size * fraction_out))
        self.p_in = new_p
        self.phase_history.append((self.t, self.p_in))

    def _extra_state(self) -> dict:
        return {
            "lam": self.lam,
            "q": self.q,
            "p_in": self.p_in,
            "phase_history": [list(pair) for pair in self.phase_history],
        }

    def _restore_extra(self, state: dict) -> None:
        self.p_in = float(state["p_in"])
        self.phase_history = [
            (int(when), float(value)) for when, value in state["phase_history"]
        ]

    @classmethod
    def _construct_from_state(cls, state: dict) -> "VariableReservoir":
        return cls(lam=state["lam"], capacity=state["capacity"], q=state["q"])

    def inclusion_probabilities(
        self, r: np.ndarray, t: Optional[int] = None
    ) -> np.ndarray:
        """Theorem 3.3 model ``p(r, t) = p_in(now) * exp(-lambda (t - r))``.

        Valid for estimation at the *current* stream position (the
        proportionality constant is the current ``p_in``); querying a past
        ``t`` during the startup phases would need the ``p_in`` in force
        then, which is recoverable from :attr:`phase_history`.
        """
        return super().inclusion_probabilities(r, t)

    def survival_probability(self, age: int) -> float:
        """Exact per-policy survival ``(1 - lambda)^age`` over arrivals.

        In every phase a resident is replaced with probability
        ``p_in * F(t) / size = lambda`` per arrival; phase thinnings are
        the separate uniform ``q`` factor that :attr:`p_in` carries.
        """
        if age < 0:
            raise ValueError(f"age must be >= 0, got {age}")
        return (1.0 - self.lam) ** age

    def p_in_at(self, t: int) -> float:
        """Insertion probability that was in force at stream position ``t``.

        A binary search over the phase times, which never decrease.
        """
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        at = bisect_right(self.phase_history, t, key=itemgetter(0))
        return self.phase_history[at - 1][1] if at else 1.0
