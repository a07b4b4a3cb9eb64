"""Theorem 3.3's one-victim phases replayed one event at a time.

:meth:`VariableReservoir._phase_run <repro.core.variable.VariableReservoir._phase_run>`
writes a whole run of startup phases with one last-writer write. Each
phase of the run starts at ``n - 1`` residents and its reduction ejects
exactly one, so the run is a list of (slot, row) writes. This oracle
keeps the events instead: it draws the same four arrays, in the
kernel's documented order, from a twin of the sampler's generator,

1. one geometric gap per phase of the run, parameter ``p_k - h`` with
   ``h = (n - 1) * lambda``;
2. one ``random`` per waiting row, a replacement when
   ``coin * (1 - p_k + h) < h``;
3. a replacement victim in ``[0, n - 1)`` per replacing row;
4. a phase victim ``u`` in ``[0, n)`` per phase whose append is in the
   block;

and replays them on parallel lists, arrival by arrival: a replacement
overwrites its victim, an append goes to slot ``n - 1``, and the
reduction swap-removes ``u`` (the last resident moves into its slot,
then the list shrinks) and multiplies ``p_in`` by ``q``, clamped at the
target. The run's ``p_in`` schedule is the sequential product of
``_reduce_phase``, and it stops at the first phase whose reduction
would not eject exactly one resident.
"""

from __future__ import annotations

import numpy as np


class PhaseRunOracle:
    """The list-store twin of one :class:`VariableReservoir`'s state."""

    def __init__(self, sampler):
        self.n = sampler.capacity
        self.lam = sampler.lam
        self.q = sampler.q
        self.target = sampler.target_p_in
        self.p_in = sampler.p_in
        self.phase_history = list(sampler.phase_history)
        self.insertions = sampler.insertions
        self.ejections = sampler.ejections
        self.payloads = sampler.payloads()
        self.arrivals = sampler.arrival_indices().tolist()
        self.globals = sampler.global_arrivals().tolist()
        self.rng = np.random.default_rng()
        self.rng.bit_generator.state = sampler.rng.bit_generator.state

    def schedule(self, limit):
        """``(p_in, next p_in)`` of each phase of the run, at most
        ``limit`` of them."""
        out = []
        p = self.p_in
        while len(out) < limit and p > self.target:
            new = max(self.target, self.q * p)
            if round(self.n * (1.0 - new / p)) != 1:
                break
            out.append((p, new))
            p = new
        return out

    def phase_run(self, payloads, local, glob, i):
        """Replay rows ``i..`` of a block; returns the row after the run,
        or ``i`` when the next phase is not a one-victim phase."""
        b = len(payloads)
        phases = self.schedule(b - i)
        if not phases:
            return i
        h = (self.n - 1) * self.lam
        gaps = self.rng.geometric(np.array([p for p, _ in phases]) - h)
        appends = []
        row = i - 1
        for gap in gaps.tolist():
            row += gap
            if row >= b:
                break
            appends.append(row)
        end = appends[-1] + 1 if len(appends) == len(phases) else b
        waiting = []
        k = 0
        for r in range(i, end):
            if k < len(appends) and r == appends[k]:
                k += 1
            else:
                waiting.append((r, phases[k][0]))
        coins = self.rng.random(len(waiting)).tolist()
        replaced = [
            r for (r, p), coin in zip(waiting, coins) if coin * (1.0 - p + h) < h
        ]
        victims = self.rng.integers(0, self.n - 1, size=len(replaced))
        us = self.rng.integers(0, self.n, size=len(appends))
        victim_of = dict(zip(replaced, victims.tolist()))
        phase_of = {r: k for k, r in enumerate(appends)}
        for r in range(i, end):
            entry = (payloads[r], int(local[r]), int(glob[r]))
            if r in phase_of:
                self._append(entry)
                self._swap_remove(int(us[phase_of[r]]))
                self.p_in = phases[phase_of[r]][1]
                self.phase_history.append((int(local[r]), self.p_in))
            elif r in victim_of:
                self._replace(victim_of[r], entry)
        return end

    def _append(self, entry):
        assert len(self.payloads) == self.n - 1
        self.payloads.append(entry[0])
        self.arrivals.append(entry[1])
        self.globals.append(entry[2])
        self.insertions += 1

    def _replace(self, slot, entry):
        self.payloads[slot], self.arrivals[slot], self.globals[slot] = entry
        self.insertions += 1
        self.ejections += 1

    def _swap_remove(self, victim):
        for column in (self.payloads, self.arrivals, self.globals):
            column[victim] = column[-1]
            column.pop()
        self.ejections += 1
