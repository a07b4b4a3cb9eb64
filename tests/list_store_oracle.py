"""The list store and the six sampler families that lived on it, as oracles.

Before every family moved onto the array store of
:class:`~repro.core.reservoir.ReservoirSampler`, six of them kept their
residents in two parallel Python lists (``payloads``, ``arrivals``) and
wrote them through ``_append``, ``_replace_random`` and ``_replace_at``;
the decay samplers kept timestamps and insertion probabilities in more
parallel lists, and :class:`GeneralBiasSampler` rebuilt its lists on every
arrival. This module keeps those steps as they were:

* :class:`ListStore` — the storage operations, counters, mutation log
  and the per-item ``offer_many`` loop of the list-backed base class;
* :class:`UnbiasedOracle`, :class:`SkipUnbiasedOracle`,
  :class:`WindowOracle`, :class:`TimestampedOracle`,
  :class:`TimeDecayOracle` and :class:`GeneralBiasOracle` — each
  family's ``offer``, ``offer_at``, ``_offer_block`` and
  ``offer_many_at`` over that store.

The array-store families must reproduce them exactly: payloads in storage
order, arrivals, counters, mutation records, family extras and RNG state
(``tests/test_list_store_oracle.py``).
"""

from __future__ import annotations

import math

import numpy as np


class ListStore:
    """Counters, parallel resident lists and the mutation log."""

    def __init__(self, capacity, rng):
        self.capacity = capacity
        self.rng = np.random.default_rng(rng)
        self.t = self.offers = self.insertions = self.ejections = 0
        self.payloads = []
        self.arrivals = []
        self._ops = []
        self._ops_t = -1

    @property
    def size(self):
        return len(self.payloads)

    @property
    def is_full(self):
        return self.size >= self.capacity

    @property
    def last_ops(self):
        return list(self._ops) if self._ops_t == self.t else []

    def _record_op(self, op):
        if self._ops_t != self.t:
            self._ops = []
            self._ops_t = self.t
        self._ops.append(op)

    def _append(self, payload):
        self.payloads.append(payload)
        self.arrivals.append(self.t)
        self.insertions += 1
        self._record_op(("append", len(self.payloads) - 1))

    def _replace_random(self, payload):
        victim = int(self.rng.integers(len(self.payloads)))
        self._replace_at(victim, payload)

    def _replace_at(self, slot, payload):
        self.payloads[slot] = payload
        self.arrivals[slot] = self.t
        self.insertions += 1
        self.ejections += 1
        self._record_op(("replace", slot))

    def offer_many(self, payloads):
        block = list(payloads)
        if not block:
            return 0
        stored = self._offer_block(block)
        self._ops = [("compact",)]
        self._ops_t = self.t
        return stored

    def _offer_block(self, block):
        return sum(1 for payload in block if self.offer(payload))

    def extras(self):
        """Family state beyond the residents and counters."""
        return {}


class UnbiasedOracle(ListStore):
    """Vitter's Algorithm R on lists."""

    def offer(self, payload):
        self.t += 1
        self.offers += 1
        if len(self.payloads) < self.capacity:
            self._append(payload)
            return True
        if self.rng.random() < self.capacity / self.t:
            self._replace_random(payload)
            return True
        return False

    def _offer_block(self, block):
        total = len(block)
        idx = 0
        while idx < total and len(self.payloads) < self.capacity:
            self.t += 1
            self.offers += 1
            self._append(block[idx])
            idx += 1
        stored = idx
        b = total - idx
        if b == 0:
            return stored
        n = self.capacity
        t0 = self.t
        u = self.rng.random(b)
        accepted = np.nonzero(u * (t0 + np.arange(1, b + 1)) < n)[0]
        m = len(accepted)
        if m:
            victims = self.rng.integers(0, n, size=m)
            slots, rev_pos = np.unique(victims[::-1], return_index=True)
            writers = accepted[m - 1 - rev_pos]
            for slot, w in zip(slots.tolist(), writers.tolist()):
                self.payloads[slot] = block[idx + w]
                self.arrivals[slot] = t0 + w + 1
            self.insertions += m
            self.ejections += m
        self.t = t0 + b
        self.offers += b
        return stored + m


class SkipUnbiasedOracle(UnbiasedOracle):
    """Algorithm R with Algorithm X skips per item."""

    def __init__(self, capacity, rng):
        super().__init__(capacity, rng)
        self.skip = -1

    def extras(self):
        return {"skip": self.skip}

    def _draw_skip(self):
        n = self.capacity
        t = self.t
        u = self.rng.random()
        s = 0
        quot = (t - n) / t
        while quot > u:
            s += 1
            t += 1
            quot *= (t - n) / t
        return s

    def offer(self, payload):
        self.t += 1
        self.offers += 1
        if len(self.payloads) < self.capacity:
            self._append(payload)
            return True
        if self.skip < 0:
            self.skip = self._draw_skip()
        if self.skip == 0:
            self._replace_random(payload)
            self.skip = -1
            return True
        self.skip -= 1
        return False

    def _offer_block(self, block):
        self.skip = -1
        return super()._offer_block(block)


class WindowOracle(ListStore):
    """The exact last-``capacity`` window, FIFO by slot."""

    def offer(self, payload):
        self.t += 1
        self.offers += 1
        if len(self.payloads) >= self.capacity:
            self._replace_at((self.t - 1) % self.capacity, payload)
        else:
            self._append(payload)
        return True


class TimestampedOracle(ListStore):
    """Hybrid wall-clock / count decay on lists."""

    def __init__(self, lam_time, capacity, rng):
        super().__init__(capacity, rng)
        self.lam_time = lam_time
        self.now = 0.0
        self.timestamps = []

    def extras(self):
        return {"now": self.now, "timestamps": list(self.timestamps)}

    def _run_decay(self, delta):
        mean = self.lam_time * delta * self.capacity
        if mean <= 0.0:
            return
        rounds = int(self.rng.poisson(mean))
        for _ in range(rounds):
            size = len(self.payloads)
            if size == 0:
                break
            if self.rng.random() < size / self.capacity:
                victim = int(self.rng.integers(size))
                self.payloads[victim] = self.payloads[-1]
                self.arrivals[victim] = self.arrivals[-1]
                self.timestamps[victim] = self.timestamps[-1]
                self.payloads.pop()
                self.arrivals.pop()
                self.timestamps.pop()
                self.ejections += 1
                self._record_op(("compact",))

    def offer_at(self, payload, timestamp):
        timestamp = float(timestamp)
        delta = timestamp - self.now
        self.now = timestamp
        self.t += 1
        self.offers += 1
        self._run_decay(delta)
        if self.is_full:
            victim = int(self.rng.integers(len(self.payloads)))
            self._replace_at(victim, payload)
            self.timestamps[victim] = timestamp
        else:
            self._append(payload)
            self.timestamps.append(timestamp)
        return True

    def offer(self, payload):
        return self.offer_at(payload, self.now + 1.0)

    def offer_many_at(self, payloads, timestamps):
        block = list(payloads)
        if not block:
            return 0
        stamps = np.asarray(list(timestamps), dtype=np.float64)
        self._offer_block_at(block, stamps)
        self._ops = [("compact",)]
        self._ops_t = self.t
        return len(block)

    def _offer_block(self, block):
        stamps = self.now + np.arange(1, len(block) + 1, dtype=np.float64)
        self._offer_block_at(block, stamps)
        return len(block)

    def _offer_block_at(self, block, stamps):
        deltas = np.diff(stamps, prepend=self.now)
        rounds = self.rng.poisson(self.lam_time * deltas * self.capacity)
        total_rounds = int(rounds.sum())
        gate_u = self.rng.random(total_rounds)
        round_victim_u = self.rng.random(total_rounds)
        insert_victim_u = self.rng.random(len(block))
        payloads = self.payloads
        arrivals = self.arrivals
        timestamps = self.timestamps
        n = self.capacity
        t = self.t
        insertions = self.insertions
        ejections = self.ejections
        cursor = 0
        for k, payload in enumerate(block):
            t += 1
            remaining = int(rounds[k])
            while remaining:
                size = len(payloads)
                if size == 0:
                    cursor += remaining
                    break
                if gate_u[cursor] < size / n:
                    victim = int(round_victim_u[cursor] * size)
                    payloads[victim] = payloads[-1]
                    arrivals[victim] = arrivals[-1]
                    timestamps[victim] = timestamps[-1]
                    payloads.pop()
                    arrivals.pop()
                    timestamps.pop()
                    ejections += 1
                cursor += 1
                remaining -= 1
            size = len(payloads)
            if size >= n:
                victim = int(insert_victim_u[k] * size)
                arrivals[victim] = t
                payloads[victim] = payload
                timestamps[victim] = float(stamps[k])
                insertions += 1
                ejections += 1
            else:
                payloads.append(payload)
                arrivals.append(t)
                timestamps.append(float(stamps[k]))
                insertions += 1
        self.t = t
        self.offers += len(block)
        self.insertions = insertions
        self.ejections = ejections
        self.now = float(stamps[-1])


class TimeDecayOracle(ListStore):
    """Rate-adaptive wall-clock decay on lists."""

    def __init__(self, lam_time, capacity, rate_memory, rng):
        super().__init__(capacity, rng)
        self.lam_time = lam_time
        self.rate_memory = rate_memory
        self.now = 0.0
        self.mean_gap = None
        self.timestamps = []
        self.insert_probs = []

    def extras(self):
        return {
            "now": self.now,
            "mean_gap": self.mean_gap,
            "timestamps": list(self.timestamps),
            "insert_probs": list(self.insert_probs),
        }

    def current_insertion_probability(self):
        if self.mean_gap is None or self.mean_gap <= 0.0:
            return 1.0
        rate = 1.0 / self.mean_gap
        if not math.isfinite(rate) or rate <= 0.0:
            return 1.0
        return min(1.0, self.capacity * self.lam_time / rate)

    def _update_rate(self, gap):
        if self.mean_gap is None:
            self.mean_gap = gap if gap > 0 else None
        else:
            self.mean_gap += self.rate_memory * (gap - self.mean_gap)

    def _run_decay(self, delta):
        mean = self.lam_time * delta * self.capacity
        if mean <= 0.0:
            return
        for _ in range(int(self.rng.poisson(mean))):
            size = len(self.payloads)
            if size == 0:
                break
            if self.rng.random() < size / self.capacity:
                victim = int(self.rng.integers(size))
                self.payloads[victim] = self.payloads[-1]
                self.arrivals[victim] = self.arrivals[-1]
                self.timestamps[victim] = self.timestamps[-1]
                self.insert_probs[victim] = self.insert_probs[-1]
                self.payloads.pop()
                self.arrivals.pop()
                self.timestamps.pop()
                self.insert_probs.pop()
                self.ejections += 1
                self._record_op(("compact",))

    def offer_at(self, payload, timestamp):
        timestamp = float(timestamp)
        delta = timestamp - self.now
        if self.t > 0:
            self._update_rate(delta)
        self.now = timestamp
        self.t += 1
        self.offers += 1
        self._run_decay(delta)
        p_in = self.current_insertion_probability()
        if self.rng.random() >= p_in:
            return False
        if self.is_full:
            victim = int(self.rng.integers(len(self.payloads)))
            self._replace_at(victim, payload)
            self.timestamps[victim] = timestamp
            self.insert_probs[victim] = p_in
        else:
            self._append(payload)
            self.timestamps.append(timestamp)
            self.insert_probs.append(p_in)
        return True

    def offer(self, payload):
        return self.offer_at(payload, self.now + 1.0)


class GeneralBiasOracle(ListStore):
    """Per-arrival redistribution for any monotone bias, on lists."""

    def __init__(self, bias, target_size, rng, capacity_slack=3.0):
        super().__init__(max(1, int(target_size * capacity_slack)), rng)
        self.bias = bias
        self.target_size = target_size
        self.weight_sum = 0.0
        self.probs = []

    def extras(self):
        return {"weight_sum": self.weight_sum, "probs": list(self.probs)}

    def offer(self, payload):
        t_next = self.t + 1
        try:
            self.weight_sum = self.bias.incremental_weight_sum(
                self.weight_sum, t_next
            )
        except NotImplementedError:
            indices = np.arange(1, t_next + 1)
            self.weight_sum = float(self.bias.weights(indices, t_next).sum())
        self.t = t_next
        self.offers += 1
        const = self.target_size / self.weight_sum
        survivors_p, survivors_a, survivors_prob = [], [], []
        removed = False
        for pay, arr, p_old in zip(self.payloads, self.arrivals, self.probs):
            p_new = min(1.0, const * self.bias.weight(arr, self.t))
            keep_prob = 1.0 if p_old <= 0.0 else min(1.0, p_new / p_old)
            if self.rng.random() < keep_prob:
                survivors_p.append(pay)
                survivors_a.append(arr)
                survivors_prob.append(p_new)
            else:
                self.ejections += 1
                removed = True
        self.payloads = survivors_p
        self.arrivals = survivors_a
        self.probs = survivors_prob
        # The list-backed sampler opted out of the mutation log; these
        # records are the ones the array store writes for the same step.
        if removed:
            self._record_op(("compact",))
        p_new_point = min(1.0, const * self.bias.weight(self.t, self.t))
        if self.rng.random() < p_new_point and self.size < self.capacity:
            self._append(payload)
            self.probs.append(p_new_point)
            return True
        return False
