"""Adversarial-stream invariant checks (fast tier).

Every sampler family is driven over every hostile stream shape —
bursts, heavy duplication, constants, numeric extremes — with
structural invariants checked at every checkpoint and determinism
asserted across re-runs. This is the fast-tier complement of the
``statistical`` conformance specs: it runs on every push.
"""

import numpy as np
import pytest

from repro.core.unbiased import UnbiasedReservoir
from repro.verify import (
    ADVERSARIAL_STREAMS,
    SAMPLER_FAMILIES,
    adversarial_stream,
    check_state_invariants,
    run_all_invariants,
    run_invariant_case,
)

CASES = [
    (family, stream)
    for family in sorted(SAMPLER_FAMILIES)
    for stream in sorted(ADVERSARIAL_STREAMS)
]


class TestStreams:
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_STREAMS))
    def test_streams_are_deterministic_and_sized(self, name):
        a = adversarial_stream(name, length=500, seed=3)
        b = adversarial_stream(name, length=500, seed=3)
        assert a == b
        assert len(a) == 500

    def test_burst_stream_contains_runs(self):
        stream = adversarial_stream("bursts", length=2000, seed=0)
        arr = np.asarray(stream)
        runs = np.flatnonzero(np.diff(arr) == 0.0)
        assert runs.size > 100  # long identical runs exist

    def test_unknown_stream_rejected(self):
        with pytest.raises(KeyError, match="unknown stream"):
            adversarial_stream("nope")


class TestInvariantHarness:
    @pytest.mark.parametrize("family,stream", CASES)
    def test_family_survives_stream(self, family, stream):
        result = run_invariant_case(family, stream, length=800, seed=0)
        assert result.passed, result.violations

    def test_run_all_invariants_covers_matrix(self):
        results = run_all_invariants(length=300, seed=0)
        pairs = {(r.family, r.stream) for r in results}
        assert len(pairs) == len(results)  # no duplicate cases
        assert len(results) == len(CASES) + 2  # + timestamp-ordering cases
        assert all(r.passed for r in results), [
            (r.family, r.stream, r.violations) for r in results if not r.passed
        ]

    def test_timestamp_ordering_cases_present(self):
        results = run_all_invariants(length=300, seed=0)
        reversed_cases = [
            r for r in results if r.stream == "reversed-timestamps"
        ]
        assert {r.family for r in reversed_cases} == {
            "timestamped",
            "time_decay",
        }

    def test_to_dict_shape(self):
        result = run_invariant_case("unbiased", "constant", length=300)
        payload = result.to_dict()
        assert payload["family"] == "unbiased"
        assert payload["stream"] == "constant"
        assert payload["passed"] is True
        assert payload["violations"] == []


class TestStateChecker:
    def test_clean_sampler_has_no_violations(self):
        res = UnbiasedReservoir(10, rng=0)
        res.extend(range(100))
        assert check_state_invariants(res) == []

    def test_detects_capacity_overflow(self):
        res = UnbiasedReservoir(10, rng=0)
        res.extend(range(20))
        # Corrupt the state on purpose: one resident past capacity.
        res._pay = np.append(res._pay, "extra")
        res._arr = np.append(res._arr, res.t)
        res._size += 1
        violations = check_state_invariants(res)
        assert any("capacity" in v for v in violations)

    def test_detects_bad_arrival_index(self):
        res = UnbiasedReservoir(10, rng=0)
        res.extend(range(20))
        res._arr[0] = 999  # out of [1, t]
        violations = check_state_invariants(res)
        assert any("arrival indices" in v for v in violations)

    def test_detects_counter_drift(self):
        res = UnbiasedReservoir(10, rng=0)
        res.extend(range(20))
        res.insertions += 5
        violations = check_state_invariants(res)
        assert any("insertions - ejections" in v for v in violations)
