"""Tests for the request model."""

from __future__ import annotations

import math

import pytest

from repro.core.request import Batch, DiskRequest, RequestFactory
from tests.conftest import make_request


class TestDiskRequest:
    def test_defaults(self):
        r = make_request()
        assert r.deadline_ms == math.inf
        assert not r.has_deadline
        assert r.priorities == ()
        assert not r.is_write

    def test_validation(self):
        with pytest.raises(ValueError):
            make_request(cylinder=-1)
        with pytest.raises(ValueError):
            make_request(nbytes=-1)
        with pytest.raises(ValueError):
            make_request(priorities=(0, -2))

    @pytest.mark.parametrize("arrival", (math.nan, math.inf, -math.inf))
    def test_rejects_non_finite_arrival(self, arrival):
        """A NaN arrival compares false both ways, so the legacy heap
        and the batched engine's bisection would serve such a request
        in different orders; no engine may be handed one."""
        with pytest.raises(ValueError, match="arrival_ms must be finite"):
            make_request(arrival_ms=arrival)

    def test_relative_deadline(self):
        r = make_request(arrival_ms=100.0, deadline_ms=600.0)
        assert r.relative_deadline_ms == 500.0
        assert r.slack_ms(300.0) == 300.0

    def test_frozen(self):
        r = make_request()
        with pytest.raises(AttributeError):
            r.cylinder = 5  # type: ignore[misc]

    def test_dominates(self):
        high = make_request(priorities=(0, 1))
        low = make_request(priorities=(2, 1))
        assert high.dominates(low)
        assert not low.dominates(high)
        assert not high.dominates(high)  # not strictly better anywhere

    def test_dominates_incomparable(self):
        a = make_request(priorities=(0, 3))
        b = make_request(priorities=(3, 0))
        assert not a.dominates(b)
        assert not b.dominates(a)

    def test_dominates_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_request(priorities=(0,)).dominates(
                make_request(priorities=(0, 1))
            )

    def test_with_priorities(self):
        r = make_request(priorities=(1, 2))
        r2 = r.with_priorities([3, 4])
        assert r2.priorities == (3, 4)
        assert r.priorities == (1, 2)
        assert r2.request_id == r.request_id


class TestRequestFactory:
    def test_unique_increasing_ids(self):
        factory = RequestFactory()
        a = factory(0.0, 0, 1024)
        b = factory(1.0, 5, 1024)
        assert (a.request_id, b.request_id) == (0, 1)
        assert factory.issued == 2

    def test_start_id(self):
        factory = RequestFactory(start_id=100)
        assert factory(0.0, 0, 0).request_id == 100

    def test_kwargs_forwarded(self):
        factory = RequestFactory()
        r = factory(0.0, 3, 512, priorities=(1,), is_write=True)
        assert r.priorities == (1,)
        assert r.is_write


class TestBatch:
    def test_sorted_by_arrival(self):
        batch = Batch()
        batch.add(make_request(request_id=1, arrival_ms=5.0))
        batch.add(make_request(request_id=2, arrival_ms=1.0))
        ordered = batch.sorted_by_arrival()
        assert [r.request_id for r in ordered] == [2, 1]

    def test_len_and_iter(self):
        batch = Batch([make_request(request_id=1)])
        assert len(batch) == 1
        assert [r.request_id for r in batch] == [1]
