"""Property battery: ``PrioritySFCStage.encode_many`` vs per-vector encode.

``encode_many`` looks every vector up in the stage-1 memo, computes
each *distinct* miss once in one vectorized curve call and scatters
the values back.  Its contract: the values equal per-vector
:meth:`~repro.core.encapsulator.PrioritySFCStage.encode`, and the memo
ends up exactly as a loop of ``encode`` calls would leave it -- the
first distinct misses in first-seen order while under the cap, never
beyond it.  The draws are duplicate-heavy (a small pool of vectors
repeated), mix memo hits with misses, include out-of-range levels the
quantizer clamps, and set the cap to 0, below the number of distinct
vectors, and above it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encapsulator import PrioritySFCStage

#: Analytic (sweep .. hilbert) and lookup-table (spiral, diagonal)
#: curve tiers of ``batch_index``.
CURVES = ("sweep", "cscan", "scan", "gray", "hilbert", "spiral",
          "diagonal")


@st.composite
def batches(draw):
    dims = draw(st.integers(1, 3))
    levels = draw(st.sampled_from((4, 8, 16)))
    vector = st.tuples(*[st.integers(0, 2 * levels)] * dims)
    pool = draw(st.lists(vector, min_size=1, max_size=24, unique=True))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), max_size=200))
    vectors = [pool[k] if k % 2 else list(pool[k]) for k in rows]
    warm = draw(st.lists(st.sampled_from(pool), max_size=len(pool)))
    return dims, levels, vectors, warm


def fresh_stage(curve: str, dims: int, levels: int,
                cap: int) -> PrioritySFCStage:
    stage = PrioritySFCStage.from_name(curve, dims=dims, levels=levels)
    stage._memo_cap = cap
    return stage


@settings(max_examples=150, deadline=None)
@given(curve=st.sampled_from(CURVES), batch=batches(),
       cap_kind=st.sampled_from(("zero", "below", "above")))
def test_encode_many_matches_encode(curve, batch, cap_kind):
    dims, levels, vectors, warm = batch
    distinct = len({tuple(v) for v in vectors} | set(warm))
    cap = {"zero": 0, "below": max(distinct - 1, 0),
           "above": distinct + 5}[cap_kind]
    batched = fresh_stage(curve, dims, levels, cap)
    scalar = fresh_stage(curve, dims, levels, cap)
    for vector in warm:                     # memo hits for the batch
        batched.encode(vector)
        scalar.encode(vector)

    values = batched.encode_many(vectors)

    assert values.dtype.name == "float64"
    assert values.tolist() == [float(scalar.encode(v)) for v in vectors]
    assert batched._memo == scalar._memo
    assert batched.memo_size <= cap

