"""Property-based tests for the correlation machinery (eqs. 9-13)."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.detection.correlation import (
    cluster_correlation,
    longest_consistent_chain,
    majority_side,
    row_energy_correlation,
    row_time_correlation,
)
from repro.detection.reports import RowObservation

_pairs = st.lists(
    st.tuples(
        st.floats(0.0, 1e3, allow_nan=False),
        st.floats(0.0, 1e3, allow_nan=False),
    ),
    max_size=30,
)

_observations = st.lists(
    st.builds(
        RowObservation,
        node_id=st.integers(0, 100),
        distance_to_track=st.floats(0.0, 200.0, allow_nan=False),
        onset_time=st.floats(0.0, 1e4, allow_nan=False),
        energy=st.floats(0.0, 1e3, allow_nan=False),
        side=st.sampled_from([-1, 1]),
    ),
    max_size=12,
)


@given(_pairs)
def test_chain_length_bounded(pairs):
    n = longest_consistent_chain(pairs)
    assert 0 <= n <= len(pairs)


@given(_pairs)
def test_chain_at_least_one_when_nonempty(pairs):
    if pairs:
        assert longest_consistent_chain(pairs) >= 1


@given(_pairs)
def test_chain_permutation_invariant(pairs):
    assert longest_consistent_chain(pairs) == longest_consistent_chain(
        list(reversed(pairs))
    )


@given(st.lists(st.floats(0.0, 1e3, allow_nan=False), min_size=1, max_size=20))
def test_sorted_distinct_pairs_fully_chained(values):
    distinct = sorted(set(values))
    pairs = [(v, v) for v in distinct]
    assert longest_consistent_chain(pairs) == len(distinct)


@given(_observations)
def test_row_correlations_in_unit_interval(observations):
    for fn in (row_time_correlation, row_energy_correlation):
        value = fn(observations)
        assert 0.0 <= value <= 1.0


@given(_observations)
def test_cluster_correlation_product_relation(observations):
    rows = [observations]
    cnt, cne, c = cluster_correlation(rows)
    assert c == cnt * cne
    assert 0.0 <= c <= 1.0


@given(_observations)
def test_majority_side_partitions(observations):
    kept = majority_side(observations)
    assert len(kept) >= (len(observations) + 1) // 2 or not observations
    sides = {o.side for o in kept}
    assert len(sides) <= 1


@given(_observations, _observations)
def test_more_rows_never_increase_product(row_a, row_b):
    _, _, c_one = cluster_correlation([row_a])
    _, _, c_two = cluster_correlation([row_a, row_b])
    assert c_two <= c_one + 1e-12
