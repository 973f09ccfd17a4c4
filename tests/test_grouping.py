import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neighbornorm.grouping import (
    NORM_FLOOR,
    cosine_similarity_matrix,
    first_neighbor_components,
    first_neighbor_labels,
    first_neighbor_partition,
)
from neighbornorm.tensors import sample_moments

from oracles import loop_cosine, loop_instance_means, union_find_partition
from support import instance_means


def maps_with_instance_means(means, h=2, w=2):
    """Feature maps whose per-channel spatial means equal the given rows."""
    means = np.asarray(means, dtype=np.float32)
    return np.repeat(means[:, :, None, None], h * w, axis=2).reshape(means.shape[0], means.shape[1], h, w)


def assert_valid_partition(part, b):
    all_idx = np.sort(np.concatenate(part.groups))
    assert np.array_equal(all_idx, np.arange(b))
    assert len(part.groups) >= 1
    assert all(len(g) > 0 for g in part.groups)


class TestInstanceMeans:
    """The grouping's instance means: `sample_moments` sums over the positions."""

    def test_constant_channels(self):
        x = maps_with_instance_means([[1.0, 2.0]])
        np.testing.assert_array_equal(instance_means(x)[0], [1.0, 2.0])

    def test_single_spatial_position_is_verbatim(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3, 1, 1)
        np.testing.assert_array_equal(instance_means(x), x[:, :, 0, 0])

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 1, 3)).astype(np.float32)
        np.testing.assert_allclose(instance_means(x), loop_instance_means(x), rtol=1e-6, atol=1e-9)


class TestCosineSimilarity:
    def test_orthogonal_rows(self):
        sim = cosine_similarity_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert sim[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(5)
        sim = cosine_similarity_matrix(rng.normal(size=(6, 4)))
        np.testing.assert_allclose(np.diag(sim), 1.0, atol=1e-6)

    def test_hand_value(self):
        # (1,2).(2,1) / (sqrt5 * sqrt5) = 4/5
        sim = cosine_similarity_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert sim[0, 1] == pytest.approx(0.8)

    def test_symmetric_bounded(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(20, 8))
        sim = cosine_similarity_matrix(m)
        assert np.array_equal(sim, sim.T)
        assert sim.min() >= -1.0 and sim.max() <= 1.0

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(ValueError, match=r"expected \(B, C\) matrix"):
            cosine_similarity_matrix(np.ones(shape))

    def test_zero_row_is_floored_not_nan(self):
        m = np.array([[0.0, 0.0], [1.0, 1.0]])
        sim = cosine_similarity_matrix(m)
        assert np.isfinite(sim).all()

    @pytest.mark.parametrize("c", [8, 16])
    @pytest.mark.parametrize("b", [2, 63, 64, 65, 129, 256, 300])
    def test_product_runs_in_64_row_blocks(self, b, c):
        # each 64-row block is its own GEMM, too small to wake a BLAS thread; up to 64 rows that is the
        # whole-batch product. Above, BLAS may round a block's rows unlike the whole product's (a one-row
        # tail takes its matrix-vector path), so there the whole product is a close oracle, not a bitwise one
        rng = np.random.default_rng(b * 100 + c)
        means = rng.normal(size=(b, c)) + rng.normal(size=c)
        unit = means / np.maximum(np.linalg.norm(means, axis=1), NORM_FLOOR)[:, None]
        unit_t = np.ascontiguousarray(unit.T)
        blocks, whole = np.concatenate([unit[i : i + 64] @ unit_t for i in range(0, b, 64)]), unit @ unit_t
        sim = cosine_similarity_matrix(means)
        assert sim.tobytes() == np.clip((blocks + blocks.T) * 0.5, -1.0, 1.0).tobytes()
        np.testing.assert_allclose(sim, np.clip((whole + whole.T) * 0.5, -1.0, 1.0), rtol=0, atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(7, 5))
        sim = cosine_similarity_matrix(m)
        for i in range(7):
            for j in range(7):
                assert sim[i, j] == pytest.approx(loop_cosine(m[i], m[j]), abs=1e-12)


class TestFirstNeighborAdjacency:
    """The links of the first-neighbor graph: the `first` array, i -> first[i]."""

    def test_two_samples_are_mutual(self):
        labels, count = first_neighbor_labels(np.array([[1.0, 0.2], [0.3, 1.0]]))
        np.testing.assert_array_equal(labels, [0, 0])
        assert count == 1

    def test_three_linking_clauses(self):
        # means whose cosines are these: first = [1, 0, 1], so (0,1) is mutual, (2,1) links via
        # first[2]=1, and (0,2), which share neighbor 1, join through it without a clause of their own
        sim = np.array([[1.0, 0.9, 0.2], [0.9, 1.0, 0.3], [0.2, 0.3, 1.0]])
        means = np.linalg.cholesky(sim)
        np.testing.assert_allclose(cosine_similarity_matrix(means), sim, atol=1e-12)
        labels, count = first_neighbor_labels(means)
        np.testing.assert_array_equal(labels, [0, 0, 0])
        assert count == 1

    def test_shared_neighbor_chains_join_through_pair(self):
        # 2 -> 0 and 3 -> 0 share a neighbor; 4 -> 2 hangs off 2; (5, 6) is a second pair
        first = np.array([1, 0, 0, 0, 2, 6, 5])
        labels, count = first_neighbor_components(first)
        np.testing.assert_array_equal(labels, [0, 0, 0, 0, 0, 1, 1])
        assert count == 2

    def test_group_ids_follow_smallest_member(self):
        # pairs (4, 5) and (1, 2); 0 hangs off 5 and 3 off 1, so 0's group is id 0
        first = np.array([5, 2, 1, 1, 5, 4])
        labels, count = first_neighbor_components(first)
        np.testing.assert_array_equal(labels, [0, 1, 1, 1, 0, 0])
        assert count == 2

    def test_long_chain_reaches_its_pair(self):
        # a path b-1 -> b-2 -> ... -> 1 <-> 0 needs every pointer-jumping round; one round short
        # leaves 2, 2, 31 and 2 groups at b = 7, 11, 64 and 67
        for b in (7, 10, 11, 64, 67):
            labels, count = first_neighbor_components(np.concatenate([[1], np.arange(0, b - 1)]))
            assert count == 1 and not labels.any(), b

    def test_tie_break_lowest_index(self):
        # sample 2 is exactly as similar to pair (0, 1) as to pair (3, 4): the lower index wins
        labels, count = first_neighbor_labels(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1])
        assert count == 2
        labels, count = first_neighbor_labels(np.ones((5, 3)))  # all tied: first = [1, 0, 0, 0, 0]
        np.testing.assert_array_equal(labels, np.zeros(5))
        assert count == 1
        part = first_neighbor_partition(maps_with_instance_means(np.ones((5, 3))))
        assert len(part.groups) == 1

    def test_diagonal_never_wins(self):
        # a sample that were its own first neighbor would be a group of one
        rng = np.random.default_rng(17)
        for b in (2, 3, 10, 64):
            labels, count = first_neighbor_labels(rng.normal(size=(b, 6)))
            assert np.bincount(labels, minlength=count).min() >= 2


@st.composite
def generated_means(draw):
    """(B, C) instance means, B 2-300, in a drawn order: a chain in channels 0-1 whose angular gaps shrink
    geometrically, so each sample's first neighbor is the next one down to a mutual pair at its end; zero rows;
    duplicated rows (exact ties), some scaled by a power of two, which leaves the unit row bitwise the same; and
    Gaussian rows for the rest."""
    b, c = draw(st.integers(2, draw(st.sampled_from([16, 64, 300])))), draw(st.integers(2, 4))  # the oracle is O(B^2 C)
    chain = draw(st.integers(0, b))
    zeros = draw(st.integers(0, b - chain))
    duplicates = draw(st.integers(0, max(b - chain - zeros - 1, 0)))  # copies of at least one other row
    last_to_first_gap, span = draw(st.floats(0.05, 0.9)), draw(st.floats(0.5, 3.0))  # span < pi: no wrap-around
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = last_to_first_gap ** (np.arange(chain - 1) / max(chain - 2, 1))
    angles = np.concatenate([[0.0], np.cumsum(gaps)])[:chain] * span / max(gaps.sum(), 1.0)
    rows = np.zeros((chain, c))
    rows[:, 0], rows[:, 1] = np.cos(angles), np.sin(angles)
    rows *= rng.uniform(0.5, 2.0, (chain, 1))
    rows = np.concatenate([rows, rng.normal(size=(b - chain - zeros - duplicates, c)), np.zeros((zeros, c))])
    copies = rows[rng.integers(0, len(rows), duplicates)] * 2.0 ** rng.integers(-2, 3, (duplicates, 1))
    means = np.concatenate([rows, copies])
    return means[rng.permutation(b)] if draw(st.booleans()) else means


class TestGeneratedMeans:
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(generated_means())
    def test_labels_match_union_find_oracle(self, means):
        labels, count = first_neighbor_labels(means)
        groups = [np.flatnonzero(labels == g).tolist() for g in range(count)]
        assert groups == union_find_partition(means[:, :, None, None])

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(generated_means(), st.data())
    def test_a_segment_labels_each_batch_as_alone(self, means, data):
        # with `segment`, each run of that many rows is a batch: its labels are those it gets alone, ties and zero
        # rows included, shifted past the groups of the batches before it
        b = len(means)
        segment = data.draw(st.sampled_from([d for d in range(2, b + 1) if b % d == 0]))
        alone = [first_neighbor_labels(means[i : i + segment]) for i in range(0, b, segment)]
        offsets = np.cumsum([0] + [count for _, count in alone])
        labels, count = first_neighbor_labels(means, segment)
        assert np.array_equal(labels, np.concatenate([ids + k for (ids, _), k in zip(alone, offsets)]))
        assert count == offsets[-1]


def unique_components(first: np.ndarray) -> tuple[np.ndarray, int]:
    """`first_neighbor_components` as first written, kept as its reference: the same pointer jumping, then the pairs'
    `np.unique`, each group's id the rank of its first index by a double argsort."""
    first = np.asarray(first, dtype=np.intp)
    reach = first
    for _ in range((first.shape[0] - 1).bit_length()):
        reach = reach[reach]
    pair = np.minimum(reach, first[reach])
    _, smallest, labels = np.unique(pair, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(smallest))[labels], smallest.size


@st.composite
def first_neighbor_graphs(draw):
    """A `first` array of B 1-300 samples whose only cycles are mutual pairs and lone samples' self-loops: either the
    first neighbors of generated means (ties and zero rows among them), masked to a stack of batches of a drawn
    segment as `first_neighbor_labels` masks them, or drawn as a graph: pairs and self-loops, then every other
    sample pointing at one placed before it, in a drawn order."""
    if draw(st.booleans()):
        means = draw(generated_means()) if draw(st.integers(0, 9)) else np.ones((1, 3))
        b = len(means)
        segment = draw(st.sampled_from([d for d in range(2, b + 1) if b % d == 0] or [1]))
        sim, batch = cosine_similarity_matrix(means), np.arange(b) // segment
        sim[batch[:, None] != batch] = -np.inf
        np.fill_diagonal(sim, -np.inf)
        return np.argmax(sim, axis=1) if b > 1 else np.zeros(1, np.intp)
    b = draw(st.integers(1, 300))
    pairs = draw(st.integers(0, b // 2))
    lone = draw(st.integers(0 if pairs else 1, min(b - 2 * pairs, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order, first = rng.permutation(b), np.empty(b, np.intp)
    first[order[0 : 2 * pairs : 2]], first[order[1 : 2 * pairs : 2]] = order[1 : 2 * pairs : 2], order[0 : 2 * pairs : 2]
    first[order[2 * pairs : 2 * pairs + lone]] = order[2 * pairs : 2 * pairs + lone]
    for j in range(2 * pairs + lone, b):  # often onto a few early samples, so many share a first neighbor
        first[order[j]] = order[rng.integers(0, j if rng.random() < 0.5 else min(j, 3))]
    return first


class TestGeneratedGraphs:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(first_neighbor_graphs())
    def test_components_match_the_unique_formulation(self, first):
        # the scattered smallest members and cumsum ranks are the np.unique / argsort labels, id for id
        labels, count = first_neighbor_components(first)
        expected, expected_count = unique_components(first)
        assert labels.dtype == np.intp and type(count) is int
        assert np.array_equal(labels, expected) and count == expected_count


class TestPartition:
    def test_singleton_batch(self):
        part = first_neighbor_partition(np.ones((1, 3, 2, 2), np.float32))
        assert len(part.groups) == 1
        np.testing.assert_array_equal(part.groups[0], [0])

    def test_two_axis_aligned_groups_are_pure(self):
        rng = np.random.default_rng(23)
        means = np.zeros((8, 4), dtype=np.float64)
        means[:4, 0] = 1.0
        means[4:, 1] = 1.0
        means += rng.uniform(-0.01, 0.01, size=means.shape)
        x = maps_with_instance_means(means)
        part = first_neighbor_partition(x)
        assert_valid_partition(part, 8)
        for g in part.groups:
            sides = {int(i) < 4 for i in g.tolist()}
            assert len(sides) == 1  # no group mixes the two constructed clusters

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            b = int(rng.integers(2, 24))
            c = int(rng.integers(1, 8))
            x = rng.normal(size=(b, c, 2, 3)).astype(np.float32)
            part = first_neighbor_partition(x)
            assert [g.tolist() for g in part.groups] == union_find_partition(x)

    def test_partition_invariants_and_neighbor_co_membership(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            b = int(rng.integers(2, 32))
            x = rng.normal(size=(b, 5, 2, 2)).astype(np.float32)
            part = first_neighbor_partition(x)
            assert_valid_partition(part, b)
            sim = cosine_similarity_matrix(instance_means(x))
            np.fill_diagonal(sim, -np.inf)
            first = sim.argmax(axis=1)
            labels = np.empty(b, np.intp)
            for g, members in enumerate(part.groups):
                labels[members] = g
            assert np.array_equal(labels[first], labels)  # i groups with first[i]
            assert len(part.groups) <= -(-b // 2)

    def test_determinism(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(16, 4, 3, 3)).astype(np.float32)
        a = first_neighbor_partition(x)
        b = first_neighbor_partition(x.copy())
        assert [g.tolist() for g in a.groups] == [g.tolist() for g in b.groups]

    def test_scale_invariance(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(20, 6, 2, 2)).astype(np.float32)
        base = [g.tolist() for g in first_neighbor_partition(x).groups]
        for scale in (2.0, 0.5, 3.7, 100.0):
            scaled = [g.tolist() for g in first_neighbor_partition(x * np.float32(scale)).groups]
            assert scaled == base

    def test_zero_feature_row_does_not_crash(self):
        x = np.ones((4, 2, 2, 2), dtype=np.float32)
        x[1] = 0.0
        part = first_neighbor_partition(x)
        assert_valid_partition(part, 4)

    def test_matches_union_find_oracle_with_exact_ties(self):
        # Ties that are exact in floating point: duplicated instance-mean rows
        # and all-equal rows, up to B = 128; B = 1 and B = 2 included.
        rng = np.random.default_rng(43)
        sizes = [1, 2, 2, 3, 128] + [int(b) for b in rng.integers(2, 129, 10)]
        for trial, b in enumerate(sizes):
            c = int(rng.integers(1, 9))
            if trial % 3 == 2:
                means = np.full((b, c), rng.normal())
            else:
                rows = rng.normal(size=(max(1, b // 3), c))
                means = rows[rng.integers(0, rows.shape[0], b)]
            x = maps_with_instance_means(means, h=1, w=2)
            part = first_neighbor_partition(x)
            assert [g.tolist() for g in part.groups] == union_find_partition(x), (trial, b)


class TestInstanceMeansFromSampleMoments:
    def test_equal_to_sample_sums_over_positions_at_stock_shapes(self):
        rng = np.random.default_rng(47)
        for shape in [(64, 8, 16, 16), (64, 16, 8, 8)]:
            x = rng.normal(loc=rng.normal(size=(shape[0], 1, 1, 1)), size=shape).astype(np.float32)
            sums, _ = sample_moments(x)
            expected = x.reshape(shape[0], shape[1], -1).astype(np.float64).mean(axis=2)
            assert np.array_equal(sums / (shape[2] * shape[3]), expected)
            labels, count = first_neighbor_labels(expected)
            groups = [g.tolist() for g in first_neighbor_partition(x).groups]
            assert groups == [np.flatnonzero(labels == g).tolist() for g in range(count)]
