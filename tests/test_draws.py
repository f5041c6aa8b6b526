"""Draw containers: concatenation, the antithetic half split and member-tagged slicing.

Properties over random batch sizes, member tags and sub-batch splits.  The
multilevel gradient concatenates an iteration's per-level batches and finds
each level's halves by row position; both are checked to keep the draw order.
Tagged slices and concatenations are checked against a per-row walk computed
here, and every likelihood family is checked to score a one-row batch exactly
as the matching row of the full batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdattack.attacks.feasible import FeasibleSet
from ppdattack.attacks.graybox import (
    EnsembleMember,
    MixtureLikelihood,
    ModelEnsemble,
    TaggedBatch,
)
from ppdattack.attacks.ppd import MlmcConfig, delta_level
from ppdattack.bayes.draws import DrawBatch
from ppdattack.bayes.likelihoods import (
    BernoulliLogit,
    CategoricalSoftmax,
    FeatureSubsetModel,
    GaussianLinear,
    SmallBnn,
)

SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=60, deadline=None)


def random_batch(rng, m, k):
    return DrawBatch(rng.standard_normal((m, k)), rng.uniform(0.5, 2.0, m))


@st.composite
def tagged_batches(draw, n_members=None):
    m = 2 * draw(st.integers(1, 24))
    n_members = n_members or draw(st.integers(1, 4))
    ids = np.array(draw(st.lists(st.integers(0, n_members - 1), min_size=m, max_size=m)))
    rng = np.random.default_rng(draw(SEEDS))
    subs = {int(k): random_batch(rng, int(np.count_nonzero(ids == k)), 2)
            for k in np.unique(ids)}
    return TaggedBatch(ids, subs)


def reference_rows(tagged, rows):
    # Per-row walk: row j is member k's n-th draw, n counting k's earlier rows.
    out = {}
    for j in range(*rows.indices(len(tagged))):
        k = int(tagged.member_ids[j])
        out.setdefault(k, []).append(int(np.count_nonzero(tagged.member_ids[:j] == k)))
    return out


@PROPERTY
@given(halves=st.lists(st.integers(1, 32), min_size=1, max_size=6), k=st.integers(1, 4),
       seed=SEEDS)
def test_halves_are_first_and_second_rows_in_order(halves, k, seed):
    # Each level's batch sits at its offset in the concatenation; its
    # antithetic halves are the first and second half of those rows.
    rng = np.random.default_rng(seed)
    batches = [random_batch(rng, 2 * half, k) for half in halves]
    joined = DrawBatch.concat(batches)
    assert len(joined) == sum(len(b) for b in batches)
    start = 0
    for half, batch in zip(halves, batches):
        first, second = joined[start : start + half], joined[start + half : start + 2 * half]
        assert np.array_equal(first.beta, batch.beta[:half])
        assert np.array_equal(first.phi, batch.phi[:half])
        assert np.array_equal(second.beta, batch.beta[half:])
        assert np.array_equal(second.phi, batch.phi[half:])
        start += 2 * half


@PROPERTY
@given(half=st.integers(0, 32), seed=SEEDS)
def test_halves_of_odd_size_raise(half, seed):
    # An odd batch has no antithetic halves: the config refuses an odd M0, and
    # delta_level refuses draws that do not fill its levels' even batches.
    batch = random_batch(np.random.default_rng(seed), 2 * half + 1, 2)
    fs = FeasibleSet(np.zeros(2), 1.0, "l2")
    with pytest.raises(ValueError):
        MlmcConfig(fs, M0=2 * half + 1)
    cfg = MlmcConfig(fs, M0=2)
    levels, ys = np.zeros(half, dtype=int), np.zeros(half)
    with pytest.raises(ValueError):
        delta_level(GaussianLinear(2), np.zeros(2), ys, levels, batch, cfg)
    ids = np.zeros(2 * half + 1, dtype=int)
    mixture = MixtureLikelihood(ModelEnsemble([EnsembleMember(GaussianLinear(2), None)]))
    with pytest.raises(ValueError):
        delta_level(mixture, np.zeros(2), ys, levels, TaggedBatch(ids, {0: batch}), cfg)


@PROPERTY
@given(tagged=tagged_batches(), data=st.data())
def test_tagged_slice_matches_per_row_reference(tagged, data):
    m = len(tagged)
    start = data.draw(st.integers(-m, m))
    stop = data.draw(st.integers(-m, m))
    step = data.draw(st.sampled_from([None, 1, 2, 3, -1, -2]))
    cuts = [slice(0, m // 2), slice(m // 2, m), slice(start, stop, step)]
    parts = [tagged[rows] for rows in cuts]
    for rows, part in zip(cuts, parts):
        assert np.array_equal(part.member_ids, tagged.member_ids[rows])
        want = reference_rows(tagged, rows)
        assert set(part.sub) == set(want)
        for k, idx in want.items():
            assert np.array_equal(part.sub[k].beta, tagged.sub[k].beta[idx])
            assert np.array_equal(part.sub[k].phi, tagged.sub[k].phi[idx])


@PROPERTY
@given(parts=st.lists(tagged_batches(n_members=3), min_size=1, max_size=4))
def test_tagged_concat_matches_per_row_reference(parts):
    # Member k's n-th row of the concatenation is member k's n-th draw
    # counted across the parts in order.
    joined = TaggedBatch.concat(parts)
    assert np.array_equal(joined.member_ids, np.concatenate([p.member_ids for p in parts]))
    want = {}
    for part in parts:
        for k, sub in part.sub.items():
            want.setdefault(int(k), []).append(sub)
    assert set(joined.sub) == set(want)
    for k, subs in want.items():
        assert np.array_equal(joined.sub[k].beta, np.concatenate([b.beta for b in subs]))
        assert np.array_equal(joined.sub[k].phi, np.concatenate([b.phi for b in subs]))
    for rows in (slice(0, len(parts[0])), slice(len(parts[0]), len(joined))):
        part = joined[rows]
        for k, idx in reference_rows(joined, rows).items():
            assert np.array_equal(part.sub[k].beta, joined.sub[k].beta[idx])


def family_cases(rng, m):
    bnn_g = SmallBnn(2, 3)
    bnn_c = SmallBnn(2, 3, likelihood="categorical", n_out=3)
    return [
        (GaussianLinear(3), 3, rng.standard_normal(m)),
        (BernoulliLogit(3), 3, rng.integers(0, 2, m).astype(float)),
        (CategoricalSoftmax(3, 4), 12, rng.integers(0, 4, m)),
        (bnn_g, bnn_g.n_params, rng.standard_normal(m)),
        (bnn_c, bnn_c.n_params, rng.integers(0, 3, m)),
        (FeatureSubsetModel(GaussianLinear(2), [0, 2], 3), 2, rng.standard_normal(m)),
    ]


@PROPERTY
@given(m=st.integers(1, 16), seed=SEEDS)
def test_one_row_batch_matches_full_batch_row(m, seed):
    rng = np.random.default_rng(seed)
    for model, n_params, ys in family_cases(rng, m):
        batch = random_batch(rng, m, n_params)
        x = rng.standard_normal(model.dim)
        ll = model.loglik(x, ys, batch)
        score = model.score_x(x, ys, batch)
        assert ll.shape == (m,) and score.shape == (m, model.dim)
        for i in range(m):
            row = batch[i : i + 1]
            name = type(model).__name__
            np.testing.assert_allclose(model.loglik(x, ys[i], row), ll[i : i + 1],
                                       rtol=1e-12, atol=1e-12, err_msg=name)
            np.testing.assert_allclose(model.score_x(x, ys[i], row), score[i : i + 1],
                                       rtol=1e-12, atol=1e-12, err_msg=name)
