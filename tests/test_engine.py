"""Chunked Monte Carlo runner: moments of the concatenated values, chunk
order, thread-count invariance, the replication check every estimator
relies on, the doubling rule."""

import numpy as np
import pytest

from pickands import engine
from pickands.estimators import crosscheck, est_continuous_dy, est_definitional, estimate
from pickands.maxstable import est_candidate_theta, est_extremal_index_blocks, fdd_probability
from pickands.models import VarianceFunction
from pickands.smallball import est_smallball_prob

FBM15 = VarianceFunction.fbm(1.5)


def _toy(rng, count):
    """Two columns of skewed per-replication values."""
    e = rng.exponential(size=count)
    return np.stack([e, np.square(e) + rng.standard_normal(count)], axis=1)


class TestRun:
    REPS, N_COLS = 20_000, 1 << 12  # chunks of 1024: 19 full chunks and one of 544

    def test_plan_has_several_chunks(self):
        plan = engine.chunk_plan(self.REPS, self.N_COLS)
        assert len(plan) == 20 and sum(plan) == self.REPS and plan[-1] == 544

    def test_matches_concatenated_values(self):
        values = np.concatenate(engine.map_chunks(_toy, 5, self.REPS, self.N_COLS))
        mean, se = engine.run(_toy, 5, self.REPS, self.N_COLS)
        assert values.shape == (self.REPS, 2)
        assert np.allclose(mean, values.mean(axis=0), rtol=1e-12, atol=0)
        assert np.allclose(se, values.std(axis=0, ddof=1) / np.sqrt(self.REPS), rtol=1e-9, atol=0)

    def test_dict_of_values_shares_the_chunks(self):
        def both(rng, count):
            v = _toy(rng, count)
            return {"first": v[:, 0], "all": v}

        out = engine.run(both, 5, self.REPS, self.N_COLS)
        alone = engine.run(_toy, 5, self.REPS, self.N_COLS)
        for a, b in zip(out["all"], alone):
            assert a.tobytes() == b.tobytes()
        assert out["first"][0].shape == (1,)
        assert np.allclose([m[0] for m in out["first"]], [m[0] for m in alone], rtol=1e-12, atol=0)

    def test_thread_count_invariance(self, monkeypatch):
        monkeypatch.setenv("PICKANDS_THREADS", "1")
        one = engine.run(_toy, 6, self.REPS, self.N_COLS)
        monkeypatch.setenv("PICKANDS_THREADS", "3")
        three = engine.run(_toy, 6, self.REPS, self.N_COLS)
        for a, b in zip(one, three):
            assert a.tobytes() == b.tobytes()

    def test_single_replication_rejected(self):
        with pytest.raises(ValueError):
            engine.run(_toy, 0, 1, 1)


# every public estimator called with one replication
SINGLE_REPLICATION = {
    "estimate": lambda: estimate(FBM15, "exceedance", 1.0, 1),
    "est_definitional": lambda: est_definitional(FBM15, 1.0, 2.0, 1),
    "est_continuous_dy": lambda: est_continuous_dy(FBM15, 0.5, 2.0, 1),
    "crosscheck": lambda: crosscheck(FBM15, 1.0, 1),
    "fdd_probability": lambda: fdd_probability(FBM15, [0.0, 1.0], [2.0, 3.0], 1),
    "est_extremal_index_blocks": lambda: est_extremal_index_blocks(FBM15, 1.0, 100, 1),
    "est_candidate_theta": lambda: est_candidate_theta(FBM15, 1.0, 1),
    "est_smallball_prob": lambda: est_smallball_prob(1.5, 0.1, 16, 1),
}


@pytest.mark.parametrize("name", SINGLE_REPLICATION)
def test_estimators_reject_one_replication_before_drawing(name, monkeypatch):
    def no_draws(seed, chunk):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(engine, "chunk_stream", no_draws)
    with pytest.raises(ValueError, match="^need at least two replications to form a standard error$"):
        SINGLE_REPLICATION[name]()


class TestRowBlocks:
    @pytest.mark.parametrize("n_rows,row_bytes", [(1, 8), (5, 1 << 22), (1000, 1 << 12), (1023, 1 << 12)])
    def test_cover_in_order_and_never_short(self, n_rows, row_bytes):
        blocks = engine.row_blocks(n_rows, row_bytes)
        step = max(2, engine.ROW_BLOCK_BYTES // row_bytes)
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n_rows))
        assert all(step <= b.stop - b.start < 2 * step for b in blocks) or len(blocks) == 1


class TestDoublingStable:
    def test_last_doubling_decides(self):
        # only the last doubling counts: 1.52 -> 1.52 is stable whatever came before
        means, ses = np.array([1.0, 1.5, 1.52, 1.52]), np.array([0.1, 0.1, 0.3, 0.3])
        assert engine.doubling_stable(means, ses)
        assert not engine.doubling_stable(means[:2], ses[:2])

    def test_moving_estimate_is_unstable(self):
        means, ses = np.array([1.0, 2.0, 3.0]), np.full(3, 0.1)
        assert not engine.doubling_stable(means, ses)

    def test_tolerance_is_a_tenth_of_the_deeper_se(self):
        ses = np.array([1.0, 0.5])
        assert engine.doubling_stable(np.array([1.0, 1.04]), ses)
        assert not engine.doubling_stable(np.array([1.0, 1.06]), ses)
