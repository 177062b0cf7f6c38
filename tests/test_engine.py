"""Chunked Monte Carlo runner: moments of the concatenated values, chunk
order, thread-count invariance, the doubling rule."""

import numpy as np
import pytest

from pickands import engine


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

    def test_thread_count_invariance(self):
        one = engine.run(_toy, 6, self.REPS, self.N_COLS, threads=1)
        three = engine.run(_toy, 6, self.REPS, self.N_COLS, threads=3)
        for a, b in zip(one, three):
            assert a.tobytes() == b.tobytes()

    def test_single_replication_rejected(self):
        with pytest.raises(ValueError):
            engine.run(_toy, 0, 1, 1)


class TestRowBlocks:
    @pytest.mark.parametrize("n_rows,row_bytes", [(1, 8), (5, 1 << 22), (1000, 1 << 12), (1023, 1 << 12)])
    def test_cover_in_order_and_never_short(self, n_rows, row_bytes):
        blocks = engine.row_blocks(n_rows, row_bytes)
        step = max(2, engine.ROW_BLOCK_BYTES // row_bytes)
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n_rows))
        assert all(step <= b.stop - b.start < 2 * step for b in blocks) or len(blocks) == 1


class TestSelectLevel:
    def test_first_stable_step(self):
        means, ses = np.array([1.0, 1.5, 1.52, 1.52]), np.array([0.1, 0.1, 0.3, 0.3])
        assert engine.select_level(means, ses, 0.1) == (2, True)

    def test_never_stable_returns_last(self):
        means, ses = np.array([1.0, 2.0, 3.0]), np.full(3, 0.1)
        assert engine.select_level(means, ses, 0.1) == (2, False)
