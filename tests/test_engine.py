"""Chunked Monte Carlo runner: moments of the concatenated values, chunk
order, thread-count invariance, the replication check every estimator
relies on, the doubling rule, running reductions read at a few lags."""

import threading

import numpy as np
import pytest

from pickands import engine, estimators
from pickands.estimators import crosscheck, est_continuous_dy, est_definitional, estimate
from pickands.maxstable import (
    _boundary_corrected_theta,
    est_candidate_theta,
    est_extremal_index_blocks,
    fdd_probability,
)
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


class TestRunAll:
    """Several runs mapped on one pool give what each gives alone."""

    @staticmethod
    def shared(rng, count):
        v = _toy(rng, count)
        return {"first": v[:, 0], "all": v}

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_equals_separate_runs(self, threads, monkeypatch):
        monkeypatch.setenv("PICKANDS_THREADS", threads)
        runs = [
            (_toy, 5, 100, 1 << 12, 0),  # one chunk
            (_toy, 5, 20_000, 1 << 12, 1),  # twenty chunks
            (self.shared, 6, 5_000, 1 << 12, 0),  # five chunks of dict values
        ]
        together = engine.run_all(runs)
        alone = [engine.run(*r) for r in runs]
        for a, b in zip(together[:2], alone[:2]):
            assert [x.tobytes() for x in a] == [x.tobytes() for x in b]
        assert together[2].keys() == alone[2].keys()
        for key in alone[2]:
            assert [x.tobytes() for x in together[2][key]] == [x.tobytes() for x in alone[2][key]]

    def test_one_chunk_runs_overlap(self, monkeypatch):
        # each run is a single chunk; mapped one run after the other, the
        # first worker would wait alone and break the barrier
        monkeypatch.setenv("PICKANDS_THREADS", "2")
        barrier = threading.Barrier(2, timeout=5)

        def waiting(rng, count):
            barrier.wait()
            return rng.standard_normal(count)

        assert engine.chunk_plan(16, 1) == [16]
        first, second = engine.run_all([(waiting, 7, 16, 1, 0), (waiting, 7, 16, 1, 1)])
        assert first[0] != second[0]  # each on its own stream


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


class TestRunningAt:
    """running_at against the full running maximum and sum read at the levels."""

    W = np.random.default_rng(9).standard_normal((37, 33))  # a two-sided path, origin in column 16

    @staticmethod
    def reference(ufunc, side, levels):
        return ufunc.accumulate(side, axis=1)[:, np.asarray(levels) - 1]

    @pytest.mark.parametrize("levels", [[16], [3], [8, 16], [1, 2], [2, 5, 16]],
                             ids=["one level, the row width", "one level", "two levels",
                                  "the first two levels", "three levels"])
    @pytest.mark.parametrize("side", ["pos", "neg"])
    def test_matches_accumulate(self, levels, side):
        # the negative side is a negative-stride view, read outward from the origin
        view = self.W[:, 17:] if side == "pos" else self.W[:, 15::-1]
        assert view.strides[1] < 0 or side == "pos"
        top = engine.running_at(np.maximum, view, levels)
        total = engine.running_at(np.add, view, levels)
        assert top.tobytes() == self.reference(np.maximum, view, levels).tobytes()
        np.testing.assert_allclose(total, self.reference(np.add, view, levels), rtol=1e-13, atol=1e-15)
        assert top.flags.f_contiguous and total.flags.f_contiguous

    @pytest.mark.parametrize("width", [engine.NARROW_MAX_COLUMNS, engine.NARROW_MAX_COLUMNS + 1, 200])
    @pytest.mark.parametrize("side", ["pos", "neg"])
    def test_narrow_maxima_combine_columns(self, width, side, monkeypatch):
        # sides up to NARROW_MAX_COLUMNS wide take maxima a column at a time,
        # wider ones by reduceat: both equal the running maximum exactly
        w = np.random.default_rng(10).standard_normal((50, 2 * width + 1))
        view = w[:, width + 1:] if side == "pos" else w[:, width - 1::-1]
        levels = [1, width // 3, width - 1, width]
        want = self.reference(np.maximum, view, levels).tobytes()
        assert engine.running_at(np.maximum, view, levels).tobytes() == want
        for narrow in (0, 1 << 20):
            monkeypatch.setattr(engine, "NARROW_MAX_COLUMNS", narrow)
            top = engine.running_at(np.maximum, view, levels)
            assert top.tobytes() == want and top.flags.f_contiguous

    def test_columns_past_the_last_lag_are_not_read(self):
        pos, neg = self.W[:, 17:].copy(), self.W[:, :16].copy()
        pos[:, 8:] = neg[:, :8] = np.nan
        for side in (pos, neg[:, ::-1]):
            for ufunc in (np.maximum, np.add):
                assert not np.isnan(engine.running_at(ufunc, side, [4, 8])).any()


class TestLevelReadsKeepBytes:
    """Seeded outputs of the kernels that read maxima only, pinned as float.hex.

    Maxima are exact, so reading them at the levels changes no value; the
    level-major (Fortran) layout of the (count, levels) values fixes the
    order in which a chunk's rows are summed, and the real-valued
    difference kernel's sums would move with a row-major one.

    The model is off the alpha = 2 line, so every replication is an
    antithetic pair. The first member of a pair is the unpaired path, byte
    for byte, so with the pair's second member left out (``unpaired``) the
    unpaired runs' pins hold; the paired values are pinned too.
    """

    @pytest.fixture
    def unpaired(self, monkeypatch):
        monkeypatch.setattr(estimators, "antithetic_shift", lambda model, grid: None)

    PAIRED = {
        "exceedance": ("0x1.3513cc1e098ebp-1", "0x1.486b1fcef414dp-7"),
        "difference": ("0x1.34c3b0967b731p-1", "0x1.b7b478fb70d8ep-9"),
        "argmax": ("0x1.2d65b7a328470p-1", "0x1.6312d23836a6dp-7"),
        "time-reversed": ("0x1.2ce2a53490b9bp-1", "0x1.478ad02a4d04ep-7"),
        "definitional, T None": ("0x1.29a06dfb3581bp+0", "0x1.f4ca5d2c8ba5cp-5"),
        "definitional, T 0.3": ("0x1.aaaaaaaaaaaabp+1", "0x1.ee62c8763eeabp-31"),
        "definitional, T 4.0": ("0x1.a8e91fe90cbecp-1", "0x1.ff71ad7332ef7p-4"),
        "definitional, T 8.0": ("0x1.451a2e7a46cafp+0", "0x1.a7d283851486dp-1"),
    }

    def test_paired(self):
        results = {m: estimate(FBM15, m, 0.5, 3000, seed=11) for m in ("exceedance", "difference", "argmax",
                                                                        "time-reversed")}
        results |= {f"definitional, T {T}": crosscheck(FBM15, 0.5, 3000, horizon=16, seed=11, T=T)
                    .results["definitional"] for T in (None, 0.3, 4.0, 8.0)}
        assert all(res.antithetic for res in results.values())
        assert {k: (res.estimate.hex(), res.stderr.hex()) for k, res in results.items()} == self.PAIRED

    @pytest.mark.parametrize("method, value, stderr", [
        ("exceedance", "0x1.2fc962fc962fdp-1", "0x1.1152c4ba18744p-6"),
        ("difference", "0x1.32cc723fce123p-1", "0x1.729554652b83dp-7"),
        ("argmax", "0x1.2f1a9fbe76c8bp-1", "0x1.112538c6a379cp-6"),
        ("time-reversed", "0x1.28f5c28f5c28fp-1", "0x1.0f83351de44b8p-6"),
    ])
    def test_estimate(self, method, value, stderr, unpaired):
        res = estimate(FBM15, method, 0.5, 3000, seed=11)
        assert res.horizon == 32
        assert (res.estimate.hex(), res.stderr.hex()) == (value, stderr)

    # k_T = 4 (the feasible default), 0 (the origin only), 8 (a level) and 16 (the horizon)
    @pytest.mark.parametrize("T, k_T, value, stderr", [
        (None, 4, "0x1.2731317291e5fp+0", "0x1.a2e65c8c95972p-4"),
        (0.3, 0, "0x1.aaaaaaaaaaaabp+1", "0x1.ee62c8763eeabp-31"),
        (4.0, 8, "0x1.edb2d7a7e37fdp-1", "0x1.f4e4f27947313p-3"),
        (8.0, 16, "0x1.17957d45c593dp+1", "0x1.a7ca08f4c728cp+0"),
    ])
    def test_crosscheck_definitional(self, T, k_T, value, stderr, unpaired):
        res = crosscheck(FBM15, 0.5, 3000, horizon=16, seed=11, T=T).results["definitional"]
        assert res.horizon == k_T
        assert (res.estimate.hex(), res.stderr.hex()) == (value, stderr)

    @pytest.mark.parametrize("alpha, prob, stderr", [
        (2.0, "0x1.38a94d242e6bep-3", "0x1.ae6b2478927e3p-8"),
        (1.5, "0x1.e76c8b4395810p-4", "0x1.837bc1e784e8ap-8"),
    ])
    def test_smallball(self, alpha, prob, stderr):
        res = est_smallball_prob(alpha, 0.2, 32, 3000, seed=11)
        assert (res.prob.hex(), res.stderr.hex()) == (prob, stderr)


class TestBlockStatisticsKeepBytes:
    """Seeded outputs of the block kernel, pinned as float.hex: its window
    maxima are exact, and its window sums and the row sums of its ratios
    add in a fixed order."""

    def test_block_formula(self):
        res = est_extremal_index_blocks(FBM15, 0.5, 1000, 3000, seed=11)
        assert res.horizon == 31
        assert (res.estimate.hex(), res.stderr.hex()) == ("0x1.57e25b7d687cdp-2", "0x1.9ae160fa97068p-10")

    def test_boundary_corrected(self):
        res = _boundary_corrected_theta(FBM15, 0.5, 31, 3000, seed=11)
        assert (res.estimate.hex(), res.stderr.hex()) == ("0x1.35620e06e1dedp-2", "0x1.97b1c418ab4d1p-10")


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
