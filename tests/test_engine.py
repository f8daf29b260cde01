import numpy as np
import pytest

from conftest import (
    AdamReference,
    adam_reference,
    grad_check,
    gradient_blocks,
    gru_gradients,
    gru_reference,
    logistic_reference,
)
from dialcoh.engine import AdamState, adam_step, run_gru
from dialcoh.engine.autodiff import logistic
from dialcoh.engine.optim import BLOCK
from dialcoh.engine.rnn import GATES, MIN_ROWS, rzh_rows
from dialcoh.errors import NumericError
from dialcoh.models.neural import pairwise_hinge


def random_cell(rng, input_size=3, hidden_size=4, dtype=np.float64) -> dict[str, np.ndarray]:
    """Stacked gate arrays w, u and b, uniform in [-0.5, 0.5]."""
    rows = 3 * hidden_size
    shapes = {"w": (rows, input_size), "u": (rows, hidden_size), "b": (rows,)}
    return {k: rng.uniform(-0.5, 0.5, shape).astype(dtype) for k, shape in shapes.items()}


def zeroed_cell() -> dict[str, np.ndarray]:
    return {k: np.zeros_like(a) for k, a in random_cell(np.random.default_rng(0)).items()}


class TestGruCell:
    """Properties of the GRU recurrence, checked on the fused layer."""

    def test_zero_everything(self):
        p = zeroed_cell()
        x = np.random.default_rng(1).normal(size=(2, 6, 3))
        for reverse in (False, True):
            np.testing.assert_array_equal(run_gru(x, **p, reverse=reverse), 0.0)

    def test_zero_params_halve_state(self):
        # With only b_h nonzero, z = sigmoid(0) = 0.5 and the candidate is
        # tanh(b_h) at every step, so h_t = 0.5 * h_{t-1} + 0.5 * tanh(b_h).
        p = zeroed_cell()
        b_h = np.split(p["b"], 3)[GATES.index("h")]
        b_h[...] = [0.4, -0.2, 0.8, 0.1]
        out = run_gru(np.ones((1, 4, 3)), **p)[0]
        halves = 1.0 - 0.5 ** np.arange(1, 5)
        np.testing.assert_allclose(out, halves[:, None] * np.tanh(b_h), rtol=1e-12)

    def test_output_bounded_by_unit_state(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_cell(rng)
            x = rng.normal(size=(2, 30, 3)) * 3
            for reverse in (False, True):
                assert np.all(np.abs(run_gru(x, **p, reverse=reverse)) < 1.0)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        p = random_cell(rng)
        x = rng.normal(size=(5, 4, 3))
        for reverse in (False, True):
            batch = run_gru(x, **p, reverse=reverse)
            for i in range(5):
                single = run_gru(x[i : i + 1], **p, reverse=reverse)
                np.testing.assert_allclose(batch[i], single[0], rtol=1e-12, atol=0)

    def test_dimension_mismatch(self):
        p = zeroed_cell()
        with pytest.raises(ValueError):
            run_gru(np.zeros((1, 2, 5)), **p)


# Length groups 7 x 4 rows, 5 x 5, 3 x 1, 2 x 2 and 1 x 1, longest first.
RAGGED = [7] * 4 + [5] * 5 + [3] + [2] * 2 + [1]


def _group_gradients(x, g, p, reverse):
    """For each length group of a RAGGED scan: its rows, its length, its
    (dx, dw, du, db) from the masked scan, and from its own scan."""
    lengths = np.array(RAGGED)
    _, bptt = run_gru(x, **p, reverse=reverse, lengths=lengths, record=True)
    dx, reduce = bptt(g, rzh_rows(p["w"]))
    past = np.arange(x.shape[1]) >= lengths[:, None]
    assert (dx[past] == 0.0).all()
    starts = [0, 4, 9, 10, 12]
    for lo, hi in zip(starts, [*starts[1:], len(RAGGED)]):
        rows, n = slice(lo, hi), RAGGED[lo]
        _, own = run_gru(x[rows, :n], **p, reverse=reverse, record=True)
        own_dx, own_reduce = own(g[rows, :n], rzh_rows(p["w"]))
        yield rows, n, (dx[rows, :n], *reduce(rows, np.empty_like(p["w"]))), (
            own_dx, *own_reduce(slice(0, hi - lo), np.empty_like(p["w"])))


class TestGruLayer:
    """The fused layer against the step-by-step float64 reference scan."""

    @pytest.mark.parametrize("steps", [1, 5])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_cell_loop(self, steps, reverse):
        rng = np.random.default_rng(steps)
        p = random_cell(rng)
        x = rng.normal(size=(3, steps, 3))
        fused = run_gru(x, **p, reverse=reverse)
        np.testing.assert_allclose(fused, gru_reference(x, **p, reverse=reverse),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients(self, reverse):
        """The mean output's gradient with respect to x, w, u and b."""
        rng = np.random.default_rng(11)
        base = {"x": rng.normal(size=(3, 5, 3)), **random_cell(rng)}
        out, bptt = run_gru(**base, reverse=reverse, record=True)
        analytic = dict(zip("xwub", gru_gradients(bptt, np.full_like(out, 1.0 / out.size),
                                                  base["w"], [5, 5, 5])))

        report = grad_check(lambda p: run_gru(**p, reverse=reverse).mean(), base, analytic,
                            h=1e-5, tol=1e-4)
        assert report.passed, (report.max_rel_error, report.worst)
        assert sorted(report.per_param) == ["b", "u", "w", "x"]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_masked_rows_match_their_own_prefix(self, reverse):
        """Rows of lengths 6 down to 1 in one 6-step scan: each row's outputs
        are the reference scan of its own prefix, then zeros."""
        rng = np.random.default_rng(21)
        p = random_cell(rng)
        lengths = np.array([6, 6, 4, 3, 2, 1])
        x = rng.normal(size=(6, 6, 3))
        out = run_gru(x, **p, reverse=reverse, lengths=lengths)
        for row, n in enumerate(lengths):
            own = gru_reference(x[row : row + 1, :n], **p, reverse=reverse)[0]
            np.testing.assert_allclose(out[row, :n], own, rtol=0, atol=1e-12)
            assert (out[row, n:] == 0.0).all()

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("lengths", [
        [7, 7, 6, 6, 5, 3, 2, 2, 1],  # shrinks below MIN_ROWS live rows
        [7, 7, 7, 7, 7, 7],
        [7, 5, 2],  # fewer rows than MIN_ROWS
        [7, 2],
    ])
    def test_float32_ragged_rows_equal_the_masked_scan_bitwise(self, lengths, reverse):
        """Computing only the live rows (at least MIN_ROWS of them) gives
        each row the bits of the scan that runs every row at every step."""
        rng = np.random.default_rng(len(lengths))
        p = random_cell(rng, input_size=24, hidden_size=32, dtype=np.float32)
        lengths = np.array(lengths)
        x = rng.normal(size=(len(lengths), 7, 24)).astype(np.float32)
        out = run_gru(x, **p, reverse=reverse, lengths=lengths)
        assert out.dtype == np.float32
        assert np.array_equal(out, gru_reference(x, **p, reverse=reverse, lengths=lengths))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_float32_scan_from_a_state_continues_the_scan_bitwise(self, reverse):
        """A scan over the first 3 positions, then one from its last states
        (h0) over the other 4, gives each row the bits of one 7-step scan;
        masked to shorter runs (one of none), each row gets the bits of its
        own run scanned from h0, then zeros."""
        rng = np.random.default_rng(31)
        p = random_cell(rng, input_size=24, hidden_size=32, dtype=np.float32)
        x = rng.normal(size=(6, 7, 24)).astype(np.float32)
        full = run_gru(x, **p, reverse=reverse)
        first, rest = (x[:, 4:], x[:, :4]) if reverse else (x[:, :3], x[:, 3:])
        h0 = run_gru(first, **p, reverse=reverse)[:, 0 if reverse else -1]
        out = run_gru(rest, **p, reverse=reverse, h0=h0)
        assert np.array_equal(out, full[:, :4] if reverse else full[:, 3:])
        lengths = np.array([4, 4, 3, 2, 1, 0])
        ragged = run_gru(rest, **p, reverse=reverse, lengths=lengths, h0=h0)
        for row, n in enumerate(lengths):
            if n:
                own = run_gru(rest[:, :n], **p, reverse=reverse, h0=h0)[row]
                assert np.array_equal(ragged[row, :n], own)
            assert (ragged[row, n:] == 0.0).all()

    def test_unsorted_lengths_are_rejected(self):
        p = random_cell(np.random.default_rng(4))
        with pytest.raises(ValueError, match="non-increasing"):
            run_gru(np.ones((3, 4, 3)), **p, lengths=np.array([4, 2, 3]))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_masked_backward_gives_each_group_its_own_bptt(self, reverse):
        """One recorded scan of length groups 7 x 4 rows, 5 x 5, 3 x 1, 2 x 2
        and 1 x 1, in float64: each group's dx, dw, du and db equal those of
        its own unmasked scan to 1e-12, and dx is zero past each row's
        length."""
        rng = np.random.default_rng(41)
        p = random_cell(rng)
        x, g = rng.normal(size=(len(RAGGED), 7, 3)), rng.normal(size=(len(RAGGED), 7, 4))
        for rows, n, got, own in _group_gradients(x, g, p, reverse):
            for name, a, b in zip(("dx", "dw", "du", "db"), got, own):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=f"{name}, rows {rows}")

    @pytest.mark.parametrize("reverse", [False, True])
    def test_float32_masked_backward_is_bitwise_from_min_rows(self, reverse):
        """The same groups in float32: a group of MIN_ROWS rows or more gets
        the bits of its own scan's BPTT."""
        rng = np.random.default_rng(43)
        p = random_cell(rng, input_size=24, hidden_size=32, dtype=np.float32)
        x = rng.normal(size=(len(RAGGED), 7, 24)).astype(np.float32)
        g = rng.normal(size=(len(RAGGED), 7, 32)).astype(np.float32)
        checked = 0
        for rows, n, got, own in _group_gradients(x, g, p, reverse):
            if rows.stop - rows.start >= MIN_ROWS:
                checked += 1
                for name, a, b in zip(("dx", "dw", "du", "db"), got, own):
                    assert a.dtype == np.float32
                    assert np.array_equal(a, b), f"{name} of rows {rows} differs"
        assert checked == 2

    @pytest.mark.parametrize("reverse", [False, True])
    def test_ragged_gradients(self, reverse):
        """A weighted sum of a ragged scan's outputs: its gradient with
        respect to x, w, u and b, summed over the length groups."""
        rng = np.random.default_rng(13)
        lengths = np.array([5, 5, 3, 2, 2, 1])
        base = {"x": rng.normal(size=(6, 5, 3)), **random_cell(rng)}
        weights = rng.normal(size=(6, 5, 4))
        _, bptt = run_gru(**base, reverse=reverse, lengths=lengths, record=True)
        analytic = dict(zip("xwub", gru_gradients(bptt, weights, base["w"], lengths)))
        report = grad_check(
            lambda p: (run_gru(**p, reverse=reverse, lengths=lengths) * weights).sum(),
            base, analytic, h=1e-5, tol=1e-4)
        assert report.passed, (report.max_rel_error, report.worst)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradient_past_a_rows_length_is_ignored(self, reverse):
        """NaN in the output gradient past each row's length changes no bit
        of dx, dw, du or db."""
        rng = np.random.default_rng(17)
        p = random_cell(rng)
        lengths = np.array(RAGGED)
        x, g = rng.normal(size=(len(RAGGED), 7, 3)), rng.normal(size=(len(RAGGED), 7, 4))
        past = np.arange(7) >= lengths[:, None]
        g[past] = 0.0
        planted = g.copy()
        planted[past] = np.nan
        _, bptt = run_gru(x, **p, reverse=reverse, lengths=lengths, record=True)
        clean, dirty = (gru_gradients(bptt, d, p["w"], lengths) for d in (g, planted))
        for a, b in zip(clean, dirty):
            assert np.isfinite(b).all() and np.array_equal(a, b)


def hinge(pos, neg, margin=0.5) -> np.ndarray:
    """Per-pair pairwise_hinge values: a batch of one pair at a time."""
    return np.array([
        pairwise_hinge(np.array([p]), np.array([n]), margin)[0]
        for p, n in zip(np.atleast_1d(pos), np.atleast_1d(neg))
    ])


class TestMarginLoss:
    """pairwise_hinge on one-element score vectors is max(0, margin - (pos - neg))."""

    def test_satisfied_margin(self):
        assert hinge(1.0, 0.0) == 0.0

    def test_tie_returns_margin(self):
        assert hinge(0.5, 0.5) == 0.5

    def test_violated(self):
        assert hinge(0.2, 0.4) == pytest.approx(0.7)

    def test_nonnegative_and_zero_iff_margin_met(self):
        pos, neg = np.random.default_rng(0).normal(size=(2, 200))
        loss = hinge(pos, neg)
        assert (loss >= 0.0).all()
        np.testing.assert_array_equal(loss == 0.0, pos - neg >= 0.5)


def _adam(params: np.ndarray) -> AdamState:
    return AdamState(np.zeros_like(params), np.zeros_like(params))


def _step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """One Adam step over a whole buffer, as the training step's oracle takes it."""
    state.step += 1
    adam_step(params, grads, state.m, state.v, state.step, lr)


class TestAdam:
    def test_zero_grad_no_change(self):
        params = np.array([1.0, -2.0])
        _step(params, np.zeros(2), _adam(params), lr=0.1)
        np.testing.assert_allclose(params, [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        # Bias correction makes m_hat = g and v_hat = g^2, so the first update
        # is lr * sign(g) up to eps.
        for g in (3.0, -0.25, 1e-3):
            params = np.array([0.5])
            _step(params, np.array([g]), _adam(params), lr=0.01)
            assert abs(abs(0.5 - params[0]) - 0.01) < 1e-6

    def test_outputs_stay_finite(self):
        params = np.array([1.0])
        state = _adam(params)
        for _ in range(5):
            _step(params, np.array([1e4]), state, lr=0.5)
        assert np.isfinite(params).all()

    def test_deterministic(self):
        results = []
        for _ in range(2):
            params = np.linspace(-1, 1, 5)
            state = _adam(params)
            for step in range(3):
                _step(params, np.sin(params + step), state, lr=0.05)
            results.append(params.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_non_contiguous_array_rejected(self):
        """A flat copy of a strided view would take the update in its place."""
        params = np.zeros((4, 6))[:, :3]
        with pytest.raises(ValueError, match="copy"):
            adam_step(params, np.ones((4, 3)), np.zeros((4, 3)), np.zeros((4, 3)), 1, 0.1)

    def test_blocked_update_equals_the_per_array_update_bitwise(self):
        """Over several steps, on a float32 buffer of three whole blocks and
        a ragged tail, cut into arrays that straddle the block edges, one of
        them a (400, 300) matrix: the blocked update of the whole buffer, and
        the blocked update of each array in turn at the step's count, as
        training runs it, both equal the unblocked per-array oracle."""
        rng = np.random.default_rng(3)
        size = 3 * BLOCK + 1234
        params = rng.standard_normal(size).astype(np.float32)
        cuts = [0, 1000, 121_000, 2 * BLOCK, 3 * BLOCK + 5, size]
        shapes = {1: (400, 300)}
        named = {f"a{i}": params[lo:hi].reshape(shapes.get(i, (-1,))).copy()
                 for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))}
        per_array = params.copy()
        state, split, reference = _adam(params), _adam(params), AdamReference.for_params(named)
        for step in range(1, 5):
            grads = rng.standard_normal(size).astype(np.float32)
            _step(params, grads, state, lr=0.01)
            for (name, a), lo, hi in zip(named.items(), cuts, cuts[1:]):
                adam_step(*(b[lo:hi].reshape(a.shape) for b in (per_array, grads, split.m,
                                                               split.v)), step, lr=0.01)
            adam_reference(named, {n: grads[lo:hi].reshape(a.shape) for (n, a), lo, hi
                                   in zip(named.items(), cuts, cuts[1:])}, reference, lr=0.01)
            expected = np.concatenate([a.reshape(-1) for a in named.values()])
            assert params.tobytes() == per_array.tobytes() == expected.tobytes()
        assert state.step == reference.step == 4


class TestLogistic:
    """The branch-free sigmoid equals the sign-split oracle bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values(self, dtype):
        info = np.finfo(dtype)
        d = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, info.tiny, -info.tiny,
                      info.smallest_subnormal, -info.smallest_subnormal, info.max, -info.max,
                      88.7, -88.7, 709.8, -709.8, 745.2, -745.2], dtype=dtype)
        with np.errstate(over="ignore"):
            self._same_bits(logistic(d), logistic_reference(d))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dense_sweep_and_random_bits(self, dtype):
        uint = np.uint32 if dtype == np.float32 else np.uint64
        sweep = np.linspace(-120, 120, 400_000, dtype=dtype).reshape(400, 1000)
        bits = np.random.default_rng(0).integers(
            0, np.iinfo(uint).max, 200_000, dtype=uint, endpoint=True).view(dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            for d in (sweep, bits):
                self._same_bits(logistic(d), logistic_reference(d))

    @staticmethod
    def _same_bits(a, b):
        assert a.dtype == b.dtype and a.shape == b.shape
        uint = np.uint32 if a.dtype == np.float32 else np.uint64
        differ = a.view(uint) != b.view(uint)
        assert not differ.any(), f"{differ.sum()} elements differ, e.g. {a[differ][:3]}"


class TestGradCheck:
    def test_quadratic(self):
        report = grad_check(
            lambda p: (p["t"] ** 2).sum(), {"t": np.array([[3.0]])}, {"t": np.array([[6.0]])},
            h=1e-5, tol=1e-6,
        )
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_every_op(self):
        """Each block of the scorer's backward pass, every parameter of it,
        at 10 random points."""
        rng = np.random.default_rng(123)
        for trial in range(10):
            for name, (loss, params, analytic) in gradient_blocks(rng).items():
                report = grad_check(loss, params, analytic, h=1e-5, tol=1e-4)
                assert report.passed, f"{name} trial {trial}: {report.max_rel_error:.2e}"

    def test_hinge_kink_is_flagged(self):
        # At x1 - x2 = margin the loss is non-differentiable: the check fails
        # there, which is exactly the signal used to exclude such points.
        def check(s1, s2):
            _, d1, d2 = pairwise_hinge(s1, s2, margin=0.5)
            return grad_check(lambda p: pairwise_hinge(p["s1"], p["s2"], margin=0.5)[0],
                              {"s1": s1, "s2": s2}, {"s1": d1, "s2": d2}, h=1e-5, tol=1e-4)

        assert not check(np.array([0.5]), np.array([0.0])).passed
        assert check(np.array([0.9]), np.array([0.0])).passed

    def test_non_finite_evaluation_raises(self):
        with pytest.raises(NumericError, match="non-finite"):
            grad_check(lambda p: (p["a"] + np.inf).sum(), {"a": np.array([1.0])},
                       {"a": np.array([1.0])})
