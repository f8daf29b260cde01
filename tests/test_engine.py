import numpy as np
import pytest

from conftest import gru_reference, synthetic_corpus
from dialcoh.corpus import derive_vocabularies
from dialcoh.engine import (
    AdamState,
    GruCellParams,
    Tensor,
    adam_step,
    grad_check,
    no_grad,
    pairwise_hinge,
    run_gru,
)
from dialcoh.engine import autodiff as ad
from dialcoh.engine.rnn import GATES
from dialcoh.errors import NumericError
from dialcoh.models.neural import NeuralConfig, NeuralScorer, forward_scores


def random_cell(rng, input_size=3, hidden_size=4) -> GruCellParams:
    """float64 gate tensors, biases included, uniform in [-0.5, 0.5]."""
    shapes = {"w": (hidden_size, input_size), "u": (hidden_size, hidden_size), "b": (hidden_size,)}
    return GruCellParams(**{
        f"{kind}_{gate}": Tensor(rng.uniform(-0.5, 0.5, shape), requires_grad=True)
        for gate in GATES
        for kind, shape in shapes.items()
    })


def zeroed_cell() -> GruCellParams:
    p = random_cell(np.random.default_rng(0))
    for t in vars(p).values():
        t.data[...] = 0.0
    return p


class TestGruCell:
    """Properties of the GRU recurrence, checked on the fused layer."""

    def test_zero_everything(self):
        p = zeroed_cell()
        x = np.random.default_rng(1).normal(size=(2, 6, 3))
        for reverse in (False, True):
            np.testing.assert_array_equal(run_gru(Tensor(x), p, reverse=reverse).data, 0.0)

    def test_zero_params_halve_state(self):
        # With only b_h nonzero, z = sigmoid(0) = 0.5 and the candidate is
        # tanh(b_h) at every step, so h_t = 0.5 * h_{t-1} + 0.5 * tanh(b_h).
        p = zeroed_cell()
        p.b_h.data[...] = [0.4, -0.2, 0.8, 0.1]
        out = run_gru(Tensor(np.ones((1, 4, 3))), p).data[0]
        halves = 1.0 - 0.5 ** np.arange(1, 5)
        np.testing.assert_allclose(out, halves[:, None] * np.tanh(p.b_h.data), rtol=1e-12)

    def test_output_bounded_by_unit_state(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_cell(rng)
            x = rng.normal(size=(2, 30, 3)) * 3
            for reverse in (False, True):
                assert np.all(np.abs(run_gru(Tensor(x), p, reverse=reverse).data) < 1.0)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        p = random_cell(rng)
        x = rng.normal(size=(5, 4, 3))
        for reverse in (False, True):
            batch = run_gru(Tensor(x), p, reverse=reverse).data
            for i in range(5):
                single = run_gru(Tensor(x[i : i + 1]), p, reverse=reverse).data
                np.testing.assert_allclose(batch[i], single[0], rtol=1e-12, atol=0)

    def test_dimension_mismatch(self):
        p = zeroed_cell()
        with pytest.raises(ValueError):
            run_gru(Tensor(np.zeros((1, 2, 5))), p)


class TestGruLayer:
    """The fused layer against the step-by-step float64 reference scan."""

    @pytest.mark.parametrize("steps", [1, 5])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_cell_loop(self, steps, reverse):
        rng = np.random.default_rng(steps)
        p = random_cell(rng)
        x = rng.normal(size=(3, steps, 3))
        fused = run_gru(Tensor(x), p, reverse=reverse).data
        np.testing.assert_allclose(fused, gru_reference(x, p, reverse), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients(self, reverse):
        rng = np.random.default_rng(11)
        base = {name: t.data for name, t in vars(random_cell(rng)).items()}
        base["x"] = rng.normal(size=(3, 5, 3))

        def f(p):
            c = GruCellParams(**{k: v for k, v in p.items() if k != "x"})
            return ad.reduce_mean(run_gru(p["x"], c, reverse=reverse))

        report = grad_check(f, base, h=1e-5, tol=1e-4)
        assert report.passed, (report.max_rel_error, report.worst)
        assert len(report.per_param) == 10

    def test_graph_size_does_not_grow_with_length(self):
        """One node per layer and direction: backward visits as many nodes
        for a stream of 12 positions as for one of 3."""
        vocabs = derive_vocabularies(synthetic_corpus(2, 6, seed=0))
        cfg = NeuralConfig(channels=("word", "da", "turn"), emb_dim_word=4, emb_dim_other=2,
                           gru_hidden=3, head_hidden=2)
        scorer = NeuralScorer.initialize(cfg, vocabs)
        sizes = []
        for length in (3, 12):
            ids = {ch: (np.arange(length) % 2)[None] for ch in cfg.channels}
            sizes.append(len(forward_scores(ids, scorer.params, cfg).graph()))
        assert sizes[0] == sizes[1]


def hinge(pos, neg, margin=0.5) -> np.ndarray:
    """Per-pair pairwise_hinge values: a batch of one pair at a time."""
    return np.array([
        pairwise_hinge(Tensor(np.array([p])), Tensor(np.array([n])), margin).item()
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


class TestAdam:
    def test_zero_grad_no_change(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = AdamState.for_params(params)
        adam_step(params, grads, state, lr=0.1)
        np.testing.assert_allclose(params["w"], [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        # Bias correction makes m_hat = g and v_hat = g^2, so the first update
        # is lr * sign(g) up to eps.
        for g in (3.0, -0.25, 1e-3):
            params = {"w": np.array([0.5])}
            state = AdamState.for_params(params)
            adam_step(params, {"w": np.array([g])}, state, lr=0.01)
            assert abs(abs(0.5 - params["w"][0]) - 0.01) < 1e-6

    def test_outputs_stay_finite(self):
        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        for _ in range(5):
            adam_step(params, {"w": np.array([1e4])}, state, lr=0.5)
        assert np.isfinite(params["w"]).all()

    def test_deterministic(self):
        results = []
        for _ in range(2):
            params = {"w": np.linspace(-1, 1, 5)}
            state = AdamState.for_params(params)
            for step in range(3):
                adam_step(params, {"w": np.sin(params["w"] + step)}, state, lr=0.05)
            results.append(params["w"].copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_shape_mismatch(self):
        params = {"w": np.zeros(3)}
        state = AdamState.for_params(params)
        with pytest.raises(NumericError):
            adam_step(params, {"w": np.zeros(4)}, state, lr=0.1)


class TestAutodiffBasics:
    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        # (x + x) - (1 - x) = 3x - 1 -> grad 3
        y = ad.reduce_mean(ad.sub(ad.add(x, x), ad.rsub_const(x, 1.0)))
        y.backward()
        assert x.grad == pytest.approx([3.0])

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        with no_grad():
            y = ad.add(x, x)
        assert y._parents == ()
        assert not y.requires_grad

    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(NumericError):
            ad.add(x, x).backward()


class TestGradCheck:
    def test_quadratic(self):
        # t @ t.T for a 1x1 t is t^2 -> grad 2t
        report = grad_check(
            lambda p: ad.reshape(ad.linear(p["t"], p["t"]), ()),
            {"t": np.array([[3.0]])}, h=1e-5, tol=1e-6,
        )
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_every_op(self):
        """Each operation used by the scorers, at 10 random points."""
        rng = np.random.default_rng(123)
        cases = {
            "add": lambda p: ad.reduce_mean(ad.add(p["a"], p["b"])),
            "sub": lambda p: ad.reduce_mean(ad.sub(p["a"], p["b"])),
            "add_bias_broadcast": lambda p: ad.reduce_mean(ad.add(p["m"], p["a"])),
            "rsub_const": lambda p: ad.reduce_mean(ad.rsub_const(p["a"], 1.0)),
            "linear": lambda p: ad.reduce_mean(ad.linear(p["m"], p["w"])),
            "relu_away_from_kink": lambda p: ad.reduce_mean(ad.relu(p["shifted"])),
            "concat": lambda p: ad.reduce_mean(ad.concat([p["a"], p["b"]], axis=-1)),
            "mean": lambda p: ad.reduce_mean(ad.mean(ad.reshape(p["w"], (2, 2, 4)), axis=1)),
            "take_rows": lambda p: ad.reduce_mean(ad.take_rows(p["w"], np.array([0, 2, 0]))),
            "gather": lambda p: ad.reduce_mean(ad.gather(p["a"], np.array([0, 3, 0, 1]))),
            "reshape": lambda p: ad.reduce_mean(ad.reshape(p["m"], (8,))),
        }
        for name, fn in cases.items():
            for trial in range(10):
                params = {
                    "a": rng.normal(size=4),
                    "b": rng.normal(size=4),
                    "m": rng.normal(size=(2, 4)),
                    "w": rng.normal(size=(4, 4)),
                    "shifted": rng.normal(size=4) + np.where(rng.random(4) > 0.5, 2.0, -2.0),
                }
                report = grad_check(fn, params, h=1e-5, tol=1e-4)
                assert report.passed, f"{name} trial {trial}: {report.max_rel_error:.2e}"

    def test_hinge_kink_is_flagged(self):
        # At x1 - x2 = margin the loss is non-differentiable: the check fails
        # there, which is exactly the signal used to exclude such points.
        def f(p):
            return pairwise_hinge(p["s1"], p["s2"], margin=0.5)

        at_kink = {"s1": np.array([0.5]), "s2": np.array([0.0])}
        report = grad_check(f, at_kink, h=1e-5, tol=1e-4)
        assert not report.passed

        away = {"s1": np.array([0.9]), "s2": np.array([0.0])}
        report = grad_check(f, away, h=1e-5, tol=1e-4)
        assert report.passed

    def test_non_finite_evaluation_raises(self):
        def f(p):
            return ad.reduce_mean(ad.add(p["a"], Tensor(np.array([np.inf]))))

        with pytest.raises(NumericError, match="non-finite"):
            grad_check(f, {"a": np.array([1.0])})
