import numpy as np
import pytest

from dialcoh.analysis import (
    adjusted_r_squared,
    default_tagset,
    extract_turn_features,
    fit_ols,
    group_design,
    group_stats,
    mcc_report,
    regularized_incomplete_beta,
    significance_stars,
    student_t_two_sided_p,
)
from dialcoh.errors import DataError, NumericError
from dialcoh.swapgen import Candidate, RatedInstance

from conftest import mcc_report_reference, seg, turn


class TestTurnFeatures:
    def test_overlap_counting(self):
        # Context introduces iowa, midwest, hands, california, utah; the
        # candidate mentions california and iowa: overlap 2, novel 0.
        context = (
            turn("B", seg("sd", [("iowa", "X"), ("midwest", "X"), ("hands", "X")])),
            turn("A", seg("sd", [("california", "X"), ("utah", "X")])),
        )
        candidate = turn("B", seg("qy", [("california", "X"), ("iowa", "X")]))
        feats = extract_turn_features(context, candidate, ("qy", "sd"))
        assert feats.overlap_entities == 2
        assert feats.novel_entities == 0

    def test_novel_and_duplicates(self):
        context = (turn("A", seg("sd", [("movie", "S")])),)
        candidate = turn("B", seg("sd", [("movie", "O"), ("movie", "X"), ("plot", "S")]))
        feats = extract_turn_features(context, candidate, ("sd",))
        assert feats.overlap_entities == 2  # each duplicate counts
        assert feats.novel_entities == 1

    def test_no_entities(self):
        feats = extract_turn_features(
            (turn("A", seg("sd", [("movie", "S")])),), turn("B", seg("b")), ("b", "sd")
        )
        assert (feats.overlap_entities, feats.novel_entities) == (0, 0)
        assert feats.da_indicators == (1, 0)

    def test_da_indicator_set(self):
        candidate = turn("B", seg("b"), seg("sd"))
        feats = extract_turn_features((), candidate, ("b", "qy", "sd"))
        assert feats.da_indicators == (1, 0, 1)

    def test_context_order_invariance(self):
        c1 = (turn("A", seg("sd", [("a", "S")])), turn("B", seg("sd", [("b", "O")])))
        candidate = turn("A", seg("sd", [("a", "X"), ("b", "X")]))
        f1 = extract_turn_features(c1, candidate, ("sd",))
        f2 = extract_turn_features(c1[::-1], candidate, ("sd",))
        assert f1.overlap_entities == f2.overlap_entities == 2

    def test_group_columns(self):
        names = ["overlap_entities", "novel_entities", "da:b", "da:sd"]
        X = np.array([[1.0, 0.0, 1.0, 0.0], [2.0, 0.0, 0.0, 1.0]])
        columns, kept = group_design(X, names, "entities")
        assert kept == ["overlap_entities"]  # the constant novel count is dropped
        assert columns.tolist() == [[1.0], [2.0]]
        assert group_design(X, names, "das")[1] == ["da:b", "da:sd"]
        columns, kept = group_design(X, names, "all")
        assert kept == ["overlap_entities", "da:b", "da:sd"]
        assert columns.tolist() == [[1.0, 1.0, 0.0], [2.0, 0.0, 1.0]]
        with pytest.raises(DataError, match="unknown feature group"):
            group_design(X, names, "prosody")


class TestIncompleteBeta:
    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(2)
        for _ in range(300):
            a = float(rng.uniform(0.5, 50))
            b = float(rng.uniform(0.5, 50))
            x = float(rng.uniform(0, 1))
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                float(special.betainc(a, b, x)), abs=1e-10
            )

    def test_edge_values(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_t_pvalues_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for t in (-4.2, -1.0, 0.0, 0.5, 2.3, 7.0):
            for df in (1, 3, 8, 30, 200):
                expected = 2 * float(stats.t.sf(abs(t), df))
                assert student_t_two_sided_p(t, df) == pytest.approx(expected, abs=1e-12)

    def test_p_monotone_in_abs_t(self):
        ts = np.linspace(0, 8, 50)
        ps = [student_t_two_sided_p(t, 12) for t in ts]
        assert all(a >= b for a, b in zip(ps, ps[1:]))


class TestFitOls:
    def test_exact_line(self):
        x = np.arange(10, dtype=float)
        y = 2 * x + 1
        fit = fit_ols(x[:, None], y)
        assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-10)  # intercept
        assert fit.coefficients[1] == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0)

    def test_adjusted_r_squared_formula(self):
        assert adjusted_r_squared(0.5, n=12, p=3) == pytest.approx(0.3125, abs=0)

    def test_recovers_synthetic_coefficients(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        beta = np.array([0.5, -1.2, 3.0, 0.0])
        y = 1.7 + X @ beta + 1e-9 * rng.normal(size=200)
        fit = fit_ols(X, y)
        np.testing.assert_allclose(fit.coefficients, [1.7, *beta], atol=1e-6)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 3))
        y = X @ np.array([1.0, 2.0, -0.5]) + rng.normal(size=60)
        fit = fit_ols(X, y)
        design = np.hstack([np.ones((60, 1)), X])
        residuals = y - design @ fit.coefficients
        scale = np.abs(design).sum()
        assert np.abs(design.T @ residuals).max() / scale < 1e-8

    def test_matches_statsmodels(self):
        sm = pytest.importorskip("statsmodels.api")
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        y = 0.3 + X @ np.array([1.5, -2.0]) + rng.normal(size=40)
        fit = fit_ols(X, y)
        ref = sm.OLS(y, sm.add_constant(X)).fit()
        np.testing.assert_allclose(fit.coefficients, ref.params, atol=1e-10)
        np.testing.assert_allclose(fit.standard_errors, ref.bse, atol=1e-10)
        np.testing.assert_allclose(fit.p_values, ref.pvalues, atol=1e-10)
        assert fit.r_squared == pytest.approx(ref.rsquared)
        assert fit.adj_r_squared == pytest.approx(ref.rsquared_adj)

    @pytest.mark.parametrize("seed, n, p", [(0, 30, 1), (1, 45, 3), (2, 80, 6)])
    def test_matches_closed_form_inference(self, seed, n, p):
        """Coefficients from lstsq, standard errors from the unbiased residual
        variance times the diagonal of (X'X)^-1, and two-sided p-values from
        scipy's t distribution."""
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0, size=p)
        y = rng.normal() + X @ rng.normal(size=p) + rng.normal(scale=2.0, size=n)
        design = np.hstack([np.ones((n, 1)), X])
        beta, ssr, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        assert rank == p + 1
        df = n - p - 1
        se = np.sqrt(ssr[0] / df * np.diag(np.linalg.inv(design.T @ design)))
        p_values = 2 * stats.t.sf(np.abs(beta / se), df)
        fit = fit_ols(X, y)
        np.testing.assert_allclose(fit.coefficients, beta, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(fit.standard_errors, se, rtol=1e-9)
        np.testing.assert_allclose(fit.t_statistics, beta / se, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(fit.p_values, p_values, rtol=1e-7, atol=1e-12)

    def test_adding_predictor_never_decreases_r2(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 3))
        y = X[:, 0] + rng.normal(size=50)
        for p in (1, 2, 3):
            fits = [fit_ols(X[:, :q], y) for q in range(1, p + 1)]
            r2s = [f.r_squared for f in fits]
            assert all(b >= a - 1e-12 for a, b in zip(r2s, r2s[1:]))

    def test_rank_deficiency(self):
        X = np.ones((10, 2))
        X[:, 1] = 2.0  # both columns constant -> collinear with intercept
        with pytest.raises(NumericError):
            fit_ols(X, np.arange(10, dtype=float))

    def test_insufficient_observations(self):
        with pytest.raises(DataError):
            fit_ols(np.zeros((3, 3)), np.zeros(3))

    def test_stars(self):
        assert significance_stars(0.005) == "**"
        assert significance_stars(0.03) == "*"
        assert significance_stars(0.05) == "*"
        assert significance_stars(0.051) == ""


def make_rated_instance(i, rng, coherent_bias=True):
    """Synthetic rated instance: rating increases with entity overlap and the
    acknowledge DA, decreases with statement DAs."""
    heads = [f"h{j}" for j in range(8)]
    ctx_heads = list(rng.choice(heads, size=4, replace=False))
    context = (
        turn("A", seg("sd", [(h, "X") for h in ctx_heads[:2]])),
        turn("B", seg("sd", [(h, "X") for h in ctx_heads[2:]])),
    )
    candidates = []
    for prov, base in (("original", 2.4), ("internal", 1.9), ("external", 1.4)):
        n_overlap = rng.integers(0, 3) if prov != "original" else 2
        n_novel = int(rng.integers(0, 3))
        mention_heads = list(rng.choice(ctx_heads, size=n_overlap, replace=False))
        mention_heads += [f"x{i}_{j}" for j in range(n_novel)]
        das = [str(d) for d in rng.choice(["b", "sd", "qy"], size=rng.integers(1, 3))]
        rating = base + 0.2 * n_overlap + (0.3 if "b" in das else -0.1)
        rating = float(np.clip(rating + rng.normal() * 0.05, 1.0, 3.0))
        segments = [seg(das[0], [(h, "X") for h in mention_heads])]
        segments += [seg(d) for d in das[1:]]
        candidates.append(
            Candidate(turn("B", *segments), prov, mean_rating=round(rating, 2))
        )
    return RatedInstance(context=context, candidates=tuple(candidates), instance_id=f"r{i}")


class TestCorpusStudy:
    @pytest.fixture
    def rated(self):
        rng = np.random.default_rng(17)
        return [make_rated_instance(i, rng) for i in range(60)]

    def test_group_stats(self, rated):
        stats = group_stats(rated)
        assert set(stats) == {"original", "internal", "external"}
        assert stats["original"]["mean"] > stats["internal"]["mean"] > stats["external"]["mean"]
        assert stats["original"]["count"] == 60

    def test_single_instance_sd_zero(self):
        rng = np.random.default_rng(0)
        stats = group_stats([make_rated_instance(0, rng)])
        assert all(v["sd"] == 0.0 for v in stats.values())

    def test_missing_group_is_error(self):
        rng = np.random.default_rng(0)
        inst = make_rated_instance(0, rng)
        only_original = RatedInstance(
            context=inst.context, candidates=(inst.candidates[0],), instance_id="x"
        )
        with pytest.raises(DataError):
            group_stats([only_original])

    def test_mcc_report_structure(self, rated):
        report = mcc_report(rated)
        assert set(report) == {"entities", "das", "all"}
        for fit in report.values():
            assert 0.0 <= fit.r_squared <= 1.0
            assert fit.adj_r_squared <= fit.r_squared + 1e-12
        # overlap drives ratings by construction
        all_fit = report["all"]
        coef = all_fit.summary_dict()["coefficients"]
        assert coef["overlap_entities"]["coefficient"] > 0
        assert report["all"].r_squared >= report["entities"].r_squared - 1e-9

    def test_fits_equal_per_group_extraction_bitwise(self, rated):
        got, want = mcc_report(rated), mcc_report_reference(rated)
        assert list(got) == list(want)
        for group, w in want.items():
            g = got[group]
            assert g.names == w.names
            for name in ("coefficients", "standard_errors", "t_statistics", "p_values"):
                assert getattr(g, name).tobytes() == getattr(w, name).tobytes(), (group, name)
            assert (g.r_squared, g.adj_r_squared, g.n, g.n_predictors) == (
                w.r_squared, w.adj_r_squared, w.n, w.n_predictors)

    def test_constant_ratings_r2_zero(self):
        rng = np.random.default_rng(3)
        instances = []
        for i in range(20):
            inst = make_rated_instance(i, rng)
            flat = tuple(
                Candidate(c.turn, c.provenance, mean_rating=2.0) for c in inst.candidates
            )
            instances.append(RatedInstance(context=inst.context, candidates=flat))
        report = mcc_report(instances)
        for fit in report.values():
            assert fit.r_squared == pytest.approx(0.0, abs=1e-12)

    def test_default_tagset_covers_corpus(self, rated):
        tags = default_tagset(rated)
        assert set(tags) >= {"b", "qy", "sd"}

    def test_coefficient_table_format(self, rated):
        fit = mcc_report(rated)["entities"]
        table = fit.coefficient_table()
        lines = table.strip().split("\n")
        assert lines[0].split("\t") == [
            "name", "coefficient", "std_error", "t", "p", "significance",
        ]
        assert lines[1].startswith("intercept\t")
