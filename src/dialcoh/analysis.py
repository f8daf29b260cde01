"""Regression study of what drives turn-coherence ratings.

Per-candidate features: how many of the candidate's entity mentions repeat a
head already introduced in the context (overlap), how many are new (novel),
and one binary indicator per DA label. Ordinary least squares with an
intercept relates these to mean coherence ratings; fits report R squared,
adjusted R squared, and coefficient significance from the t distribution
(CDF evaluated through the regularized incomplete beta function).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Turn
from .errors import DataError, NumericError
from .swapgen import RatedInstance

FEATURE_GROUPS = ("entities", "das", "all")


@dataclass(frozen=True)
class TurnFeatureVector:
    overlap_entities: int
    novel_entities: int
    da_indicators: tuple[int, ...]  # aligned with the tagset passed at extraction
    tagset: tuple[str, ...]


def extract_turn_features(
    context: Sequence[Turn], candidate: Turn, tagset: Sequence[str]
) -> TurnFeatureVector:
    """Count overlapping/novel candidate mentions against the context head set
    (case-folded; duplicates in the candidate each count) and flag the DA
    labels the candidate contains."""
    context_heads = {m.head.lower() for turn in context for m in turn.mentions()}
    overlap = 0
    total = 0
    for m in candidate.mentions():
        total += 1
        if m.head.lower() in context_heads:
            overlap += 1
    present = {seg.da for seg in candidate.segments}
    indicators = tuple(1 if tag in present else 0 for tag in tagset)
    return TurnFeatureVector(
        overlap_entities=overlap,
        novel_entities=total - overlap,
        da_indicators=indicators,
        tagset=tuple(tagset),
    )


# -- Student-t machinery -------------------------------------------------------


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) via the continued fraction (modified Lentz), accurate to
    ~1e-14 over the parameter ranges the t distribution needs."""
    if a <= 0 or b <= 0:
        raise NumericError("incomplete beta requires a > 0 and b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(ln_front) * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float, max_iter: int = 300, eps: float = 1e-15) -> float:
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise NumericError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for T ~ t(df); monotone decreasing in |t|."""
    if df <= 0:
        raise NumericError("degrees of freedom must be > 0")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def significance_stars(p: float) -> str:
    if p < 0.01:
        return "**"
    if p <= 0.05:
        return "*"
    return ""


def adjusted_r_squared(r2: float, n: int, p: int) -> float:
    if n - p - 1 <= 0:
        raise DataError("adjusted R squared needs n > p + 1")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


# -- ordinary least squares -----------------------------------------------------


@dataclass(frozen=True)
class OlsFit:
    names: tuple[str, ...]  # intercept first
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_statistics: np.ndarray
    p_values: np.ndarray
    r_squared: float
    adj_r_squared: float
    n: int
    n_predictors: int

    def coefficient_table(self) -> str:
        """TSV: name, coefficient, SE, t, p, stars."""
        lines = ["name\tcoefficient\tstd_error\tt\tp\tsignificance"]
        for i, name in enumerate(self.names):
            lines.append(
                f"{name}\t{self.coefficients[i]!r}\t{self.standard_errors[i]!r}"
                f"\t{self.t_statistics[i]!r}\t{self.p_values[i]!r}"
                f"\t{significance_stars(float(self.p_values[i]))}"
            )
        return "\n".join(lines) + "\n"

    def summary_dict(self) -> dict:
        return {
            "r_squared": self.r_squared,
            "adj_r_squared": self.adj_r_squared,
            "n": self.n,
            "n_predictors": self.n_predictors,
            "coefficients": {
                name: {
                    "coefficient": float(self.coefficients[i]),
                    "std_error": float(self.standard_errors[i]),
                    "t": float(self.t_statistics[i]),
                    "p": float(self.p_values[i]),
                    "significance": significance_stars(float(self.p_values[i])),
                }
                for i, name in enumerate(self.names)
            },
        }


def fit_ols(X: np.ndarray, y: np.ndarray, names: Sequence[str] | None = None) -> OlsFit:
    """Least squares with an intercept via QR decomposition.

    Raises on rank deficiency or when n <= p + 1. Standard errors use the
    unbiased residual variance; p-values are two-sided t probabilities.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("design matrix must be 2-dimensional")
    n, p = X.shape
    if y.shape != (n,):
        raise DataError(f"response length {y.shape} does not match {n} rows")
    if n <= p + 1:
        raise DataError(f"need n > p + 1 observations (n={n}, p={p})")
    if names is None:
        names = [f"x{i}" for i in range(p)]
    if len(names) != p:
        raise DataError("one name per predictor required")
    design = np.hstack([np.ones((n, 1)), X])
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    if diag.min() <= max(n, p + 1) * np.finfo(np.float64).eps * max(diag.max(), 1.0):
        raise NumericError("design matrix is rank deficient")
    beta = np.linalg.solve(r, q.T @ y)
    residuals = y - design @ beta
    ssr = float(residuals @ residuals)
    centered = y - y.mean()
    sst = float(centered @ centered)
    r2 = 0.0 if sst == 0.0 else 1.0 - ssr / sst
    df = n - p - 1
    sigma2 = ssr / df
    r_inv = np.linalg.solve(r, np.eye(p + 1))
    covariance = sigma2 * (r_inv @ r_inv.T)
    se = np.sqrt(np.maximum(np.diag(covariance), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, beta / np.where(se > 0, se, 1.0), np.inf * np.sign(beta))
    t_stats = np.where((se == 0) & (beta == 0), 0.0, t_stats)
    p_values = np.asarray([student_t_two_sided_p(float(t), df) for t in t_stats])
    return OlsFit(
        names=("intercept", *names),
        coefficients=beta,
        standard_errors=se,
        t_statistics=t_stats,
        p_values=p_values,
        r_squared=r2,
        adj_r_squared=adjusted_r_squared(r2, n, p),
        n=n,
        n_predictors=p,
    )


# -- corpus study ----------------------------------------------------------------


def rated_design(
    instances: Sequence[RatedInstance], tagset: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The "all" design matrix, one row per candidate (its overlap and novel
    mention counts, then one indicator per tagset label), the mean-rating
    response, and the column names."""
    rows = []
    y = []
    for inst in instances:
        for cand in inst.candidates:
            if cand.mean_rating is None:
                raise DataError("regression requires a mean rating per candidate")
            feats = extract_turn_features(inst.context, cand.turn, tagset)
            rows.append((feats.overlap_entities, feats.novel_entities, *feats.da_indicators))
            y.append(cand.mean_rating)
    names = ["overlap_entities", "novel_entities", *(f"da:{t}" for t in tagset)]
    return np.asarray(rows, dtype=np.float64), np.asarray(y), names


def group_design(
    X: np.ndarray, names: Sequence[str], group: str
) -> tuple[np.ndarray, list[str]]:
    """A feature group's columns of the "all" design and their names.

    Constant columns cannot enter an OLS fit alongside the intercept, so they
    are dropped.
    """
    columns = {"entities": range(2), "das": range(2, len(names)), "all": range(len(names))}
    if group not in columns:
        raise DataError(f"unknown feature group {group!r}")
    keep = [j for j in columns[group] if np.ptp(X[:, j]) > 0]
    if not keep:
        raise DataError(f"all predictors in group {group!r} are constant")
    return X[:, keep], [names[j] for j in keep]


def default_tagset(instances: Sequence[RatedInstance]) -> tuple[str, ...]:
    tags = {
        seg.da
        for inst in instances
        for turn in [*inst.context, *(c.turn for c in inst.candidates)]
        for seg in turn.segments
    }
    return tuple(sorted(tags))


def mcc_report(
    instances: Sequence[RatedInstance],
    tagset: Sequence[str] | None = None,
    groups: Sequence[str] = FEATURE_GROUPS,
) -> dict[str, OlsFit]:
    """One regression per feature group predicting mean coherence ratings,
    each on its columns of one design (every candidate's features are
    extracted once)."""
    if tagset is None:
        tagset = default_tagset(instances)
    X, y, names = rated_design(instances, tagset)
    report = {}
    for group in groups:
        columns, kept = group_design(X, names, group)
        report[group] = fit_ols(columns, y, names=kept)
    return report


def group_stats(
    instances: Sequence[RatedInstance], groups: Sequence[str] = ("original", "internal", "external")
) -> dict[str, dict]:
    """Mean and population SD of mean ratings per candidate provenance."""
    ratings: dict[str, list[float]] = {g: [] for g in groups}
    for inst in instances:
        for cand in inst.candidates:
            if cand.provenance in ratings:
                if cand.mean_rating is None:
                    raise DataError("group statistics require mean ratings")
                ratings[cand.provenance].append(cand.mean_rating)
    out = {}
    for g in groups:
        values = np.asarray(ratings[g])
        if values.size == 0:
            raise DataError(f"no candidates with provenance {g!r}")
        out[g] = {
            "mean": float(values.mean()),
            "sd": float(values.std()),
            "count": int(values.size),
        }
    return out
