"""Mapping objective scores to subjective quality and benchmark statistics.

The five-parameter logistic maps raw scores to predicted subjective quality;
it is fitted by a damped Gauss-Newton loop that only ever accepts improving
steps (deterministic, monotone in RMSE). Correlation metrics are the standard
Pearson coefficient, Spearman's rank coefficient with average ranks on ties,
and RMSE. Cost/performance points are pruned to their Pareto front.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateData, LengthMismatch, TooFew, ValidationError


@dataclass(frozen=True)
class Logistic5:
    """Parameters of Q(x) = b1*(1/2 - 1/(1 + exp(b2*(x - b3)))) + b4*x + b5."""

    beta1: float
    beta2: float
    beta3: float
    beta4: float
    beta5: float

    def __post_init__(self):
        for name in ("beta1", "beta2", "beta3", "beta4", "beta5"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.beta1, self.beta2, self.beta3, self.beta4, self.beta5])

    def __call__(self, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        return eval_5pl(self, x)


def eval_5pl(params: Logistic5, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Evaluate the five-parameter logistic at x."""
    arr = np.asarray(x, dtype=np.float64)
    out = _eval_raw(params.as_array(), arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _eval_raw(beta: np.ndarray, x: np.ndarray) -> np.ndarray:
    t = np.clip(beta[1] * (x - beta[2]), -500.0, 500.0)
    g = 1.0 / (1.0 + np.exp(t))
    return beta[0] * (0.5 - g) + beta[3] * x + beta[4]


def _jacobian(beta: np.ndarray, x: np.ndarray) -> np.ndarray:
    t = np.clip(beta[1] * (x - beta[2]), -500.0, 500.0)
    g = 1.0 / (1.0 + np.exp(t))
    gg = g * (1.0 - g)
    jac = np.empty((x.size, 5))
    jac[:, 0] = 0.5 - g
    jac[:, 1] = beta[0] * gg * (x - beta[2])
    jac[:, 2] = -beta[0] * gg * beta[1]
    jac[:, 3] = x
    jac[:, 4] = 1.0
    return jac


@dataclass(frozen=True)
class LabeledDataset:
    """Rows of (content id, objective score, subjective score in [0, 1])."""

    content_ids: tuple[str, ...]
    objective: np.ndarray
    subjective: np.ndarray

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=np.float64).reshape(-1)
        subj = np.asarray(self.subjective, dtype=np.float64).reshape(-1)
        ids = tuple(str(c) for c in self.content_ids)
        if not (len(ids) == obj.size == subj.size):
            raise LengthMismatch("ids, objective, and subjective must align")
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate content ids")
        if not (np.isfinite(obj).all() and np.isfinite(subj).all()):
            raise ValidationError("scores must be finite")
        if subj.size and (subj.min() < 0.0 or subj.max() > 1.0):
            raise ValidationError("subjective scores must be normalized to [0, 1]")
        obj.setflags(write=False)
        subj.setflags(write=False)
        object.__setattr__(self, "content_ids", ids)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "subjective", subj)

    def __len__(self) -> int:
        return len(self.content_ids)

    @classmethod
    def from_pairs(cls, objective: Iterable[float], subjective: Iterable[float]) -> "LabeledDataset":
        obj = list(objective)
        return cls(tuple(str(i) for i in range(len(obj))), np.asarray(obj), np.asarray(list(subjective)))


def normalize_scores(raw: Sequence[float]) -> np.ndarray:
    """Scale and shift raw subjective scores onto [0, 1]."""
    arr = np.asarray(raw, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("cannot normalize an empty score set")
    lo, hi = arr.min(), arr.max()
    if hi == lo:
        raise DegenerateData("cannot normalize a constant score set")
    return (arr - lo) / (hi - lo)


def fit_5pl(
    data: LabeledDataset,
    max_iter: int = 500,
    tol: float = 1e-10,
    trace: Optional[list] = None,
) -> Logistic5:
    """Least-squares 5PL fit by damped Gauss-Newton.

    Initialization: beta1 = subjective range, beta2 = 10 / objective range,
    beta3 = median objective, beta4/beta5 from the least-squares line. Steps
    solve (J'J + lam*(diag(J'J) + eps)) d = -J'r; lam shrinks x10 on accepted
    steps and grows x10 on rejected ones, so RMSE never increases. Converges
    when the relative RMSE improvement drops below ``tol``.
    """
    if not isinstance(max_iter, int) or isinstance(max_iter, bool) or max_iter < 0:
        raise ValidationError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    if not tol >= 0.0:
        raise ValidationError(f"tol must be a number >= 0, got {tol!r}")
    x = data.objective
    y = data.subjective
    if np.unique(x).size < 5:
        raise DegenerateData("need at least 5 distinct objective scores to fit a 5PL")

    x_range = float(x.max() - x.min())
    slope, intercept = np.polyfit(x, y, 1)
    beta = np.array(
        [float(y.max() - y.min()), 10.0 / x_range, float(np.median(x)), float(slope), float(intercept)]
    )

    def rmse_of(b: np.ndarray) -> float:
        r = _eval_raw(b, x) - y
        return float(np.sqrt(np.mean(r * r)))

    best = beta.copy()
    best_rmse = rmse_of(best)
    if trace is not None:
        trace.append(best_rmse)
    lam = 1e-3
    for _ in range(max_iter):
        r = _eval_raw(best, x) - y
        jac = _jacobian(best, x)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        accepted = False
        for _ in range(25):
            damped = jtj + lam * (np.diag(np.diag(jtj)) + 1e-12 * np.eye(5))
            try:
                step = np.linalg.solve(damped, -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = best + step
            cand_rmse = rmse_of(cand)
            if np.isfinite(cand_rmse) and cand_rmse < best_rmse:
                improvement = (best_rmse - cand_rmse) / max(best_rmse, 1e-300)
                best, best_rmse = cand, cand_rmse
                if trace is not None:
                    trace.append(best_rmse)
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                break
            lam *= 10.0
            if lam > 1e12:
                break
        if not accepted:
            break
        if improvement < tol:
            break
    return Logistic5(*best)


def cross_apply(fit: Logistic5, target: LabeledDataset) -> float:
    """RMSE of a fitted mapping applied, unchanged, to a dataset: its own
    training data or another."""
    r = np.asarray(eval_5pl(fit, target.objective)) - target.subjective
    return float(np.sqrt(np.mean(r * r)))


def is_rank_preserving(params: Logistic5, x_lo: float, x_hi: float, points: int = 1000) -> bool:
    """True when the curve is monotone in either direction on the interval.

    A decreasing fit (e.g. from dissimilarity-style pooled scores) still
    preserves ranks after mapping.
    """
    if not isinstance(points, int) or isinstance(points, bool) or points < 2:
        raise ValidationError(f"points must be an integer >= 2, got {points!r}")
    grid = np.linspace(x_lo, x_hi, points)
    vals = np.asarray(eval_5pl(params, grid))
    diffs = np.diff(vals)
    return bool(np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12))


def rank_with_ties(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of their would-be ranks."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def correlations(pred: Sequence[float], subj: Sequence[float]) -> tuple[float, float, float]:
    """(PCC, SROCC, RMSE) between predictions and subjective scores.

    Zero-variance inputs make the correlation coefficients NaN rather than
    raising; RMSE is always defined.
    """
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    s = np.asarray(subj, dtype=np.float64).reshape(-1)
    if p.size != s.size:
        raise LengthMismatch(f"{p.size} predictions vs {s.size} subjective scores")
    if p.size < 2:
        raise TooFew("need at least two points for correlations")
    if not (np.isfinite(p).all() and np.isfinite(s).all()):
        raise ValidationError("predictions and subjective scores must be finite")
    pcc = _pearson(p, s)
    srocc = _pearson(rank_with_ties(p), rank_with_ties(s))
    rmse = float(np.sqrt(np.mean((p - s) ** 2)))
    return pcc, srocc, rmse


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0.0:
        return float("nan")
    return float((da * db).sum() / denom)


@dataclass(frozen=True)
class CostPerfPoint:
    """One implementation's cost (seconds of user time) and performance (SROCC)."""

    label: str
    cost: float
    perf: float

    def __post_init__(self):
        if not self.cost > 0:
            raise ValidationError(f"cost must be positive, got {self.cost!r}")
        if not -1.0 <= self.perf <= 1.0:
            raise ValidationError(f"perf must lie in [-1, 1], got {self.perf!r}")


def dominates(a: CostPerfPoint, b: CostPerfPoint) -> bool:
    """True iff a is at least as good on both axes and strictly better on one."""
    return a.perf >= b.perf and a.cost <= b.cost and (a.perf > b.perf or a.cost < b.cost)


def pareto_front(points: Sequence[CostPerfPoint]) -> list[CostPerfPoint]:
    """Points not dominated by any other point (ties survive)."""
    return [p for p in points if not any(dominates(q, p) for q in points)]


def read_csv(path: str, what: str, required: Sequence[str], parse_row: Callable[[dict], object]) -> list:
    """Rows of a UTF-8 CSV file with the ``required`` columns, each through
    ``parse_row``. A file that is not UTF-8 CSV, lacks a column or has no
    data rows raises ValidationError naming the file; a row short of a
    required field, or that ``parse_row`` rejects with ValueError, one
    naming ``{what} row N``."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(required) <= set(reader.fieldnames):
                raise ValidationError(f"{path}: {what} needs columns {sorted(required)}, got {reader.fieldnames}")
            rows = []
            for i, row in enumerate(reader):
                short = sorted(key for key in required if row[key] is None)
                try:
                    if short:
                        raise ValueError(f"no {', '.join(short)} field")
                    rows.append(parse_row(row))
                except ValueError as exc:
                    raise ValidationError(f"{what} row {i + 2}: {exc}") from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"{path}: not a {what} CSV: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: {what} has no data rows")
    return rows


def finite_float(text: str) -> float:
    """A CSV field as a finite float; ``nan`` and ``inf`` raise ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def load_manifest(path: str) -> list[dict]:
    """Rows of a dataset manifest CSV (see :func:`read_csv`).

    Columns: ref_path, dist_path, subjective_score, plus optional width,
    height, bit_depth, chroma for raw video rows. The file is UTF-8 text.
    """
    return read_csv(path, "manifest", ("ref_path", "dist_path", "subjective_score"), _manifest_row)


def _manifest_row(row: dict) -> dict:
    parsed = {
        "ref_path": row["ref_path"].strip(),
        "dist_path": row["dist_path"].strip(),
        "subjective_score": finite_float(row["subjective_score"]),
    }
    for key in ("width", "height", "bit_depth"):
        if row.get(key):
            parsed[key] = int(row[key])
    if "\0" in parsed["ref_path"] + parsed["dist_path"]:
        raise ValueError("a path holds a NUL byte")
    if row.get("chroma"):
        parsed["chroma"] = row["chroma"].strip()
    return parsed
