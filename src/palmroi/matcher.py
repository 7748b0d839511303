"""Template database, enrollment, 1-NN identification and verification.

A template is a labeled feature vector; identification returns the palm id
of the Euclidean-nearest enrolled template (ties go to the first enrolled),
and verification accepts a claimed identity when the Euclidean distance to
that palm's nearest template is within a caller-supplied threshold.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .image import read_records


@dataclass(frozen=True)
class Template:
    palm_id: str
    sample_id: str
    features: np.ndarray


@dataclass(frozen=True)
class TemplateDB:
    k: int
    templates: tuple[Template, ...]

    def __len__(self) -> int:
        return len(self.templates)


@dataclass(frozen=True)
class EvaluationReport:
    """Identification outcome: exact counts plus the derived rate R."""

    total: int
    correct: int
    R: float


def enroll(samples: Iterable[tuple[str, str, np.ndarray]]) -> TemplateDB:
    """Build a TemplateDB; all vectors must share a length and (palm, sample) keys be unique."""
    templates = []
    seen = set()
    k = None
    for palm_id, sample_id, values in samples:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("feature vectors must be 1-D")
        if k is None:
            k = values.size
        elif values.size != k:
            raise ValueError(
                f"feature length mismatch: expected {k}, got {values.size} "
                f"for ({palm_id}, {sample_id})"
            )
        key = (palm_id, sample_id)
        if key in seen:
            raise ValueError(f"duplicate template key {key}")
        seen.add(key)
        templates.append(Template(palm_id, sample_id, values))
    return TemplateDB(k=k if k is not None else 0, templates=tuple(templates))


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two equal-length feature vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return math.sqrt(np.add.reduce(d * d))


def identify(f: np.ndarray, db: TemplateDB, metric: str = "euclidean") -> tuple[str, float]:
    """(palm_id, distance) of the nearest template; first enrolled wins ties."""
    # metric only serves pipebench's checked_identify wrapper, which passes it on; ROADMAP item 1B drops it
    if metric != "euclidean":
        raise ValueError(f"unknown metric {metric!r}; distances are Euclidean")
    if len(db) == 0:
        raise ValueError("cannot identify against an empty template database")
    best_i = 0
    best_d = distance(f, db.templates[0].features)
    for i in range(1, len(db.templates)):
        d = distance(f, db.templates[i].features)
        if d < best_d:
            best_i, best_d = i, d
    return db.templates[best_i].palm_id, best_d


def verify(f: np.ndarray, db: TemplateDB, claimed: str, tau: float) -> bool:
    """Accept iff the nearest template of the claimed palm is within tau (a number >= 0)."""
    if math.isnan(tau):
        raise ValueError("tau must be a number, got nan")
    if tau < 0:  # no distance is below 0, so every claim would be rejected
        raise ValueError(f"tau must be >= 0, got {tau}")
    candidates = [t for t in db.templates if t.palm_id == claimed]
    if not candidates:
        raise ValueError(f"claimed palm_id {claimed!r} not enrolled")
    best = min(distance(f, t.features) for t in candidates)
    return best <= tau


def accuracy(predictions: Sequence[tuple[str, str]]) -> EvaluationReport:
    """Correct-classification rate over (predicted, truth) pairs."""
    if not predictions:
        raise ValueError("accuracy needs at least one prediction")
    total = len(predictions)
    correct = sum(1 for predicted, truth in predictions if predicted == truth)
    return EvaluationReport(total=total, correct=correct, R=correct / total)


# ---------------------------------------------------------------------------
# Template DB file format: one template per line, tab-separated fields
# palm_id, sample_id, k, comma-separated feature values with 6 fractional
# digits; '#' lines are comments.

def _format_features(values: np.ndarray) -> str:
    return ",".join(f"{v:.6f}" for v in values)


# Each value is -?[0-9]+(\.[0-9]+)?: float() would also take '_', '+', exponents and 'nan'.
_FEATURE_VECTOR = re.compile(r"-?[0-9]+(\.[0-9]+)?(,-?[0-9]+(\.[0-9]+)?)*")


def _parse_features(text: str) -> np.ndarray:
    if _FEATURE_VECTOR.fullmatch(text):
        values = np.array([float(part) for part in text.split(",")], dtype=np.float64)
        if np.isfinite(values).all():  # a long enough digit string overflows to inf
            return values
    raise ValueError(f"malformed feature vector: {text!r}")


def save_db(db: TemplateDB, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# palm_id\tsample_id\tk\tfeatures\n")
        for t in db.templates:
            fh.write(f"{t.palm_id}\t{t.sample_id}\t{t.features.size}\t{_format_features(t.features)}\n")


def load_db(path) -> TemplateDB:
    """Read a DB file; every error after the record layer names ``path:line``."""
    records = list(read_records(path, 4))  # its errors already name path:line
    if not records:
        raise ValueError(f"{path}: no templates")
    lineno = 0

    def samples():
        nonlocal lineno
        for lineno, (palm_id, sample_id, k_text, values_text) in records:
            if not k_text.isdigit():  # the record layer lets only ASCII through; int() would also take '+' and '_'
                raise ValueError(f"k must be an integer, got {k_text!r}")
            k = int(k_text)
            values = _parse_features(values_text)
            if k != values.size:
                raise ValueError(f"declared k={k_text} but {values.size} values")
            yield palm_id, sample_id, values

    try:
        return enroll(samples())
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
