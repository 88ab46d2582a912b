"""Reference math for the word-prediction auxiliary losses.

For one decoding step the model scores a vocabulary; the supervised targets
are the three human instruction words, up to N salient-object words weighted
by lambda, and optionally the crafted instruction word weighted by beta. The
loss, its analytic gradient and a finite-difference checker live here so the
numbers are pinned independently of any training framework.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import SplitMix64

GRAD_CHECK_TOLERANCE = 1e-6
_FD_STEP = 1e-5


class Vocab:
    """Bijective token <-> index mapping with stable order."""

    def __init__(self, tokens: Sequence[str]) -> None:
        self._tokens = tuple(tokens)
        self._index = {}
        for i, token in enumerate(self._tokens):
            if token in self._index:
                raise ValueError(f"duplicate token {token!r}")
            self._index[token] = i

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def index_of(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise ValueError(f"token {token!r} not in vocabulary") from None

    def token_at(self, index: int) -> str:
        if not 0 <= index < len(self._tokens):
            raise ValueError(f"index {index} out of range ({len(self._tokens)} tokens)")
        return self._tokens[index]


@dataclass(frozen=True)
class WordTargets:
    """Targets for one decoded word: 3 originals, object words, crafted word."""

    originals: tuple[int, int, int]
    objects: tuple[int, ...] = ()
    crafted: int | None = None

    def __post_init__(self) -> None:
        if len(self.originals) != 3:
            raise ValueError(f"exactly 3 original targets required, got {len(self.originals)}")


@dataclass(frozen=True)
class LossBreakdown:
    base: float
    objects_term: float
    crafted_term: float
    total: float
    lam: float
    beta: float


def log_softmax(logits: np.ndarray | Sequence[float]) -> np.ndarray:
    """Numerically stable log-probabilities (max subtraction)."""
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("logits must be a non-empty 1-D vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("logits must be finite")
    shifted = x - np.max(x)
    return shifted - np.log(np.sum(np.exp(shifted)))


def nll(log_probs: np.ndarray, target: int) -> float:
    """Negative log-likelihood of one target index."""
    if not 0 <= target < log_probs.shape[0]:
        raise ValueError(f"target {target} out of range ({log_probs.shape[0]} classes)")
    return float(-log_probs[target])


def _check_weights(lam: float, beta: float, targets: WordTargets) -> None:
    if lam < 0.0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    if beta < 0.0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    if lam > 0.0 and not targets.objects:
        raise ValueError("object targets required when lambda > 0")
    if beta > 0.0 and targets.crafted is None:
        raise ValueError("a crafted target is required when beta > 0")


def word_loss(logits: np.ndarray | Sequence[float], targets: WordTargets,
              lam: float = 0.0, beta: float = 0.0) -> LossBreakdown:
    """base + lambda * sum(objects) + beta * crafted, all plain NLL sums."""
    _check_weights(lam, beta, targets)
    log_probs = log_softmax(logits)
    base = sum(nll(log_probs, t) for t in targets.originals)
    objects_term = sum(nll(log_probs, t) for t in targets.objects)
    crafted_term = nll(log_probs, targets.crafted) if targets.crafted is not None else 0.0
    total = base + lam * objects_term + beta * crafted_term
    return LossBreakdown(base, objects_term, crafted_term, total, lam, beta)


def sequence_loss(logits_seq: Sequence, targets_seq: Sequence[WordTargets],
                  lam: float = 0.0, beta: float = 0.0) -> float:
    """Mean of per-word totals over a sequence."""
    if len(logits_seq) != len(targets_seq):
        raise ValueError(
            f"sequence lengths differ: {len(logits_seq)} logits vs {len(targets_seq)} targets"
        )
    if not targets_seq:
        raise ValueError("cannot reduce an empty sequence")
    totals = [word_loss(lg, tg, lam=lam, beta=beta).total
              for lg, tg in zip(logits_seq, targets_seq)]
    return sum(totals) / len(totals)


def grad_logits(logits: np.ndarray | Sequence[float], targets: WordTargets,
                lam: float = 0.0, beta: float = 0.0) -> np.ndarray:
    """Analytic gradient of word_loss(...).total with respect to the logits.

    Equals (3 + lambda*|objects| + beta*[crafted]) * softmax(logits) minus
    the weighted one-hot sum over all targets.
    """
    _check_weights(lam, beta, targets)
    probs = np.exp(log_softmax(logits))
    weight_total = 3.0 + lam * len(targets.objects) + (beta if targets.crafted is not None else 0.0)
    grad = weight_total * probs
    for t in targets.originals:
        if not 0 <= t < grad.shape[0]:
            raise ValueError(f"target {t} out of range ({grad.shape[0]} classes)")
        grad[t] -= 1.0
    for t in targets.objects:
        if not 0 <= t < grad.shape[0]:
            raise ValueError(f"target {t} out of range ({grad.shape[0]} classes)")
        grad[t] -= lam
    if targets.crafted is not None:
        if not 0 <= targets.crafted < grad.shape[0]:
            raise ValueError(f"target {targets.crafted} out of range ({grad.shape[0]} classes)")
        grad[targets.crafted] -= beta
    return grad


def finite_difference_grad(logits, targets: WordTargets, lam: float = 0.0,
                           beta: float = 0.0, step: float = _FD_STEP) -> np.ndarray:
    """Central-difference gradient of word_loss(...).total."""
    x = np.asarray(logits, dtype=np.float64).copy()
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        orig = x[i]
        x[i] = orig + step
        hi = word_loss(x, targets, lam=lam, beta=beta).total
        x[i] = orig - step
        lo = word_loss(x, targets, lam=lam, beta=beta).total
        x[i] = orig
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


def gradient_check(instances: int = 100, seed: int = 7, max_vocab: int = 16,
                   lam: float = 0.5, n_objects: int = 2, beta: float = 0.3) -> dict:
    """Compare analytic and finite-difference gradients on random instances.

    Instance generation is splitmix64-driven so reports are reproducible.
    The relative error of an instance is the max absolute component gap
    normalized by the largest analytic component magnitude.
    """
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    rng = SplitMix64(seed)
    worst = 0.0
    total = 0.0
    for _ in range(instances):
        vocab = 2 + rng.below(max_vocab - 1)  # V in [2, max_vocab]
        logits = np.array([rng.unit() * 8.0 - 4.0 for _ in range(vocab)])
        targets = WordTargets(
            originals=(rng.below(vocab), rng.below(vocab), rng.below(vocab)),
            objects=tuple(rng.below(vocab) for _ in range(n_objects)),
            crafted=rng.below(vocab),
        )
        analytic = grad_logits(logits, targets, lam=lam, beta=beta)
        numeric = finite_difference_grad(logits, targets, lam=lam, beta=beta)
        scale = max(float(np.max(np.abs(analytic))), 1e-12)
        rel = float(np.max(np.abs(analytic - numeric))) / scale
        worst = max(worst, rel)
        total += rel
    return {
        "instances": instances,
        "max_rel_error": worst,
        "mean_rel_error": total / instances,
        "tolerance": GRAD_CHECK_TOLERANCE,
        "passed": worst <= GRAD_CHECK_TOLERANCE,
    }
