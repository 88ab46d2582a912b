"""Reference math for the word-prediction auxiliary losses.

For one decoding step the model scores a vocabulary; the supervised targets
are the three human instruction words, up to N salient-object words weighted
by lambda, and optionally the crafted instruction word weighted by beta. The
loss, its analytic gradient and a finite-difference checker live here so the
numbers are pinned independently of any training framework.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

from .rng import SplitMix64

GRAD_CHECK_TOLERANCE = 1e-6
_FD_STEP = 1e-5


@dataclass(frozen=True, slots=True)
class WordTargets:
    """Targets for one decoded word: 3 originals, object words, crafted word."""

    originals: tuple[int, int, int]
    objects: tuple[int, ...] = ()
    crafted: int | None = None

    def __post_init__(self) -> None:
        if len(self.originals) != 3:
            raise ValueError(f"exactly 3 original targets required, got {len(self.originals)}")


@dataclass(frozen=True, slots=True)
class LossBreakdown:
    base: float
    objects_term: float
    crafted_term: float
    total: float
    lam: float
    beta: float


def _logit_vector(logits: Sequence[float]) -> list[float]:
    """The logits as plain floats; anything but a non-empty 1-D sequence of
    finite reals (a 2-D array, a string, a scalar) is a ValueError."""
    try:
        values = list(logits)
    except TypeError:
        values = []
    if not values or not all(isinstance(v, Real) for v in values):
        raise ValueError("logits must be a non-empty 1-D vector")
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError("logits must be finite")
    return [float(v) for v in values]


def log_softmax(logits: Sequence[float]) -> list[float]:
    """Numerically stable log-probabilities (max subtraction)."""
    values = _logit_vector(logits)
    top = max(values)
    shifted = [v - top for v in values]
    log_total = math.log(math.fsum(math.exp(v) for v in shifted))
    return [v - log_total for v in shifted]


def nll(log_probs: Sequence[float], target: int) -> float:
    """Negative log-likelihood of one target index."""
    if not 0 <= target < len(log_probs):
        raise ValueError(f"target {target} out of range ({len(log_probs)} classes)")
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


def word_loss(logits: Sequence[float], targets: WordTargets,
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


def grad_logits(logits: Sequence[float], targets: WordTargets,
                lam: float = 0.0, beta: float = 0.0) -> list[float]:
    """Analytic gradient of word_loss(...).total with respect to the logits.

    Equals (3 + lambda*|objects| + beta*[crafted]) * softmax(logits) minus
    the weighted one-hot sum over all targets.
    """
    _check_weights(lam, beta, targets)
    weight_total = 3.0 + lam * len(targets.objects) + (beta if targets.crafted is not None else 0.0)
    grad = [weight_total * math.exp(v) for v in log_softmax(logits)]
    weighted = [(t, 1.0) for t in targets.originals] + [(t, lam) for t in targets.objects]
    if targets.crafted is not None:
        weighted.append((targets.crafted, beta))
    for t, weight in weighted:
        if not 0 <= t < len(grad):
            raise ValueError(f"target {t} out of range ({len(grad)} classes)")
        grad[t] -= weight
    return grad


def finite_difference_grad(logits: Sequence[float], targets: WordTargets, lam: float = 0.0,
                           beta: float = 0.0, step: float = _FD_STEP) -> list[float]:
    """Central-difference gradient of word_loss(...).total."""
    x = _logit_vector(logits)
    grad = []
    for i, orig in enumerate(x):
        x[i] = orig + step
        hi = word_loss(x, targets, lam=lam, beta=beta).total
        x[i] = orig - step
        lo = word_loss(x, targets, lam=lam, beta=beta).total
        x[i] = orig
        grad.append((hi - lo) / (2.0 * step))
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
    if max_vocab < 2:
        raise ValueError(f"max_vocab must be at least 2, got {max_vocab}")
    rng = SplitMix64(seed)
    worst = 0.0
    total = 0.0
    for _ in range(instances):
        vocab = 2 + rng.below(max_vocab - 1)  # V in [2, max_vocab]
        logits = [rng.unit() * 8.0 - 4.0 for _ in range(vocab)]
        targets = WordTargets(
            originals=(rng.below(vocab), rng.below(vocab), rng.below(vocab)),
            objects=tuple(rng.below(vocab) for _ in range(n_objects)),
            crafted=rng.below(vocab),
        )
        analytic = grad_logits(logits, targets, lam=lam, beta=beta)
        numeric = finite_difference_grad(logits, targets, lam=lam, beta=beta)
        scale = max(max(map(abs, analytic)), 1e-12)
        rel = max(abs(a - n) for a, n in zip(analytic, numeric)) / scale
        worst = max(worst, rel)
        total += rel
    return {
        "instances": instances,
        "max_rel_error": worst,
        "mean_rel_error": total / instances,
        "tolerance": GRAD_CHECK_TOLERANCE,
        "passed": worst <= GRAD_CHECK_TOLERANCE,
    }
