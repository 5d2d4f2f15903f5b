"""Training objective: reconstruction terms, KL divergence, beta schedule.

Both reconstruction kinds and the KL term are means over the batch
dimension so their ratio does not depend on batch size; the L1 penalty
is summed over weights and added unscaled.
"""

from dataclasses import dataclass

import numpy as np

from .layers import _as_real

BCE_CLAMP = 1e-7
SOFT_F1_EPS = 1e-8


def kl_divergence(mu, logvar):
    """Mean over the batch of D_KL(N(mu, exp(logvar)) || N(0, I)).

    Computed as 0.5 * sum(mu^2 + expm1(logvar) - logvar), an algebraic
    rewrite of -0.5 * sum(1 + logvar - mu^2 - exp(logvar)) whose terms
    are individually nonnegative, so the result cannot go negative from
    rounding.
    """
    mu, logvar = _as_real(mu), _as_real(logvar)
    if mu.shape != logvar.shape:
        raise ValueError("mu and logvar shapes differ")
    per_sample = 0.5 * (mu * mu + np.expm1(logvar) - logvar).sum(axis=1)
    return per_sample.mean()


def kl_grads(mu, logvar):
    """d kl_divergence / d mu and / d logvar (unweighted by beta)."""
    b = mu.shape[0]
    return mu / b, 0.5 * np.expm1(logvar) / b


def f1_counts(pred, target):
    """True positives, false positives and false negatives pooled over
    every cell; probabilistic (soft) counts when pred holds probabilities."""
    tp = (pred * target).sum()
    fp = (pred * (1.0 - target)).sum()
    fn = ((1.0 - pred) * target).sum()
    return tp, fp, fn


def reconstruction_loss(kind, probs, targets):
    """bce: elementwise mean of the clamped cross-entropy.
    soft_f1: 1 - micro soft F1 with probabilistic counts pooled over the
    whole batch."""
    probs, targets = _as_real(probs), _as_real(targets)
    if probs.shape != targets.shape:
        raise ValueError("probs and targets shapes differ")
    if kind == "bce":
        p = np.clip(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
        ll = targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)
        return -ll.mean()
    if kind == "soft_f1":
        tp, fp, fn = f1_counts(probs, targets)
        return 1.0 - (2.0 * tp + SOFT_F1_EPS) / (2.0 * tp + fp + fn + SOFT_F1_EPS)
    raise ValueError(f"unknown loss kind {kind!r}")


def reconstruction_grad(kind, probs, targets):
    probs, targets = _as_real(probs), _as_real(targets)
    if probs.shape != targets.shape:
        raise ValueError("probs and targets shapes differ")
    if kind == "bce":
        p = np.clip(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
        grad = (p - targets) / (p * (1.0 - p)) / probs.size
        # clamped entries are flat in probs
        grad[(probs < BCE_CLAMP) | (probs > 1.0 - BCE_CLAMP)] = 0.0
        return grad
    if kind == "soft_f1":
        tp, fp, fn = f1_counts(probs, targets)
        num = 2.0 * tp + SOFT_F1_EPS
        den = 2.0 * tp + fp + fn + SOFT_F1_EPS
        # d num / dp = 2y, d den / dp = 1 everywhere
        return (num - 2.0 * targets * den) / (den * den)
    raise ValueError(f"unknown loss kind {kind!r}")


@dataclass
class VaeLossBreakdown:
    recon: float
    kl: float
    l1: float
    beta: float
    total: float


def total_loss(recon, kl, l1, beta):
    for name, value in (("recon", recon), ("kl", kl), ("l1", l1), ("beta", beta)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    return VaeLossBreakdown(recon, kl, l1, beta, recon + beta * kl + l1)


@dataclass
class BetaSchedule:
    kind: str = "linear_warmup"  # constant | linear_warmup
    beta_max: float = 3e-2  # the reference recipe; near 1.0 the posterior collapses
    warmup_epochs: int = 25

    def validate(self):
        if self.kind not in ("constant", "linear_warmup"):
            raise ValueError(f"unknown beta schedule kind {self.kind!r}")
        if self.beta_max < 0:
            raise ValueError("beta_max must be nonnegative")
        if self.kind == "linear_warmup" and int(self.warmup_epochs) < 1:
            raise ValueError("warmup_epochs must be >= 1")


def beta_at_epoch(schedule, epoch):
    """KL weight for a 0-based epoch; non-decreasing in epoch."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    schedule.validate()
    if schedule.kind == "constant":
        return float(schedule.beta_max)
    return float(schedule.beta_max) * min(1.0, epoch / float(schedule.warmup_epochs))
