"""Sample-complexity constants for unit-atom dictionary learning.

Computes the dictionary-independent Lipschitz constants of the empirical
coding objective, the worst-case constant over all unit-ball distributions,
covering numbers of the product of unit spheres, the Hoeffding concentration
tail, and the deviation bound

    eta(n, m, d, L) = 2*sqrt(beta*log(n)/n) + sqrt((beta + x/sqrt(8))/n),
    beta = (m*d/8) * max(log(6*sqrt(8)*L), 1),

which holds uniformly over dictionaries with probability at least
1 - 2*exp(-x) whenever L strictly exceeds the worst-case constant.

Natural logarithms throughout. All guarantees are exact-arithmetic
statements evaluated here in double precision.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import Penalty, SignalSet, _count_as_float, _signals_of, l1_factor

__all__ = [
    "BoundInputs",
    "BoundReport",
    "empirical_L",
    "empirical_C",
    "empirical_C_squared",
    "worst_case_L",
    "log_covering_number",
    "log_covering_number_tight",
    "hoeffding_tail",
    "compute_beta",
    "compute_eta",
    "proof_constants",
    "full_report",
    "required_samples",
]

_SQRT8 = math.sqrt(8.0)
_STRICTNESS_BUMP = 1e-9  # keeps the auto-derived L strictly above threshold
_MAX_SAMPLES = 1 << 62
_ROUNDING_SLACK = 8 * float(np.finfo(float).eps)  # bounds the relative rounding error of n*tau^2 vs its exact value


def _signal_norms(X) -> np.ndarray:
    return np.linalg.norm(_signals_of(X), axis=0)


def _confidence(x) -> float:
    x = float(x)
    if not np.isfinite(x) or x < 0.0:
        raise ValueError(f"confidence_x must be a nonnegative finite real, got {x!r}")
    return x


def _per_sample_l1_radius(norms: np.ndarray, pen: Penalty, d: int) -> np.ndarray:
    # lam * d^(1-1/p)_+ * (0.5*||x||^2)^(1/q): the l1 radius of near-solutions
    return pen.lam * l1_factor(pen.p, d) * (0.5 * norms**2) ** (1.0 / pen.q)


def empirical_L(X, pen: Penalty, d: int) -> float:
    """Lipschitz constant of the empirical coding objective in the
    max-column metric: mean over samples of ``||x|| * lam * d^(1-1/p)_+ *
    (0.5*||x||^2)^(1/q)``. Dictionary-independent by construction.
    """
    norms = _signal_norms(X)
    return float(np.mean(norms * _per_sample_l1_radius(norms, pen, d)))


def empirical_C(X, pen: Penalty, d: int) -> float:
    """Curvature constant: ``(1/2n) * sum lam * d^(1-1/p)_+ * (0.5*||x||^2)^(1/q)``."""
    norms = _signal_norms(X)
    return float(0.5 * np.mean(_per_sample_l1_radius(norms, pen, d)))


def empirical_C_squared(X, pen: Penalty, d: int) -> float:
    """Alternate curvature reading with the per-sample l1 radius squared.

    Both readings are reported because they differ in the literature this
    follows; the Lipschitz checks use `empirical_L` only, which is unaffected.
    """
    norms = _signal_norms(X)
    return float(0.5 * np.mean(_per_sample_l1_radius(norms, pen, d) ** 2))


def worst_case_L(pen: Penalty, d: int) -> float:
    """Supremum of `empirical_L` over all unit-ball signal sets:
    ``lam * d^(1-1/p)_+ * (1/2)^(1/q)``. Above this level the empirical
    constant exceeds L with probability zero.
    """
    return pen.lam * l1_factor(pen.p, d) * 0.5 ** (1.0 / pen.q)


def _derived_L(pen: Penalty, d: int) -> float:
    """The L used when none is supplied: `worst_case_L` nudged up by 1e-9 so
    the strict inequality the bound requires holds literally."""
    return worst_case_L(pen, d) * (1.0 + _STRICTNESS_BUMP)


def log_covering_number(m: int, d: int, eps: float) -> float:
    """log of the ``(3/eps)^(m*d)`` bound on covering the product of d unit
    spheres in R^m at radius eps (max-column metric). Requires 0 < eps < 1.
    """
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    return m * d * math.log(3.0 / eps)


def log_covering_number_tight(m: int, d: int, eps: float) -> float:
    """log of the tighter ``(1 + 2/eps)^(m*d)`` sphere-product covering bound."""
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    return m * d * math.log1p(2.0 / eps)


def hoeffding_tail(n: int, tau: float) -> float:
    """``2*exp(-n*tau^2)``: bound on the probability that the empirical mean
    of per-sample coding qualities strays more than ``tau/sqrt(8)`` from its
    expectation, for samples in the unit ball.
    """
    tau = float(tau)
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau!r}")
    if int(n) < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return 2.0 * math.exp(-int(n) * tau * tau)


def compute_beta(m: int, d: int, L: float) -> float:
    """Driving constant ``(m*d/8) * max(log(6*sqrt(8)*L), 1)``."""
    L = float(L)
    if not np.isfinite(L) or L <= 0.0:
        raise ValueError(f"L must be a positive finite real, got {L!r}")
    if int(m) < 1 or int(d) < 1:
        raise ValueError("m and d must be positive integers")
    return (_count_as_float(m * d, "m*d") / 8.0) * max(math.log(6.0 * _SQRT8 * L), 1.0)


def compute_eta(n: int, beta: float, confidence_x: float) -> float:
    """Deviation bound ``2*sqrt(beta*log(n)/n) + sqrt((beta + x/sqrt(8))/n)``.

    Strictly decreasing in n from n = 3 on. n = 2 is accepted for
    convenience, but the underlying argument needs log(n) >= 1.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    nf = _count_as_float(n, "n")
    beta = float(beta)
    x = _confidence(confidence_x)
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    return 2.0 * math.sqrt(beta * math.log(nf) / nf) + math.sqrt((beta + x / _SQRT8) / nf)


def proof_constants(n: int, m: int, d: int, L: float, confidence_x: float):
    """Net radius, concentration level, and deviation used to certify eta:

        eps   = (1/(2L)) * sqrt(beta*log(n)/n)      (must land in (0, 1))
        tau   = sqrt((m*d*log(3/eps) + x) / n)
        gamma = tau / sqrt(8)

    By construction ``exp(m*d*log(3/eps)) * 2*exp(-n*tau^2) == 2*exp(-x)``;
    the identity is re-verified to 1e-10 relative before returning. A larger
    defect that the rounding of ``n*tau^2`` explains, at an ``x`` so large
    that a few ulps of ``m*d*log(3/eps) + x`` exceed 1e-10, is a ValueError:
    double precision cannot certify those inputs. Any other defect is an
    ArithmeticError.
    """
    n = int(n)
    x = _confidence(confidence_x)
    beta = compute_beta(m, d, L)
    if n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    eps = math.sqrt(beta * math.log(n) / n) / (2.0 * float(L))
    if not 0.0 < eps < 1.0:
        raise ValueError(
            f"net radius {eps:.6g} falls outside (0, 1); n={n} is too small for m={m}, d={d}, L={L}"
        )
    log_cover = m * d * math.log(3.0 / eps)
    tau = math.sqrt((log_cover + x) / n)
    gamma = tau / _SQRT8
    exponent = log_cover - n * tau * tau + x
    defect = math.expm1(exponent) if exponent < 709.0 else math.inf  # expm1 overflows from about 709.8
    if abs(defect) > 1e-10:
        if abs(exponent) <= _ROUNDING_SLACK * (log_cover + x):
            raise ValueError(
                f"confidence_x={x!r} is too large to certify in double precision: rounding alone "
                f"moves the net/tail identity by relative {defect:.3e}"
            )
        raise ArithmeticError(f"net/tail identity violated by relative {defect:.3e}")
    return eps, tau, gamma


@dataclass(frozen=True)
class BoundInputs:
    """Configuration for one bound evaluation.

    Leave L unset to derive it from the worst case over unit-ball
    distributions, nudged up by 1e-9 so the strict inequality the bound
    requires holds literally.
    """

    m: int
    d: int
    pen: Penalty
    n: int
    confidence_x: float = 0.0
    L: float | None = None

    def __post_init__(self):
        if int(self.m) < 1 or int(self.d) < 1:
            raise ValueError("m and d must be positive integers")
        if int(self.n) < 1:
            raise ValueError("n must be a positive integer")
        _confidence(self.confidence_x)
        if self.L is not None and (not np.isfinite(float(self.L)) or float(self.L) <= 0.0):
            raise ValueError("L must be a positive finite real when supplied")


@dataclass(frozen=True)
class BoundReport:
    """Every constant computed for one configuration.

    `L_X`, `C_X`, and `c_x_squared` are zero when no signal set was supplied.
    Serializes to a flat JSON object with these exact field names.
    """

    L_X: float
    C_X: float
    L_worst: float
    beta: float
    eta: float
    log_covering: float
    epsilon_net: float
    tau: float
    gamma: float
    hoeffding_tail: float
    c_x_squared: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def full_report(inputs: BoundInputs, X: SignalSet | None = None) -> BoundReport:
    """Evaluate every bound constant for one configuration.

    L defaults to the worst-case constant times (1 + 1e-9); supplying a
    signal set additionally fills the empirical constants.
    """
    pen, m, d, n = inputs.pen, int(inputs.m), int(inputs.d), int(inputs.n)
    x = float(inputs.confidence_x)
    L = float(inputs.L) if inputs.L is not None else _derived_L(pen, d)
    beta = compute_beta(m, d, L)
    eta = compute_eta(n, beta, x)
    eps, tau, gamma = proof_constants(n, m, d, L, x)
    if X is not None:
        lx = empirical_L(X, pen, d)
        cx = empirical_C(X, pen, d)
        cx2 = empirical_C_squared(X, pen, d)
    else:
        lx = cx = cx2 = 0.0
    return BoundReport(
        L_X=lx,
        C_X=cx,
        L_worst=worst_case_L(pen, d),
        beta=beta,
        eta=eta,
        log_covering=log_covering_number(m, d, eps),
        epsilon_net=eps,
        tau=tau,
        gamma=gamma,
        hoeffding_tail=hoeffding_tail(n, tau),
        c_x_squared=cx2,
    )


def required_samples(target_eta: float, m: int, d: int, L: float, confidence_x: float) -> int:
    """Smallest n >= 3 with ``compute_eta(n, beta, x) <= target_eta``.

    Found by doubling then bisection; eta is strictly decreasing on n >= 3.
    Raises if the target is unreachable below 2^62 samples.
    """
    target = float(target_eta)
    if not np.isfinite(target) or target <= 0.0:
        raise ValueError(f"target_eta must be a positive finite real, got {target_eta!r}")
    beta = compute_beta(m, d, L)
    x = float(confidence_x)

    def eta_at(k: int) -> float:
        return compute_eta(k, beta, x)

    if eta_at(3) <= target:
        return 3
    hi = 3
    while eta_at(hi) > target:
        hi *= 2
        if hi > _MAX_SAMPLES:
            raise ValueError(f"target eta {target:g} needs more than 2^62 samples")
    lo = hi // 2  # eta(lo) > target <= eta is decreasing
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if eta_at(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi
