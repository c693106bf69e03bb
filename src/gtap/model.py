"""Mixture functions of mixed p-spin models.

A model is defined by the coefficient sequence (beta_p^2)_{p>=1} of
xi(s) = sum_p beta_p^2 s^p, with an optional external field strength h.
All derivatives are computed term-wise; the shifted mixtures

    xi_hat_q(s) = xi(s + q) - xi(q)
    xi_q(s)     = xi(s + q) - xi(q) - xi'(q) s

describe the model re-centered at overlap q, with coefficients
beta_k(q)^2 = sum_{p>=k} C(p,k) beta_p^2 q^(p-k).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MixedModel", "ShiftedModel", "sk_model", "pure_p_model"]


def _check_domain(s) -> None:
    if np.any(np.abs(np.asarray(s)) > 1.0 + 1e-12):
        raise ValueError("mixture function evaluated outside [-1, 1]")


@dataclass(frozen=True)
class MixedModel:
    """Mixture xi(s) = sum_p coeffs_sq[p-1] * s^p plus optional field h."""

    coeffs_sq: tuple[float, ...]
    external_field_h: float = 0.0

    def __post_init__(self):
        c = tuple(float(b) for b in self.coeffs_sq)
        if any(b < 0 for b in c):
            raise ValueError("coefficients beta_p^2 must be nonnegative")
        object.__setattr__(self, "coeffs_sq", c)

    @property
    def p_max(self) -> int:
        return len(self.coeffs_sq)

    def _derivative(self, s, k: int):
        """k-th derivative of xi by Horner's rule on the coefficients
        p (p-1) ... (p-k+1) beta_p^2 of s^(p-k)."""
        _check_domain(s)
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for p in range(self.p_max, max(k, 1) - 1, -1):
            out = s * out + math.perm(p, k) * self.coeffs_sq[p - 1]
        if k == 0 and self.p_max:   # xi has no constant term
            out = s * out
        return out if out.ndim else float(out)

    def xi(self, s):
        return self._derivative(s, 0)

    def xi_prime(self, s):
        return self._derivative(s, 1)

    def xi_double_prime(self, s):
        return self._derivative(s, 2)

    def theta(self, x):
        """x xi'(x) - xi(x); its derivative is x xi''(x)."""
        _check_domain(x)
        x = np.asarray(x, dtype=float)
        out = x * self.xi_prime(x) - self.xi(x)
        return out if out.ndim else float(out)

    def shift(self, q: float) -> "ShiftedModel":
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"shift overlap q={q} outside [0, 1]")
        return ShiftedModel(base=self, q=float(q))

    def to_json(self) -> str:
        return json.dumps(
            {"coeffs_sq": list(self.coeffs_sq), "h": self.external_field_h},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "MixedModel":
        data = json.loads(text)
        if "coeffs_sq" not in data:
            raise ValueError("model spec missing 'coeffs_sq'")
        return cls(coeffs_sq=tuple(data["coeffs_sq"]),
                   external_field_h=float(data.get("h", 0.0)))


@dataclass(frozen=True)
class ShiftedModel:
    """Model re-centered at self-overlap q, living on [0, 1 - q]."""

    base: MixedModel
    q: float
    coeffs_sq_shifted: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        base, q = self.base, self.q
        coeffs = []
        for k in range(1, base.p_max + 1):
            bk = sum(
                math.comb(p, k) * base.coeffs_sq[p - 1] * q ** (p - k)
                for p in range(k, base.p_max + 1)
            )
            coeffs.append(bk)
        object.__setattr__(self, "coeffs_sq_shifted", tuple(coeffs))

    @property
    def horizon(self) -> float:
        return 1.0 - self.q

    def beta_k_sq(self, k: int) -> float:
        """beta_k(q)^2 for 1 <= k <= p_max (0 beyond)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > len(self.coeffs_sq_shifted):
            return 0.0
        return self.coeffs_sq_shifted[k - 1]

    def xi_hat(self, s):
        """xi(s + q) - xi(q): full re-centered mixture with linear term."""
        s = np.asarray(s, dtype=float)
        out = np.asarray(self.base.xi(s + self.q) - self.base.xi(self.q))
        return out if out.ndim else float(out)

    def xi_q(self, s):
        """xi(s + q) - xi(q) - xi'(q) s: linear term removed."""
        s = np.asarray(s, dtype=float)
        out = np.asarray(self.xi_hat(s) - self.base.xi_prime(self.q) * s)
        return out if out.ndim else float(out)

    def xi_q_prime(self, s):
        s = np.asarray(s, dtype=float)
        out = np.asarray(self.base.xi_prime(s + self.q)
                         - self.base.xi_prime(self.q))
        return out if out.ndim else float(out)

    def xi_q_double_prime(self, s):
        s = np.asarray(s, dtype=float)
        out = np.asarray(self.base.xi_double_prime(s + self.q))
        return out if out.ndim else float(out)

    def theta_q(self, s):
        """s xi_q'(s) - xi_q(s): antiderivative of s xi_q''(s)."""
        s = np.asarray(s, dtype=float)
        out = np.asarray(s * self.xi_q_prime(s) - self.xi_q(s))
        return out if out.ndim else float(out)


def sk_model(beta: float, h: float = 0.0, convention: str = "half") -> MixedModel:
    """SK mixture.

    convention="half" gives xi(s) = beta^2 s^2 / 2 (the form used by the
    Plefka condition); convention="full" gives xi(s) = beta^2 s^2.
    """
    if convention == "half":
        return MixedModel(coeffs_sq=(0.0, beta * beta / 2.0), external_field_h=h)
    if convention == "full":
        return MixedModel(coeffs_sq=(0.0, beta * beta), external_field_h=h)
    raise ValueError(f"unknown SK convention {convention!r}")


def pure_p_model(p: int, beta_sq: float = 1.0, h: float = 0.0) -> MixedModel:
    coeffs = [0.0] * p
    coeffs[p - 1] = beta_sq
    return MixedModel(coeffs_sq=tuple(coeffs), external_field_h=h)
