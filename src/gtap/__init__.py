"""Generalized TAP free energy toolkit for mixed p-spin glasses."""

from .measures import DiscreteMeasure, OrderParameter, d1, empirical, shift_theta
from .model import MixedModel, ShiftedModel, pure_p_model, sk_model
from .pde import (PDESolution, SolverConfig, parisi_functional, parisi_measure,
                  second_derivative_identity, simulate_control, solve,
                  solve_band, unify)
from .rs import (RsDiagnostics, at_line_scan, big_gamma, classical_tap,
                 gamma_mu, is_replica_symmetric, plefka, v_rs)
from .tap import (EffectiveField, TapResult, band_functional,
                  band_representation, directional_derivative, effective_field, lambda_conj,
                  optimality_check, psi, psi_bar, tap_correction,
                  tap_with_zeta)

__version__ = "0.1.0"

__all__ = [
    "DiscreteMeasure", "OrderParameter", "d1", "empirical", "shift_theta",
    "MixedModel", "ShiftedModel", "pure_p_model", "sk_model",
    "PDESolution", "SolverConfig", "parisi_functional", "parisi_measure",
    "second_derivative_identity", "simulate_control", "solve", "solve_band",
    "unify",
    "RsDiagnostics", "at_line_scan", "big_gamma", "classical_tap", "gamma_mu",
    "is_replica_symmetric", "plefka", "v_rs",
    "EffectiveField", "TapResult", "band_functional", "band_representation",
    "directional_derivative", "effective_field", "lambda_conj",
    "optimality_check", "psi", "psi_bar", "tap_correction", "tap_with_zeta",
]
