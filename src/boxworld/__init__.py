"""Box-world theories under power-law uncertainty constraints.

Symplectic Pauli strings, the state hierarchy they generate, nonlocal
games, superstrong random access codes, and the communication and
learnability consequences, with an independent dense-matrix oracle for
cross-checking everything at small size.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.  A name is imported
# on first access (PEP 562), so importing the package loads no module
# it does not use; ``oracle`` is the module itself.
_EXPORTS = {
    "errors": (
        "BoxworldError",
        "DimensionError",
        "DomainError",
        "IncompleteMomentError",
        "InconsistencyError",
        "NoSignalingError",
        "ResourceError",
        "ValidationError",
        "validate_exponent",
    ),
    "pauli": (
        "PauliString",
        "commutes",
        "gamma_set",
        "hermitian_basis",
        "full_support_strings",
        "maximal_commuting_sets",
        "pauli_product",
        "symplectic_form",
    ),
    "states": (
        "CliffordCircuit",
        "CoefficientState",
        "FiducialSetting",
        "GnstState",
        "MomentTable",
        "all_outcomes",
        "all_settings",
        "apply_clifford",
        "tensor_product",
    ),
    "constraints": (
        "ClassificationResult",
        "ValidationReport",
        "check_commuting_moments",
        "check_local_moments",
        "check_p_uncertainty",
        "check_psd",
        "classify_state",
        "moment_matrix",
        "two_measurement_eigenvalues",
        "two_measurement_moment_matrix",
        "two_measurement_sylvester",
        "validate_gnst",
    ),
    "games": (
        "TsirelsonResult",
        "XorGame",
        "XorStrategy",
        "build_xor_game_state",
        "chsh_game",
        "chsh_optimal_state",
        "chsh_type_games",
        "chsh_value",
        "chsh_win_probability",
        "pgnst_chsh_state",
        "random_xor_game",
        "tsirelson_optimize",
        "xor_game_value",
    ),
    "rac": (
        "IndexMap",
        "RacParams",
        "binary_entropy",
        "nayak_bound",
        "rac_decode",
        "rac_encode_gnst",
        "rac_encode_pbin",
        "rac_encode_pgnst",
        "rac_learning_params",
        "rac_params",
        "rac_repetition_decode",
        "rac_repetition_params",
    ),
    "infotasks": (
        "CommProtocolResult",
        "LearnParams",
        "LearnabilityReport",
        "SampleComplexityBound",
        "fat_shattering_lower_bound",
        "inner_product",
        "ip_oneway_cost",
        "learnability_threshold",
        "pir_simulate",
        "sample_complexity_lower_bound",
        "shattering_witness_check",
        "simulate_ip_protocol",
    ),
    "oracle": ("maximal_anticommuting_sets", "oracle"),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            value = import_module(f".{module}", __name__)
            if name != module:
                value = getattr(value, name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
