"""Private decoupling of bipartite quantum states.

Tools for studying how much of the correlation between a reference system
and a partner system survives when the partner is split by an isometry into
a kept output and a discarded output, with the discarded share capped by a
privacy level.  The package provides the entropic bounds on that residue,
closed-form isometries that achieve it in structured cases, a multistart
numerical optimizer for everything else, and reproducible scenario checks.

The namespace is lazy (PEP 562): ``import pqdec`` loads no submodule, and
the first access to an exported name or a submodule such as
``pqdec.decoupling`` imports the module that defines it.  So the CLI's
``make-state``, ``entropy`` and ``qmi`` never load the isometry search
(``decoupling`` and ``isometries``); ``bounds``, ``optimize``, ``sweep``,
``verify`` and ``random-study`` load it when they run.
"""

# The names the package re-exports, by the module that defines them.
_EXPORTS = {
    "decoupling": (
        "BoundsReport",
        "DecouplingOutcome",
        "OptimizerOptions",
        "SweepResult",
        "SweepRow",
        "UNBOUNDED",
        "apply_isometry",
        "bounds_report",
        "decoupling_scores",
        "half_qmi_upper",
        "optimize_xi",
        "outcome_isometry",
        "povm_upper",
        "prop1_lower",
        "rates_sweep",
        "xi_infinity",
    ),
    "entropics": (
        "coherent_information",
        "conditional_mutual_information",
        "entropy",
        "mutual_information",
        "subsystem_entropy",
    ),
    "isometries": (
        "Isometry",
        "RankOnePovm",
        "bell_shredder",
        "mub_shredder",
        "pauli_twirl_isometry",
        "povm_isometry",
        "random_unitary_channel_dilation",
        "twirl_isometry",
    ),
    "qmat": (
        "DimSig",
        "ValidationError",
        "kron",
        "partial_trace",
        "trace_distance",
        "validate_density",
    ),
    "states": (
        "DensityMatrix",
        "PureState",
        "append_maximally_mixed",
        "as_density",
        "classically_correlated",
        "isotropic",
        "max_entangled",
        "merge_labels",
        "purify",
        "random_density",
        "random_pure",
        "random_separable",
        "random_unitary",
        "to_density",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module behind an exported name or a submodule, once."""
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's own path, which binds the submodule here and
    # which python -X importtime times, as importlib.import_module is not.
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
