"""Braiding simulator and verification engine for metaplectic anyons.

Encodes the SU(2)_4 and SO(5)_2 modular-category data, compiles braid
words into unitaries on fusion-tree bases, and mechanically checks the
gate identities, group images, density witnesses and the probabilistic
sign-flip protocol of the associated qutrit/qupit computing schemes.

The public names below load on first use (PEP 562): ``import metaplectic``
imports no submodule and not numpy, and each name is looked up in its home
module on every access, so a function patched there is the one returned here.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "categories": ("Category", "CategoryError", "CategoryFileError", "InadmissibleError",
                   "MissingDataError", "UnknownLabelError", "builtin_category",
                   "check_consistency", "parse_category", "serialize_category"),
    "braidrep": ("BraidRep", "general_generators", "pair_tree_generators", "rep_check"),
    "gates": ("GateSpec", "equal_up_to_phase", "make_gate", "parse_gate"),
    "protocol": ("ProtocolState", "estimate_flip_success", "exact_flip_curve",
                 "exact_flip_probability", "prepare_flip_ancilla", "run_flip_round"),
    "synthesis": ("BraidWord", "eval_word", "group_closure", "named_words",
                  "verify_identity", "word_from_text"),
    "trees": ("FusionTreeBasis", "TreeShape", "block_embedding", "enumerate_basis",
              "parse_shape", "tree_change"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:  # a submodule not yet imported lands here too, so the import system loads it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
