"""Exact computer algebra for the Frobenius transform of symmetric functions.

The library works over the rationals with arbitrary precision: elements
of the ring of symmetric functions carry exact power sum coefficients,
series are degree-truncated with explicit cutoffs, and every transform
or coefficient is an exact integer or rational, never a float.
"""

import sys

from . import partitions
from .partitions import (
    as_partition,
    conjugate,
    durfee,
    format_partition,
    hat,
    intersect,
    is_subpartition,
    parse_partition,
    partition_from_composition,
    partitions_of,
    partitions_up_to,
    stable_pad,
    z_value,
)
from .symfunc import (
    BASES,
    IntegralityError,
    InternalCheckError,
    PrecisionError,
    SymFunc,
    character_value,
    from_basis,
    from_serializable,
    hall,
    kronecker,
    leading_term,
    lyndon_sf,
    omega,
    plethysm,
    skew,
    standard_series,
    to_basis,
    to_basis_int,
    to_serializable,
)
from .lyndon import (
    enumerate_lyndon,
    factorize,
    is_lyndon,
    lyndon_words,
    parse_word,
    pi_of_word,
    witt_count,
)
from .frobenius import (
    COEFF_KINDS,
    coeff,
    coeff_table,
    durfee_criterion,
    frobenius_series,
    fsur,
    fsur_e_direct,
    fsur_expansion,
    fsur_h_direct,
    fsur_p_direct,
    fsurinv,
    fsurinv_e_words,
    fsurinv_h_direct,
    fsurinv_iterative,
    fsurinv_p_direct,
    genfunc_identity_check,
    restriction_coeff_eval,
    stable_matrix,
    tilde_h,
    tilde_s,
    vanishing_check,
    witness_search,
)
from .oracles import eval_at_unity, frobenius_via_roots, power_value_at_unity

__version__ = "0.1.0"


def _caches() -> dict:
    """Every lru_cache memo defined in a loaded symfrob module, by qualified name."""
    caches = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("symfrob."):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)) and value.__module__ == name:
                caches[f"{name}.{value.__qualname__}"] = value
    return caches


def cache_stats() -> dict:
    """Hits, misses and entries of every memo, by qualified function name."""
    stats = {}
    for name, cache in _caches().items():
        info = cache.cache_info()
        stats[name] = {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
    return stats


def clear_caches() -> None:
    """Empty every memo; results are unchanged, only recomputed on demand.

    The partition id table is emptied too, once no memo holds an id.
    """
    for cache in _caches().values():
        cache.cache_clear()
    partitions._clear_part_ids()
