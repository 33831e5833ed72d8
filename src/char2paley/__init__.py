"""Paley-like graphs over GF(2^k): construction, certification, analysis.

For even k the trace condition tr((xy + x + a)/(x + y)) = 0 (with
tr(a) = 1) defines a q/2-regular, vertex-transitive, self-complementary
graph on the q+1 points of the projective line; for odd k it defines a
tournament.  This package builds those objects exactly, certifies
their structure (circulant labeling, automorphism certificates at both
parities (z -> z+1 reverses every arc when tr(1) = 1), shift
isomorphisms, Hamiltonian decompositions for prime order), and
certifies their pseudo-randomness (Kloosterman codegree law,
jumbledness) with integer arithmetic throughout.
"""

__version__ = "0.1.0"

from .analyze import (
    CodegreeSpectrum, JumblednessCertificate, circulant_spectrum, codegree_formula,
    jumbledness_certificate, kloosterman_sweep, kloosterman_value_set, weil_bound_holds,
)
from .construct import (
    MATRIX_CAP, CirculantLabeling, OutOfScopeError, PaleyLikeGraph, ParamA,
    adjacency, build_graph, build_tournament, circulant_labeling, iter_bits,
    param_a, relabel, translate_rows, transpose, unpaired_distance, verify_circulant,
)
from .gf2k import DEFAULT_POLYS, K_MAX, FieldCtx, factorize, is_irreducible
from .mobius import (
    INF, MobiusMap, QuadExtCtx, alpha_of, apply, find_generator_a, is_full_orbit,
    lambda_of, lambda_ratio_order, point_of_index, vertex_index,
)
from .structure import (
    ChapmanComparison, ChapmanGraph, HamiltonianDecomposition, ShiftIso,
    chapman_build, chapman_compare, hamiltonian_decompose, shift_isomorphism,
    verify_automorphisms, verify_representative_independence,
    verify_self_complementary, verify_shift_isomorphism,
)

__all__ = [name for name in dir() if not name.startswith("_")]
