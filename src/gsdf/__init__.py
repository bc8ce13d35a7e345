"""Four-block difference families with symmetric/skew blocks in cyclic groups:
exhaustive search, classification up to equivalence, and exact certification
of the Hadamard matrices they produce through the Goethals-Seidel array."""

from .blockgen import RowFile, collect_rows
from .catalog import catalog_entries, catalog_entry, catalog_groups, table_rows
from .equivalence import (are_equivalent, canonical_key, classify,
                          small_classes, small_key)
from .family import Family, family_from_blocks, read_families, write_families
from .matcher import bins_match, brute_force_match, match_cases
from .params import (GsParamSet, enumerate_param_sets, kkks_param_set,
                     kkss_param_sets, searchable_param_sets)
from .verify import (build_gs_array, check_difference_family, check_gs_matrices,
                     is_hadamard, is_skew_hadamard, verify_families,
                     verify_family)
from .zmod import CyclicSubset

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
