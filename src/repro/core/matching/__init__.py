"""Maximal matching engines (Section 5 of the paper).

Greedy MM over a random *edge* order is greedy MIS on the line graph
(Lemma 5.1), but the engines here work directly on the edge list to stay
linear in the input size:

======================  ===========================================  ==================
engine                  paper reference                              result
======================  ===========================================  ==================
``sequential``          standard greedy loop over edges              lex-first matching
``parallel``            Algorithm 4 (step-synchronous)               lex-first matching
``prefix``              prefix-based schedule (Section 6 experiments) lex-first matching
``rootset``             Lemma 5.3 (sorted incidence + mmcheck)       lex-first matching
``rootset-vec``         Lemma 5.3 on vectorized frontier kernels     lex-first matching
======================  ===========================================  ==================

All five (``MM_METHODS``) return identical matchings for the same edge
priorities.  :func:`parallel_matching_vectorized` (Lemma 5.3 across
shard processes) is not registered: it is called directly only, by the
benchmark's traced replay and its own tests.
"""

from repro.core.matching.sequential import sequential_greedy_matching
from repro.core.matching.parallel import parallel_greedy_matching
from repro.core.matching.prefix import prefix_greedy_matching
from repro.core.matching.rootset import rootset_matching
from repro.core.matching.rootset_vectorized import rootset_matching_vectorized
from repro.core.matching.parallel_vectorized import parallel_matching_vectorized
from repro.core.matching.scheduled import randomly_scheduled_matching
from repro.core.matching.api import maximal_matching, MM_METHODS
from repro.core.matching.verify import (
    is_matching,
    is_maximal_matching,
    is_lexicographically_first_matching,
    assert_valid_matching,
)

__all__ = [
    "sequential_greedy_matching",
    "parallel_greedy_matching",
    "prefix_greedy_matching",
    "rootset_matching",
    "rootset_matching_vectorized",
    "parallel_matching_vectorized",
    "randomly_scheduled_matching",
    "maximal_matching",
    "MM_METHODS",
    "is_matching",
    "is_maximal_matching",
    "is_lexicographically_first_matching",
    "assert_valid_matching",
]
