"""The identity suite gives the same cases on every evaluation path, over
random grids.

The golden reports pin every case at the default and dense grids only.
This property draws other grid shapes (j_min = j_max, small and large
n_max and m_max, dim caps that cut a level off at another k, an
extra_fib_level other than 3) and runs the suite once per path.  Each
path is reached by patching at most one name:

  vectors       as the suite runs: each linear checker's levels of one
                order read one run on its top level's term vectors, and
                the product checkers' members are w-scaled class tables
                (identities._member);
  per level     identities._views patched out, so that every level runs
                its own generator, a linear one on vectors of the level's
                own width, so that nothing is cut from a wider vector;
  dense         identities._member patched to builders._layout, so that
                the product checkers' members are the dense k^r x k^r
                matrices.

The case tuples, statuses and counterexample payloads included, must be
equal across the paths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci import builders, identities
from kbonacci.identities import SuiteGrid, run_suite

PATHS = {
    "vectors": None,
    "per level": ("_views", lambda checker, params: params),
    "dense": ("_member", builders._layout),
}


def largest_dimension(grid: SuiteGrid) -> int:
    return max(k**r for k in grid.k_values() for r in (0, *grid.matrix_levels(k)))


@st.composite
def grids(draw):
    """Grids whose run on every path stays near 0.2 s: a dense product of
    dimension 32 or 64 costs milliseconds, so grids that reach one keep
    n_max and the index span small."""
    max_k, max_r = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    dim_cap = draw(st.integers(1, 64))
    extra = draw(st.none() | st.sampled_from([1, 2, 4, 5, 6]))
    m_max = draw(st.integers(1, 3) | st.integers(12, 20))
    j_min = draw(st.integers(-5, 4))
    shape = SuiteGrid(max_k, max_r, 1, m_max, j_min, j_min, dim_cap, extra)
    small = largest_dimension(shape) > 27
    n_max = draw(st.integers(1, 2) if small else st.integers(1, 3) | st.integers(10, 14))
    span = draw(st.just(0) if small else st.sampled_from([0, 0, 1, 2, 4]))
    return shape._replace(n_max=n_max, j_max=j_min + span)


def cases_on(path, grid):
    with pytest.MonkeyPatch.context() as patch:
        if PATHS[path] is not None:
            patch.setattr(identities, *PATHS[path])
        return run_suite(None, grid).cases


@settings(max_examples=25, deadline=None)
@given(grid=grids())
def test_every_path_gives_the_same_cases(grid):
    first, *others = PATHS
    reference = cases_on(first, grid)
    assert reference
    for path in others:
        assert cases_on(path, grid) == reference, path
