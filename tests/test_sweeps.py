"""The 2^|A| subset sweeps against verbatim copies of the mask-table scans.

deficiency_by_subsets, rho and lambda_ fold over the byte-plane blocks of
matching.subset_blocks; the references in helpers.py scan the 8-byte
neighborhood table they replaced.  Both must agree everywhere, including
across the 2^16-subset blocks the sweep streams, on infinite rho and on
the refusals.
"""

import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltoids import (
    GroupSpec,
    InternalInconsistencyError,
    ResourceLimitError,
    deficiency_by_subsets,
    lambda_,
    rho,
)
from deltoids.matching import subset_blocks
from helpers import (
    Z2xZ,
    Z2xZ2,
    Z2xZ4,
    Z6,
    Z12,
    cyclic_instance,
    exhaustive_instances,
    golden_deltoid,
    random_instance,
    reference_deficiency_by_subsets,
    reference_lambda,
    reference_rho,
    rows_deltoid,
)

SWEEPS = (
    (deficiency_by_subsets, reference_deficiency_by_subsets),
    (rho, reference_rho),
    (lambda_, reference_lambda),
)


def _outcome(f, D):
    try:
        return f(D)
    except InternalInconsistencyError as exc:
        return ("InternalInconsistencyError", str(exc))


def assert_sweeps_agree(D):
    for new, old in SWEEPS:
        assert _outcome(new, D) == _outcome(old, D), (new.__name__, D.rows)


def random_rows(rng, n, density):
    return [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]


def test_sweeps_agree_exhaustive():
    for group in (Z6, Z2xZ2):
        for D in exhaustive_instances(group, sizes=(1, 2, 3)):
            assert_sweeps_agree(D)


def test_sweeps_agree_seeded_groups():
    groups = (Z12, Z2xZ4, GroupSpec((2, 2, 2, 2)), GroupSpec((64,)), Z2xZ, GroupSpec((6,), 1))
    for seed, group in enumerate(groups):
        rng = random.Random(100 + seed)
        for _ in range(60):
            assert_sweeps_agree(random_instance(rng, group, max_size=12))


def test_sweeps_agree_on_rows_of_every_density():
    rng = random.Random(17)
    densities = (0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0)
    for n in range(1, 13):
        for density in densities:
            for _ in range(3):
                assert_sweeps_agree(rows_deltoid(random_rows(rng, n, density)))
    # around the 2^16-subset block: n = 16 is one block, 17 and 18 two and four
    for n in range(13, 20):
        for density in (0.2, 0.8) if n in (16, 17, 18) else (rng.choice(densities[1:-1]),):
            assert_sweeps_agree(rows_deltoid(random_rows(rng, n, density)))


def test_sweeps_agree_on_infinite_rho():
    rng = random.Random(23)
    for n in (2, 5, 9, 17):
        rows = random_rows(rng, n, 0.5)
        # column n - 1 empty: that element of B stabilizes A
        rows = [(row & ~(1 << (n - 1))) | 1 for row in rows]
        D = rows_deltoid(rows)
        assert rho(D) is math.inf
        assert_sweeps_agree(D)


def test_sweeps_agree_at_the_default_bound():
    D = cyclic_instance(random.Random(22), 64, 22, "uniform")
    assert_sweeps_agree(D)


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    )
)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_sweeps_agree_property(rows):
    assert_sweeps_agree(rows_deltoid(rows))


def test_lambda_refuses_an_empty_neighborhood():
    # row 1 is empty, so S = {a_1} has no neighbor; a real deltoid never
    # has one, and no k clears it
    with pytest.raises(InternalInconsistencyError, match="nonempty S with empty neighborhood"):
        lambda_(rows_deltoid([0b1, 0]))


@pytest.mark.parametrize("sweep", [deficiency_by_subsets, rho, lambda_])
def test_sweep_bound_message(sweep):
    with pytest.raises(ResourceLimitError, match=re.escape("|A| = 8 exceeds subset sweep bound 7")):
        sweep(golden_deltoid(), subset_bound=7)


def test_infinite_rho_returns_before_any_sweep():
    # bound 0 refuses every sweep, so only the infinite check can answer
    assert rho(rows_deltoid([0b01, 0b01]), subset_bound=0) is math.inf


def _sweep_peak(sweep, D):
    tracemalloc.start()
    try:
        answer = sweep(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answer is not math.inf  # rho ran its sweep
    return peak


@pytest.mark.parametrize("sweep", [deficiency_by_subsets, rho, lambda_])
def test_sweep_memory_at_n20(sweep):
    # the mask table alone took 8 bytes per subset, 8 MiB here, and the two
    # joined byte planes 2 MiB; the stream holds one block of 2^16 subsets,
    # so n = 20 (16 blocks) peaks about as high as n = 17 (two)
    peaks = {
        n: _sweep_peak(sweep, cyclic_instance(random.Random(20), 64, n, "uniform"))
        for n in (17, 20)
    }
    assert peaks[20] < 2 * 2**20
    assert peaks[20] <= 1.25 * peaks[17]


def test_first_block_memory_at_n34():
    # with a raised bound, the call and its first block may hold one block
    # of 2^16 five-byte lanes and its planes, nothing that grows with the
    # 2^18 tails (a table of their ORs alone would take 11.8 MiB)
    rng = random.Random(34)
    rows = [rng.getrandbits(34) for _ in range(34)]
    tracemalloc.start()
    try:
        sizes, degrees = next(subset_blocks(rows, 40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sizes) == len(degrees) == 1 << 16
    assert peak < 2 * 2**20


def test_sweep_bound_is_checked_before_any_work():
    D = cyclic_instance(random.Random(23), 64, 23, "uniform")
    message = "|A| = 23 exceeds subset sweep bound 22"
    for sweep in (deficiency_by_subsets, rho, lambda_):
        with pytest.raises(ResourceLimitError) as refused:
            sweep(D)
        assert str(refused.value) == message
    # rho refused after its infinite check and before building the columns
    assert D.rows and "columns" not in D.__dict__
    # the stream refuses at the call, not at its first block
    with pytest.raises(ResourceLimitError, match=re.escape(message)):
        subset_blocks(D.rows)
    # lambda_ names the bound before it looks for an empty row
    with pytest.raises(ResourceLimitError, match=re.escape(message)):
        lambda_(rows_deltoid([0] * 23))


def _planted_rows(n, rng):
    # dense random rows, except rows 0, 1 and every row from 16 on, which
    # share one two-column neighborhood: no subset inside the first block
    # (rows 0..15) breaks Hall's condition, and the planted set breaks it
    # by n - 16 only together with a row past the block
    pair = 0b11 << rng.randrange(n - 1)
    rows = [rng.getrandbits(n) | rng.getrandbits(n) | 1 << i for i in range(n)]
    for i in (0, 1, *range(16, n)):
        rows[i] = pair
    return rows


def _transpose(rows):
    return [sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(len(rows))]


@pytest.mark.parametrize("n", [17, 18, 20])
def test_sweeps_agree_when_only_a_late_block_decides(n):
    rows = _planted_rows(n, random.Random(n))
    sizes, degrees = next(subset_blocks(rows))
    # the answers the first block alone gives: delta 0 and least k 1
    assert max(s - d for s, d in zip(sizes, degrees)) == 0
    assert max(-(-s // d) for s, d in zip(sizes, degrees) if s) == 1
    D = rows_deltoid(rows)
    # rho sweeps the columns, so on the transpose it sweeps these rows
    R = rows_deltoid(_transpose(rows))
    assert R.columns == D.rows
    assert deficiency_by_subsets(D) == reference_deficiency_by_subsets(D) >= 1
    assert lambda_(D) == reference_lambda(D) >= 2
    assert math.inf > rho(R) == reference_rho(R) >= 2
