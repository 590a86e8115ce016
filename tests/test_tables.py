import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import table_to_json

from llltool.errors import (
    DepthExceededError,
    InvalidInputError,
    InvalidParameterError,
    MissingVariableError,
)
from llltool.tables import (
    CellSampler,
    KeyedTable,
    Table,
    derive_u64,
    sample_label,
    sample_table,
    table_from_json,
    weight_thresholds,
)


def test_columns_must_match_depth():
    with pytest.raises(InvalidInputError):
        Table(3, {0: (0, 1)})
    with pytest.raises(InvalidInputError):
        Table(0, {})


def test_get_bounds():
    t = Table(2, {5: (1, 0)})
    assert t.get(5, 0) == 1
    assert t.get(5, 1) == 0
    with pytest.raises(DepthExceededError):
        t.get(5, 2)
    with pytest.raises(MissingVariableError):
        t.get(6, 0)


def test_table_json_round_trip():
    t = Table(2, {0: (0, 1), 3: (1, 1)})
    assert table_from_json(table_to_json(t)) == t


def test_table_json_rejects_row_count_mismatch():
    with pytest.raises(InvalidInputError):
        table_from_json({"depth": 2, "variables": [0], "rows": [[0]]})


def test_table_json_refuses_a_repeated_variable():
    with pytest.raises(InvalidInputError):
        table_from_json({"depth": 1, "variables": [0, 0], "rows": [[0, 1]]})


@pytest.mark.parametrize("row", [[0, 1, 1], [0], "01"])
def test_table_json_refuses_a_row_that_is_not_one_label_per_variable(row):
    with pytest.raises(InvalidInputError):
        table_from_json({"depth": 2, "variables": [0, 1], "rows": [[0, 0], row]})


def test_derive_u64_is_stable():
    # frozen probe: any change to the keyed hash layout must show up here
    assert derive_u64(0, 0, 0, 0) == derive_u64(0, 0, 0, 0)
    assert derive_u64(1, 2, 3) != derive_u64(1, 3, 2)
    assert derive_u64(-1, 0) == derive_u64((1 << 64) - 1, 0)  # key masks to 64 bits


def test_thresholds_monotone_and_exact_at_the_top():
    th = weight_thresholds((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    assert th == sorted(th)
    assert th[-1] == 1 << 64
    # interior thresholds round down
    assert th[0] == ((1 << 64) // 3)


def test_sample_label_inverse_cdf():
    th = weight_thresholds((Fraction(1, 4), Fraction(3, 4)))
    assert sample_label(th, 0) == 0
    assert sample_label(th, th[0] - 1) == 0
    assert sample_label(th, th[0]) == 1
    assert sample_label(th, (1 << 64) - 1) == 1


def test_sampling_is_deterministic_and_trial_dependent():
    w = (Fraction(1, 2), Fraction(1, 2))
    a = sample_table(w, range(4), 3, seed=9)
    b = sample_table(w, range(4), 3, seed=9)
    assert a == b
    assert sample_table(w, range(4), 3, seed=9, trial=1) != a


def test_sampling_restriction_is_bit_identical():
    # cells depend only on (seed, trial, variable, row), never on which
    # other variables were requested
    w = (Fraction(1, 2), Fraction(1, 2))
    full = sample_table(w, range(6), 4, seed=3)
    part = sample_table(w, [1, 4], 4, seed=3)
    assert part.columns[1] == full.columns[1]
    assert part.columns[4] == full.columns[4]


def test_sampling_depth_extension_preserves_prefix():
    w = (Fraction(1, 2), Fraction(1, 2))
    short = sample_table(w, [0], 2, seed=3)
    long = sample_table(w, [0], 5, seed=3)
    assert long.columns[0][:2] == short.columns[0]


def test_empirical_cell_distribution():
    # 4096 cells at weight 1/4: allow four binomial sigmas
    w = (Fraction(1, 4), Fraction(3, 4))
    t = sample_table(w, range(64), 64, seed=12345)
    zeros = sum(col.count(0) for col in t.columns.values())
    n = 64 * 64
    sigma = math.sqrt(0.25 * 0.75 * n)
    assert abs(zeros - n / 4) <= 4 * sigma


@settings(max_examples=30)
@given(st.integers(0, 2**64 - 1))
def test_sample_label_respects_threshold_boundaries(u):
    th = weight_thresholds((Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)))
    lab = sample_label(th, u)
    assert 0 <= lab < 3
    if lab > 0:
        assert u >= th[lab - 1]
    assert u < th[lab]


@pytest.mark.parametrize(
    "weights, variables, depth, seed, trial",
    [
        ((Fraction(1, 2), Fraction(1, 2)), range(6), 5, 0, 0),
        ((Fraction(1, 3),) * 3, [4, 9, 2], 7, -5, 3),
        ((Fraction(1, 7), Fraction(5, 7), Fraction(1, 7)), range(4), 6, 2**64 + 3, -2),
        ((Fraction(1, 16), Fraction(15, 16)), [0, 11], 1, 12345, 7),
    ],
)
def test_keyed_table_reads_what_sample_table_stores(
    weights, variables, depth, seed, trial
):
    # Dual route: a keyed table read in any order, against the stored draw.
    stored = sample_table(weights, variables, depth, seed, trial)
    cells = [(v, r) for v in variables for r in range(depth)]
    shuffled = cells[:]
    random.Random(seed).shuffle(shuffled)
    sampler = CellSampler(weights, seed)
    for order in (shuffled, cells[::-1]):
        keyed = KeyedTable(sampler, variables, depth, trial)
        assert keyed.depth == depth
        for v, r in order:
            assert keyed.get(v, r) == stored.get(v, r)
        # a second read comes from the cache and agrees
        assert all(keyed.get(v, r) == stored.get(v, r) for v, r in cells)
    # one cell alone, with nothing else drawn first
    v, r = shuffled[0]
    assert KeyedTable(sampler, variables, depth, trial).get(v, r) == stored.get(v, r)


def test_keyed_table_raises_what_the_stored_table_raises():
    w = (Fraction(1, 2), Fraction(1, 2))
    stored = sample_table(w, [0, 3], 4, seed=1)
    keyed = KeyedTable(CellSampler(w, 1), [0, 3], 4, trial=0)
    for v, row, error in ((1, 0, MissingVariableError), (2, 9, MissingVariableError),
                          (0, -1, DepthExceededError), (3, 4, DepthExceededError)):
        with pytest.raises(error) as expected:
            stored.get(v, row)
        with pytest.raises(error) as got:
            keyed.get(v, row)
        assert str(got.value) == str(expected.value)
    with pytest.raises(InvalidParameterError):
        KeyedTable(CellSampler(w, 1), [0], 0, trial=0)


def test_keyed_table_draws_only_the_cells_it_reads():
    w = (Fraction(1, 2), Fraction(1, 2))
    sampler = CellSampler(w, 5)
    drawn = []
    label = sampler.label
    sampler.label = lambda *cell: drawn.append(cell) or label(*cell)
    keyed = KeyedTable(sampler, range(10), 64, trial=2)
    for _ in range(3):
        keyed.get(7, 40)
        keyed.get(1, 0)
    for v, row in ((10, 0), (7, 64), (7, -1)):
        with pytest.raises((MissingVariableError, DepthExceededError)):
            keyed.get(v, row)
    assert drawn == [(2, 7, 40), (2, 1, 0)]


def test_cell_sampler_packs_cells_as_derive_u64_does():
    w = (Fraction(1, 4), Fraction(3, 4))
    th = weight_thresholds(w)
    for seed in (0, -1, 2**64 + 9):
        sampler = CellSampler(w, seed)
        for cell in ((0, 0, 0), (-3, 5, 2), (2**40, -7, 63)):
            assert sampler.label(*cell) == sample_label(th, derive_u64(seed, *cell))
