"""LP rows formatted one shared term tuple at a time, against the row-by-row text.

``reference_lp_row`` is the LP row writer from before the block path: it
expands every product, merges by ``"a * b"`` key and sorts.  The block
path must give the same text wherever it is taken, and step aside
(``_block_text`` returns None) on every row where merging could change a
coefficient, drop a term or reorder the keys.
"""
from __future__ import annotations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from test_emission_digests import CASES, golden_model

from nfvlight import build_miqcp
from nfvlight.optmodel import _block_text, _lp_row, _SignedText


def reference_lp_row(signed, lin, products) -> str:
    parts = [signed[c] + v for c, v in lin]
    if products:
        acc: dict[str, float] = {}
        for a, terms in products:
            for coef, b in terms:
                key = f"{a} * {b}" if a <= b else f"{b} * {a}"
                acc[key] = acc.get(key, 0.0) + coef
        pairs = [(key, acc[key]) for key in sorted(acc) if acc[key] != 0.0]
        if pairs:
            parts.append("+ [ " + " ".join([signed[c] + key for key, c in pairs]) + " ]")
    if not parts:
        return "0 "
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def block(*terms):
    """A new term tuple object, never one shared with an equal literal."""
    return tuple(list(terms))


def assert_same(products, lin=(), fast=None):
    """The row's text equals the reference; ``fast`` says whether the block path is taken."""
    taken = _block_text(_SignedText(), products, {}) is not None
    if fast is not None:
        assert taken == fast
    assert _lp_row(_SignedText(), lin, products, {}) == reference_lp_row(_SignedText(), lin, products)
    return taken


B = block((1.0, "b"), (-2.5, "d"))


class TestFallbacks:
    """Each condition of the block path, broken once, goes to the merge."""

    def test_rows_that_qualify_take_the_block_path(self):
        other = block((0.5, "c"), (3.0, "e"))
        products = (("y", B), ("x", other), ("x", B), ("z", other))
        assert_same(products, lin=((1.0, "w"),), fast=True)

    def test_a_factor_inside_its_tuples_name_range(self):
        assert_same((("c", B),), fast=False)

    def test_a_factor_before_its_tuples_names(self):
        assert_same((("a", B),), fast=False)

    @pytest.mark.parametrize("factors", [("x", "x"), ("x", "y")])
    def test_a_name_in_two_groups(self, factors):
        # equal tuples that are distinct objects are two groups
        products = ((factors[0], block((1.0, "b"))), (factors[1], block((2.0, "b"), (1.0, "c"))))
        assert_same(products, fast=False)

    def test_a_zero_coefficient(self):
        assert_same((("x", block((0.0, "b"), (1.0, "c"))),), fast=False)

    def test_a_repeated_name_in_a_tuple(self):
        assert_same((("x", block((1.0, "b"), (2.0, "b"))),), fast=False)

    def test_one_factor_twice_on_one_tuple(self):
        assert_same((("x", B), ("x", B)), fast=False)

    def test_a_factor_equal_to_a_name(self):
        assert_same((("d", B),), fast=False)

    def test_an_empty_tuple(self):
        assert_same((("x", block()),), fast=False)

    def test_factors_in_any_order(self):
        assert_same((("z", B), ("x", B), ("y", B)), fast=True)


# Names share prefixes so that string and tuple order could disagree if the
# " * " separator were compared wrongly; every factor name sorts after every
# tuple name, so rows often qualify, and a factor drawn from the tuple names
# falls inside or before a tuple's range.
NAMES = ["b", "b.0", "b_1", "c", "c,0", "c.b"]
FACTORS = ["x", "x.1", "x_0", "y", "z,b"]
COEFS = [-2.0, -0.5, 0.5, 1, 1.5, 0.1, 0.0]


@st.composite
def product_rows(draw):
    """Rows over a pool of shared term tuples, each tuple a distinct object."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        distinct = draw(st.booleans())
        names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=distinct))
        coefs = draw(st.lists(st.sampled_from(COEFS if draw(st.booleans()) else COEFS[:-1]),
                              min_size=len(names), max_size=len(names)))
        pool.append(block(*zip(coefs, names)))
    factor = st.sampled_from(FACTORS + NAMES if draw(st.booleans()) else FACTORS)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        product = st.tuples(factor, st.sampled_from(range(len(pool))))
        products = draw(st.lists(product, min_size=1, max_size=6))
        rows.append(tuple((a, pool[k]) for a, k in products))
    return rows


@given(product_rows())
@settings(max_examples=500)
def test_block_rows_equal_the_reference(rows):
    # one emission's signed texts and blocks serve all its rows
    signed, blocks = _SignedText(), {}
    for products in rows:
        event("block path" if _block_text(signed, products, blocks) is not None else "merged")
        assert _lp_row(signed, (), products, blocks) == reference_lp_row(_SignedText(), (), products)


@pytest.mark.parametrize("case", [case for case in CASES if case.endswith("miqcp")])
def test_golden_miqcp_rows_equal_the_reference(case, request):
    model = golden_model(case, request)
    assert_model_rows(model)


def test_default_perm0_miqcp_rows_equal_the_reference(perm0):
    taken = assert_model_rows(build_miqcp(perm0))
    # the delay and processing sojourn rows; forwarding sojourn rows put a first
    assert taken == {"delay": 216, "processing_sojourn": 6}


def assert_model_rows(model) -> dict[str, int]:
    """Every row of ``model`` equals the reference; the block-path rows per family."""
    signed, blocks, taken, differ = _SignedText(), {}, {}, []
    for con in model.constraints.values():
        # rows run to 200 kB of text, too long to diff on a failure
        if _lp_row(signed, con.lin, con.products, blocks) != reference_lp_row(
            _SignedText(), con.lin, con.products
        ):
            differ.append(con.name)
        if con.products and _block_text(signed, con.products, blocks) is not None:
            taken[con.family] = taken.get(con.family, 0) + 1
    assert differ == []
    return taken
