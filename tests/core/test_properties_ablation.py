"""Engine-level ablation equivalence: RMA results must be byte-identical
with the property/order-cache layer on and off (ISSUE 1 acceptance)."""

import pytest

from repro.bat.properties import set_properties_enabled, use_properties
from repro.core import RmaConfig
from repro.core.ops import execute_rma
from repro.data.synthetic import order_heavy_relation, order_names
from repro.errors import KeyViolationError
from repro.linalg.policy import BackendPolicy
from repro.relational import rename
from repro.relational.relation import Relation

from bitwise import identical


@pytest.fixture(autouse=True)
def _properties_on():
    previous = set_properties_enabled(True)
    yield
    set_properties_enabled(previous)


def _config(use_props: bool, validate: bool = True) -> RmaConfig:
    return RmaConfig(policy=BackendPolicy(prefer="bat"),
                     optimize_sorting=True, validate_keys=validate,
                     use_properties=use_props)


def _inputs(n_rows: int = 300, n_order: int = 3):
    r = order_heavy_relation(n_rows, n_order, seed=31)
    by = order_names(r)
    s = rename(order_heavy_relation(n_rows, n_order, seed=32),
               {name: f"s_{name}" for name in by})
    s_by = [f"s_{name}" for name in by]
    return r, by, s, s_by


@pytest.mark.parametrize("op", ["add", "sub", "emu"])
def test_relative_ops_identical(op):
    with use_properties(True):
        r, by, s, s_by = _inputs()
        on = execute_rma(op, r, by, s, s_by, config=_config(True))
        on_repeat = execute_rma(op, r, by, s, s_by, config=_config(True))
    with use_properties(False):
        r, by, s, s_by = _inputs()
        off = execute_rma(op, r, by, s, s_by, config=_config(False))
    assert identical(on, off)
    assert identical(on_repeat, off)  # cache hits change nothing


@pytest.mark.parametrize("op", ["qqr", "rnk", "dsv"])
def test_unary_ops_identical(op):
    with use_properties(True):
        r, by, _, _ = _inputs(n_rows=120)
        on = execute_rma(op, r, by, config=_config(True))
        on_repeat = execute_rma(op, r, by, config=_config(True))
    with use_properties(False):
        r, by, _, _ = _inputs(n_rows=120)
        off = execute_rma(op, r, by, config=_config(False))
    assert identical(on, off)
    assert identical(on_repeat, off)


def test_full_sort_op_identical():
    with use_properties(True):
        r, _, _, _ = _inputs(n_rows=40, n_order=1)
        on = execute_rma("tra", r, "k0", config=_config(True))
    with use_properties(False):
        r, _, _, _ = _inputs(n_rows=40, n_order=1)
        off = execute_rma("tra", r, "k0", config=_config(False))
    assert identical(on, off)


def test_key_violation_raised_in_both_modes():
    data = {"k": [1, 1, 2], "x": [1.0, 2.0, 3.0]}
    for enabled in (True, False):
        with use_properties(enabled):
            rel = Relation.from_columns(data)
            with pytest.raises(KeyViolationError):
                execute_rma("qqr", rel, "k", config=_config(enabled))
            # And repeated validation (cached verdict) still raises.
            with pytest.raises(KeyViolationError):
                execute_rma("qqr", rel, "k", config=_config(enabled))
