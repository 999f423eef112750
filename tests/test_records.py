"""The package's records: read-only, with value semantics for the scalar
records and identity semantics for the records that hold arrays."""

import inspect
import pickle

import numpy as np
import pytest

from entchain import (
    ChainSpec,
    Partition,
    QuenchSchedule,
    RunConfig,
    entropy_series,
    from_dict,
    quench_modes,
)
from entchain.chain import build_coupling_matrix
from entchain.entanglement import UniformGrid
from entchain.ermakov import solve_sudden
from entchain.oracles import SymplecticPropagator

SPEC = ChainSpec(4, 3.0, 2.0, 0.3, 2.5)


# Each scalar record, built twice from equal fields, once by keyword.
SCALARS = [
    (SPEC, ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5, boundary="periodic")),
    (Partition((3, 4), (1, 2)), Partition.second_half(4)),
    (UniformGrid(0.5, 3), UniformGrid(dt=0.5, size=3)),
]

_TABLE = ([0.0, 1.0], [3.0, 0.3], [2.0, 2.5])
_COUPLING = build_coupling_matrix(SPEC, "post")
_TIMES = np.linspace(0.0, 1.0, 3)
# Each array-holding record, built twice from equal fields.
ARRAYS = [
    (entropy_series(SPEC, Partition.second_half(4), _TIMES),
     entropy_series(SPEC, Partition.second_half(4), _TIMES)),
    (quench_modes(SPEC), quench_modes(SPEC)),
    (QuenchSchedule(*_TABLE), QuenchSchedule(*_TABLE)),
    (SymplecticPropagator.from_coupling(_COUPLING), SymplecticPropagator.from_coupling(_COUPLING)),
    (solve_sudden(9.0, 0.09), solve_sudden(9.0, 0.09)),
]

EVERY = [from_dict({"model": {"n": 4, "omega_i": 3.0, "k_i": 2.0, "omega_f": 0.3, "k_f": 2.5}})]
EVERY += [first for first, _ in SCALARS + ARRAYS]


def _ids(records):
    return [type(r[0] if isinstance(r, tuple) else r).__name__ for r in records]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_is_covered():
    from entchain._record import Record, Value

    kinds = {type(record) for record in EVERY}
    assert RunConfig in kinds and len(kinds) == len(EVERY) == 9
    assert kinds == set(_subclasses(Record)) - {Value}


@pytest.mark.parametrize("record", EVERY, ids=_ids(EVERY))
def test_records_refuse_assignment(record):
    for name in inspect.signature(type(record)).parameters:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("first, second", SCALARS, ids=_ids(SCALARS))
def test_scalar_records_compare_by_value(first, second):
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert len({first, second}) == 1
    assert pickle.loads(pickle.dumps(first)) == first


def test_scalar_record_repr_names_every_field():
    assert repr(SPEC) == ("ChainSpec(n=4, omega_i=3.0, k_i=2.0, omega_f=0.3, k_f=2.5, "
                          "boundary='periodic')")
    assert SPEC != ChainSpec(4, 3.0, 2.0, 0.3, 2.5, "open")
    assert SPEC != (4, 3.0, 2.0, 0.3, 2.5, "periodic")


def test_run_configs_compare_by_value():
    doc = {"model": {"n": 4, "omega_i": 3.0, "k_i": 2.0, "omega_f": 0.3, "k_f": 2.5}}
    assert from_dict(doc) == from_dict(doc)
    doc["time"] = {"dt": 0.02}
    assert from_dict(doc) != from_dict({"model": doc["model"]})


@pytest.mark.parametrize("first, second", ARRAYS, ids=_ids(ARRAYS))
def test_array_records_compare_by_identity(first, second):
    assert first == first
    assert first != second
    assert hash(first) == object.__hash__(first)
    assert len({first, second, first}) == 2
