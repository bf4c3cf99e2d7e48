"""The package's records and value types are immutable and carry no
``__dict__``: records are named tuples, and ``PauliString``,
``AntiCommutingSet`` and ``FiducialSetting`` are slotted classes that
compare and hash by value."""

import copy
import pickle

import pytest

from boxworld import constraints, games, infotasks, rac
from boxworld.pauli import PauliString, gamma_set
from boxworld.states import CliffordCircuit, FiducialSetting


def instances():
    state = games.chsh_optimal_state(2.0)
    learn = infotasks.learnability_threshold(1000, 2.0, 0.1, 0.1, 0.1, eta=0.2)
    return [
        constraints.check_p_uncertainty(state, 2.0),
        constraints.classify_state(state, 2.0),
        constraints._local_plan(2),
        constraints.two_measurement_sylvester(0.1, 0.2, 0.3),
        games.tsirelson_optimize(),
        games.chsh_game(),
        games.build_xor_game_state(games.chsh_game(), 2.0)[1],
        rac.rac_params("p-gnst", 2, 2.0),
        infotasks.ip_oneway_cost(3, 2.0),
        learn.bound,
        learn.params,
        learn,
        CliffordCircuit(2, (("H", (0,)), ("CNOT", (0, 1)))),
        PauliString.from_text("XZ"),
        gamma_set(2),
        FiducialSetting((1, 2)),
    ]


INSTANCES = instances()


def test_every_converted_class_is_covered():
    assert len({type(obj) for obj in INSTANCES}) == 16


@pytest.mark.parametrize("obj", INSTANCES, ids=lambda obj: type(obj).__name__)
def test_instance_is_immutable_without_dict(obj):
    assert not hasattr(obj, "__dict__")
    first = (getattr(type(obj), "_fields", None) or type(obj).__slots__)[0]
    value = getattr(obj, first)
    with pytest.raises(AttributeError):
        setattr(obj, first, value)
    with pytest.raises(AttributeError):
        obj.unlisted = 1
    assert getattr(obj, first) is value


@pytest.mark.parametrize(
    "make",
    [
        lambda: PauliString.from_text("-1 XZ"),
        lambda: FiducialSetting((3, 1, 2)),
        lambda: gamma_set(2),
    ],
    ids=["PauliString", "FiducialSetting", "AntiCommutingSet"],
)
def test_value_types_compare_and_hash_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_value_types_tell_values_apart():
    assert PauliString.from_text("XZ") != PauliString.from_text("-1 XZ")
    assert PauliString(2, 1, 2, 4) == PauliString(2, 1, 2, 0)  # phase mod 4
    assert FiducialSetting((1, 2)) != FiducialSetting((2, 1))
    assert len({FiducialSetting((1, 2)), FiducialSetting((1, 2)), FiducialSetting((2, 1))}) == 2


def test_validation_report_detail_defaults_to_a_fresh_dict():
    first = constraints.ValidationReport("c", True, 0.0)
    second = constraints.ValidationReport("c", True, 0.0)
    assert first.detail == {} and first.detail is not second.detail
    assert first.worst_set == ()
