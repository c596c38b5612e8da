"""The top-level namespace: exactly the layers' public names, nothing removed."""

import pytest

import rotodyne
from rotodyne import cavity, constants, dynamics, geophase, kinematics, rates, scenarios

LAYERS = (kinematics, cavity, rates, dynamics, geophase, scenarios)
REMOVED = (
    "EigenPath",
    "comoving_rates",
    "eigenpath_from_closed_form",
    "eigensystem",
    "gp_tong",
    "noninertial_split",
)


def test_all_is_the_union_of_the_layer_lists():
    layer_names = [name for layer in LAYERS for name in layer.__all__]
    extras = [*constants.__all__, "NumericsError", "__version__"]
    assert len(rotodyne.__all__) == len(set(rotodyne.__all__))
    assert set(rotodyne.__all__) == set(layer_names) | set(extras)
    for name in rotodyne.__all__:
        assert hasattr(rotodyne, name), name
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(rotodyne, name) is getattr(layer, name), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert not hasattr(rotodyne, name)
