"""The top-level namespace: exactly the layers' public names, nothing removed."""

import copy
import dataclasses
import pickle

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


# Each value type: a sample's field values, the field names, the defaults
# (a type standing for a fresh instance of it), a field and a value that
# its validation rejects (None where it has none), and the sample's repr.
ATOM = (1.0e7, 8.478e-30, 1.5)
TRAJECTORY = (1.0e-6, 5.0e9)
CAVITY = (5.0e9, 1.0e7, 1.0e-7)
RECORDS = [
    (
        kinematics.AtomParams, ATOM, ("omega0", "dipole", "theta0"), {}, ("theta0", 4.0),
        "AtomParams(omega0=10000000.0, dipole=8.478e-30, theta0=1.5)",
    ),
    (
        kinematics.TrajectoryParams, TRAJECTORY, ("radius", "omega", "center"),
        {"center": (0.0, 0.0)}, ("radius", -1.0),
        "TrajectoryParams(radius=1e-06, omega=5000000000.0, center=(0.0, 0.0))",
    ),
    (
        kinematics.KinematicDerived, tuple(map(float, range(8))),
        ("zeta", "lorentz_gamma", "omega0_bar", "omega_plus", "omega_minus", "obar_plus",
         "obar_minus", "acceleration"), {}, None,
        "KinematicDerived(zeta=0.0, lorentz_gamma=1.0, omega0_bar=2.0, omega_plus=3.0, "
        "omega_minus=4.0, obar_plus=5.0, obar_minus=6.0, acceleration=7.0)",
    ),
    (
        cavity.CavitySpec, CAVITY, ("omega_c", "q_factor", "volume"), {}, ("volume", 0.0),
        "CavitySpec(omega_c=5000000000.0, q_factor=10000000.0, volume=1e-07)",
    ),
    (
        rates.RateSet, (1.0, 0.5),
        ("gamma_down", "gamma_up", "gamma_down_inertial", "gamma_down_ni", "warnings"),
        {"gamma_down_inertial": None, "gamma_down_ni": None, "warnings": ()}, None,
        "RateSet(gamma_down=1.0, gamma_up=0.5, gamma_down_inertial=None, gamma_down_ni=None, "
        "warnings=())",
    ),
    (
        dynamics.EvolutionParams, (0.25, 0.1, 1.0, 1.0),
        ("a_coeff", "b_coeff", "omega_eff", "theta0"), {}, ("b_coeff", 0.5),
        "EvolutionParams(a_coeff=0.25, b_coeff=0.1, omega_eff=1.0, theta0=1.0)",
    ),
    (
        dynamics.OdeTrajectory, ((0.0, 1.0), (2.0, 3.0)), ("times", "states"), {}, None,
        "OdeTrajectory(times=(0.0, 1.0), states=(2.0, 3.0))",
    ),
    (
        geophase.GPResult, ("tong", 1.0, 2.0, 3.0, -1.0),
        ("engine", "n_cycles", "total", "unitary_part", "nonunitary_part", "inertial_part",
         "noninertial_part", "warnings", "diagnostics"),
        {"inertial_part": None, "noninertial_part": None, "warnings": (), "diagnostics": dict},
        None,
        "GPResult(engine='tong', n_cycles=1.0, total=2.0, unitary_part=3.0, "
        "nonunitary_part=-1.0, inertial_part=None, noninertial_part=None, warnings=(), "
        "diagnostics={})",
    ),
    (
        scenarios.Scenario,
        ("s", kinematics.AtomParams(*ATOM), kinematics.TrajectoryParams(*TRAJECTORY),
         cavity.CavitySpec(*CAVITY), "case1", 10, 100, 1.0e6, 1.0e7),
        ("name", "atom", "trajectory", "cavity", "family", "n_default", "n_max", "sweep_lo",
         "sweep_hi", "sweep_points"),
        {"sweep_points": 400}, ("family", "case3"),
        "Scenario(name='s', atom=AtomParams(omega0=10000000.0, dipole=8.478e-30, theta0=1.5), "
        "trajectory=TrajectoryParams(radius=1e-06, omega=5000000000.0, center=(0.0, 0.0)), "
        "cavity=CavitySpec(omega_c=5000000000.0, q_factor=10000000.0, volume=1e-07), "
        "family='case1', n_default=10, n_max=100, sweep_lo=1000000.0, sweep_hi=10000000.0, "
        "sweep_points=400)",
    ),
    (
        scenarios.SweepTable, (("a",), ((1.0,),)), ("columns", "rows", "metadata"),
        {"metadata": dict}, None, "SweepTable(columns=('a',), rows=((1.0,),), metadata={})",
    ),
]
RECORD_IDS = [entry[0].__name__ for entry in RECORDS]


@pytest.mark.parametrize("record, values, names, defaults, bad, text", RECORDS, ids=RECORD_IDS)
class TestRecordContract:
    """What each value type gives its callers: construction, defaults,
    equality and hashing over the fields, repr, immutability, pickling,
    and the answers of the ``dataclasses`` functions."""

    def test_positional_and_keyword_construction_agree(
        self, record, values, names, defaults, bad, text
    ):
        by_position, by_keyword = record(*values), record(**dict(zip(names, values)))
        assert by_position == by_keyword
        assert tuple(getattr(by_keyword, name) for name in names[: len(values)]) == values

    def test_defaults_and_a_fresh_dict_per_instance(
        self, record, values, names, defaults, bad, text
    ):
        first, second = record(*values), record(*values)
        assert names[len(values):] == tuple(defaults)
        for name, default in defaults.items():
            if default is dict:
                assert getattr(first, name) == {} and getattr(first, name) is not getattr(
                    second, name
                ), name
            else:
                assert getattr(first, name) == default, name

    def test_equality_and_hash_over_the_fields_of_one_class(
        self, record, values, names, defaults, bad, text
    ):
        first, second = record(*values), record(*values)
        assert first == second and not first != second
        if dict in defaults.values():  # a dict field makes the record unhashable
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second)
        fields = tuple(getattr(first, name) for name in names)
        assert first != fields and fields != first
        assert first.__eq__(fields) is NotImplemented
        other = next(r for r, v, *_ in RECORDS if r is not record)
        assert first != other(*next(v for r, v, *_ in RECORDS if r is other))

    def test_repr(self, record, values, names, defaults, bad, text):
        assert repr(record(*values)) == text

    def test_fields_can_be_neither_set_nor_deleted(
        self, record, values, names, defaults, bad, text
    ):
        sample = record(*values)
        for name in (names[0], "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(sample, name, values[0])
            with pytest.raises(AttributeError):
                delattr(sample, name)
        assert getattr(sample, names[0]) == values[0]

    def test_pickle_and_copy_round_trip(self, record, values, names, defaults, bad, text):
        sample = record(*values)
        for twin in (pickle.loads(pickle.dumps(sample)), copy.copy(sample)):
            assert type(twin) is record and twin == sample and repr(twin) == text

    def test_dataclasses_functions(self, record, values, names, defaults, bad, text):
        sample = record(*values)
        assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(sample)
        assert tuple(f.name for f in dataclasses.fields(sample)) == names
        assert tuple(f.name for f in dataclasses.fields(record)) == names
        plain = dataclasses.asdict(sample)
        assert list(plain) == list(names)
        for name in names:
            value = getattr(sample, name)
            expected = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
            assert plain[name] == expected, name
        moved = dataclasses.replace(sample, **{names[1]: values[1]})
        assert moved == sample and moved is not sample
        if bad is not None:
            with pytest.raises(ValueError):
                dataclasses.replace(sample, **dict([bad]))
