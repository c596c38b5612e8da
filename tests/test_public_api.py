"""The top-level namespace: exactly the layers' public names, nothing removed."""

import ast
import copy
import dataclasses
import importlib
import pickle
from pathlib import Path

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


def test_records_are_no_dataclasses_until_dataclasses_is_loaded(module_report):
    """A record answers the ``dataclasses`` functions only through the module
    its caller has loaded: at the end of ``tests/module_sets.py``, in a fresh
    ``-S`` interpreter where every command has run and none loaded
    ``dataclasses``, ``hasattr(record, "__dataclass_fields__")`` is False;
    once the caller imports it, the record is a dataclass."""
    report, _ = module_report
    assert report["records"] == [[False, False], [True, True]]


# The benchmark (bench/*.py) reads the package through its public names and
# times the functions its per-layer metrics are named after; a source change
# that moves one of them out of reach, or out of its traced layer, shows here.
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_trees() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in BENCH.glob("*.py")}


def _package_chains(tree) -> set:
    """(module, attribute names) of each attribute chain that the file reads
    from a name it imported ``rotodyne`` as, e.g. ("rotodyne", ("cli", "main"))."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rotodyne":
                    bound[alias.asname or "rotodyne"] = alias.name if alias.asname else "rotodyne"
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id in bound:
            chains.add((bound[node.id], tuple(reversed(names))))
    return chains


def test_bench_reads_only_names_that_resolve():
    chains = set().union(*map(_package_chains, _bench_trees().values()))
    named = [("scenarios", "rates_sweep_chart"), ("EvolutionParams", "from_rates"),
             ("cavity", "dos"), ("cli", "main")]
    assert {("rotodyne", names) for names in named} <= chains
    missing = []
    for module, names in sorted(chains):
        obj = importlib.import_module(module)
        for name in names:
            if not hasattr(obj, name):
                missing.append(f"{module}.{'.'.join(names)}")
                break
            obj = getattr(obj, name)
    assert missing == []


def test_bench_metric_functions_stay_traced_in_their_layers():
    """Every function that ``layer_metrics`` (bench/worker.py) reads through
    ``busy(...)`` or ``fn[...]`` is a public function defined in one of the
    layers that bench/tracing.py wraps, as its tracer requires."""
    trees = _bench_trees()
    layers = next(
        ast.literal_eval(node.value)
        for node in trees["tracing.py"].body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    )
    metrics = next(
        node for node in trees["worker.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"
    )
    read = set()
    for node in ast.walk(metrics):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "busy":
            read.update(arg.value for arg in node.args)
        elif isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "fn":
            if isinstance(node.slice, ast.Constant):  # not the lambda's fn[n]
                read.add(node.slice.value)
    assert {"gp_quasi_cycle", "sweep_cavity", "line_chart", "evolve_ode"} <= read
    modules = [importlib.import_module(f"rotodyne.{layer}") for layer in layers]
    homes = {
        name: module.__name__
        for module in modules
        for name in module.__all__
        if getattr(getattr(module, name), "__module__", None) == module.__name__
    }
    assert {name: homes.get(name) for name in read if name not in homes} == {}


def test_bench_diagnostics_keys_are_on_the_engines_results():
    keys = {
        node.slice.value
        for tree in _bench_trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "diagnostics"
    }
    assert keys >= {"samples", "pi_n_a_over_omega0"}
    scn = rotodyne.preset("case1")
    reported = set().union(
        *(rotodyne.scenario_gp(scn, 1000, engine).diagnostics for engine in rotodyne.ENGINES)
    )
    assert keys <= reported, keys - reported
