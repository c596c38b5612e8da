"""The top-level namespace: exactly the layers' public names, nothing removed."""

import ast
import contextlib
import copy
import dataclasses
import importlib
import pickle
from pathlib import Path

import numpy as np
import pytest

import rotodyne
from rotodyne import cavity, constants, dynamics, geophase, kinematics, rates, scenarios

LAYERS = (kinematics, cavity, rates, dynamics, geophase, scenarios)
REMOVED = (
    "EigenPath",
    "check_density_matrix",
    "closed_form_bloch",
    "comoving_rates",
    "eigenpath_from_closed_form",
    "eigensystem",
    "gp_tong",
    "noninertial_split",
)


def test_all_is_the_union_of_the_layer_lists():
    layer_names = [name for layer in LAYERS for name in layer.__all__]
    extras = [*constants.__all__, "NumericsError", "__version__"]
    assert len(layer_names) == len(set(layer_names))  # each name in one layer
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
        kinematics.KinematicDerived, tuple(map(float, range(10))),
        ("zeta", "lorentz_gamma", "omega0_bar", "omega_plus", "omega_minus", "obar_plus",
         "obar_minus", "acceleration", "redshift", "gamma_minus_one"), {}, None,
        "KinematicDerived(zeta=0.0, lorentz_gamma=1.0, omega0_bar=2.0, omega_plus=3.0, "
        "omega_minus=4.0, obar_plus=5.0, obar_minus=6.0, acceleration=7.0, redshift=8.0, "
        "gamma_minus_one=9.0)",
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
        rates.EvolutionParams, (0.25, 0.1, 1.0, 1.0),
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


def data_descriptor_fields(record) -> list:
    """The fields of ``record`` that some class of its MRO holds as a data
    descriptor (its type has ``__set__`` or ``__delete__``): for those
    ``object.__setattr__`` calls the descriptor, where a write into the
    instance ``__dict__`` would bypass it."""
    return [
        name
        for name in record.__match_args__
        for cls in record.__mro__
        if name in vars(cls)
        and any(hasattr(type(vars(cls)[name]), hook) for hook in ("__set__", "__delete__"))
    ]


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

    def test_fields_are_the_instance_dict(self, record, values, names, defaults, bad, text):
        """``__init__`` hands the instance a dict of exactly its fields, and
        ``_store`` writes items of it: the same as per-field
        ``object.__setattr__`` calls while no field is a data descriptor of
        the class."""
        assert list(vars(record(*values))) == list(names)
        assert data_descriptor_fields(record) == []

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


def test_record_classes_get_only_their_init_written():
    """Each value type's ``__init__`` is the one method written for it: after
    every record is compared and hashed, no record class has its own
    ``__eq__`` or ``__hash__``, and nothing else on it came from ``exec``."""
    from rotodyne._record import Record

    for record, values, *_ in RECORDS:
        sample = record(*values)
        assert sample == record(*values)
        with contextlib.suppress(TypeError):  # a dict field makes the record unhashable
            hash(sample)
    classes = Record.__subclasses__()
    assert len(classes) > len(RECORDS)  # the private ones too
    for record in classes:
        written = [
            name for name, value in vars(record).items()
            if getattr(getattr(value, "__code__", None), "co_filename", None) == "<string>"
        ]
        assert written == ["__init__"], record
        assert "__eq__" not in vars(record) and "__hash__" not in vars(record), record


def test_a_field_behind_a_data_descriptor_is_found():
    """The check above bites: a property named like a field is a data
    descriptor, ``object.__setattr__`` would raise on it, and the dict
    that ``__init__`` writes goes round it."""
    from rotodyne._record import Record

    class Shadowed(Record):
        x: float
        y: float

    assert data_descriptor_fields(Shadowed) == []
    Shadowed.y = property(lambda self: -1.0)
    assert data_descriptor_fields(Shadowed) == ["y"]
    sample = Shadowed(1.0, 2.0)
    assert vars(sample) == {"x": 1.0, "y": 2.0} and sample.y == -1.0
    with pytest.raises(AttributeError):
        object.__setattr__(sample, "y", 2.0)


def test_records_are_no_dataclasses_until_dataclasses_is_loaded(module_report):
    """A record answers the ``dataclasses`` functions only through the module
    its caller has loaded: at the end of ``tests/module_sets.py``, in a fresh
    ``-S`` interpreter where every command has run and none loaded
    ``dataclasses``, ``hasattr(record, "__dataclass_fields__")`` is False;
    once the caller imports it, the record is a dataclass."""
    report, _ = module_report
    assert report["records"] == [[False, False], [True, True]]


# Every entry point that reads a number a caller passes in, as (id, a call
# with the value, the name its message gives): each field of the input
# value types, the engines' horizon and cycle count, and the grids.
SAMPLES = {entry[0]: dict(zip(entry[2], entry[1])) for entry in RECORDS}
INPUT_FIELDS = {
    kinematics.AtomParams: ("omega0", "dipole", "theta0"),
    kinematics.TrajectoryParams: ("radius", "omega"),
    cavity.CavitySpec: ("omega_c", "q_factor", "volume"),
    rates.EvolutionParams: ("a_coeff", "b_coeff", "omega_eff", "theta0"),
    scenarios.Scenario: ("n_default", "n_max", "sweep_lo", "sweep_hi", "sweep_points"),
}
GENERATOR = rates.EvolutionParams(*SAMPLES[rates.EvolutionParams].values())
CASE1 = scenarios.preset("case1")
PARTS = (CASE1.trajectory, CASE1.atom, CASE1.cavity)


def _field(record, name):
    return lambda v: record(**dict(SAMPLES[record], **{name: v}))


def _engine(engine):
    return lambda v: scenarios.scenario_gp(CASE1, v, engine)


READERS = [
    *[(f"{r.__name__}.{n}", _field(r, n), n) for r, names in INPUT_FIELDS.items() for n in names],
    ("TrajectoryParams.center", lambda v: kinematics.TrajectoryParams(1.0, 1.0, (0.0, v)), "center"),
    ("gp_tong_closed_form", lambda v: geophase.gp_tong_closed_form(GENERATOR, v), "total_time"),
    ("gp_exact_integral", lambda v: geophase.gp_exact_integral(GENERATOR, v), "total_time"),
    ("gp_exact_integral.n_cycles",
     lambda v: geophase.gp_exact_integral(GENERATOR, 1.0, n_cycles=v), "n_cycles"),
    ("gp_quasi_cycle", lambda v: geophase.gp_quasi_cycle(GENERATOR, v), "n"),
    ("gp_case1", lambda v: geophase.gp_case1(*PARTS, v), "n"),
    ("gp_case2", lambda v: geophase.gp_case2(*PARTS, v), "n"),
    ("gp_split.n", lambda v: geophase.gp_split(scenarios.scenario_rates(CASE1), v, 1.0, 1.0e7), "n"),
    ("gp_split.theta", lambda v: geophase.gp_split(scenarios.scenario_rates(CASE1), 10, v, 1.0e7), "theta"),
    ("gp_split.omega0", lambda v: geophase.gp_split(scenarios.scenario_rates(CASE1), 10, 1.0, v), "omega0"),
    *[(f"scenario_gp.{e}", _engine(e), "cycle count") for e in scenarios.ENGINES],
    ("build_grid.start", lambda v: scenarios.build_grid(v, 5.0, 3), "start"),
    ("build_grid.stop", lambda v: scenarios.build_grid(1.0, v, 3), "stop"),
    ("build_grid.points", lambda v: scenarios.build_grid(1.0, 5.0, v), "points"),
    ("build_grid.anchors", lambda v: scenarios.build_grid(1.0, 5.0, 3, anchors=(v,)), "anchors"),
    ("default_n_grid.n_max", lambda v: scenarios.default_n_grid(v), "n_max"),
    ("default_n_grid.points", lambda v: scenarios.default_n_grid(100, v), "points"),
    ("gp_vs_n", lambda v: scenarios.gp_vs_n(CASE1, [1, v]), "cycle count"),
    ("sweep_cavity", lambda v: scenarios.sweep_cavity(CASE1, [5.0e9, v]), "omega_c"),
    ("sweep_cavity.floats", lambda v: scenarios._sweep_rows(CASE1, [5.0e9, v], False), "omega_c"),
    ("dos", lambda v: cavity.dos(CASE1.cavity, v), "frequency"),
    ("dos_derivative", lambda v: cavity.dos_derivative(CASE1.cavity, v), "frequency"),
    ("closed_form_rho", lambda v: dynamics.closed_form_rho(GENERATOR, v), "tau"),
    ("initial_state", dynamics.initial_state, "theta0"),
    ("evolve_ode", lambda v: dynamics.evolve_ode(GENERATOR, v), "t_final"),
    ("evolve_ode.t_eval", lambda v: dynamics.evolve_ode(GENERATOR, 1.0, t_eval=v), "t_eval"),
    ("kossakowski.a_coeff", lambda v: dynamics.kossakowski(v, 0.0), "a_coeff"),
    ("kossakowski.b_coeff", lambda v: dynamics.kossakowski(1.0, v), "b_coeff"),
]


@pytest.mark.parametrize("value", [True, "1"], ids=["bool", "text"])
@pytest.mark.parametrize("call, name", [r[1:] for r in READERS], ids=[r[0] for r in READERS])
def test_bools_and_text_are_no_numbers(call, name, value):
    """A bool was taken as 1 and text was a TypeError, or taken as 1 by numpy."""
    with pytest.raises(ValueError) as caught:
        call(value)
    assert str(caught.value) == f"{name} must be a number, got {value!r}"


SRC = Path(rotodyne.__file__).resolve().parent


def _imported(node) -> list:
    """The dotted names an import statement reads, relative ones without
    their leading dots: ``from . import x`` gives "" and ".x"."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        return [base, *(f"{base}.{alias.name}" for alias in node.names)]
    return []


def test_no_package_module_imports_dynamics():
    """The generator record lives in ``rates`` and the dissipator matrix in
    ``dynamics``, so no module of the package imports ``dynamics``, at its
    top or in a function: it holds the closed form and the ODE oracle."""
    found = [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _imported(node)
        if "dynamics" in name.split(".")
    ]
    assert found == []


@pytest.mark.parametrize("kind", [int, np.int64, np.float32, np.float64])
def test_input_value_types_hold_python_floats(kind):
    """Ints and numpy scalars are stored as the Python floats of their values."""
    for record, names in INPUT_FIELDS.items():
        sample = record(**SAMPLES[record])
        floats = [n for n in names if type(getattr(sample, n)) is float]
        if kind in (int, np.int64):
            floats = [n for n in floats if getattr(sample, n).is_integer()]
        made = sample._replace(**{n: kind(getattr(sample, n)) for n in floats})
        assert floats and all(type(getattr(made, n)) is float for n in floats), made
    orbit = kinematics.TrajectoryParams(1.0, 1.0, (kind(2), kind(3)))
    assert [type(v) for v in orbit.center] == [float, float]


def test_numpy_scalar_inputs_give_the_results_of_their_floats(tmp_path):
    """A float64 generator near the float range overflowed numpy's scalar
    4 a T with a RuntimeWarning, an error under this suite's filter, and
    ``save_scenario`` refused float32 fields."""
    values = (1e308, 3e307, 1.0, 1.0)
    got = geophase.gp_exact_integral(rates.EvolutionParams(*map(np.float64, values)), 1.0)
    want = geophase.gp_exact_integral(rates.EvolutionParams(*values), 1.0)
    assert got == want and got.total == -1.0
    f32 = [np.float32(v) for v in SAMPLES[kinematics.AtomParams].values()]
    for name, atom in (("f32", f32), ("twin", map(float, f32))):
        scenarios.save_scenario(CASE1._replace(atom=kinematics.AtomParams(*atom)), tmp_path / name)
    assert (tmp_path / "f32").read_bytes() == (tmp_path / "twin").read_bytes()


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
