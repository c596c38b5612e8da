"""Rate engines: general resonance evaluation, regime expansions, splits."""

import functools
import math
import struct
from dataclasses import fields, replace
from decimal import Decimal

import numpy as np
import pytest

from oracles import exact_rates
from rotodyne import rates
from rotodyne.constants import SPEED_OF_LIGHT
from rotodyne import (
    DEFAULT_DIPOLE,
    AtomParams,
    CavitySpec,
    NumericsError,
    TrajectoryParams,
    case1_rates,
    case2_rates,
    derive_kinematics,
    dos,
    general_rates,
    kossakowski,
    lab_rates_general,
    preset,
    sweep_cavity,
    vacuum_coupling,
    zeta_of,
)

FAST = dict(
    traj=TrajectoryParams(radius=1.0e-6, omega=5.0e9),
    atom=AtomParams(omega0=1.0e7, dipole=DEFAULT_DIPOLE, theta0=math.pi / 2),
    cavity=CavitySpec(omega_c=5.01e9, q_factor=1.0e7, volume=1.0e-7),
)
SLOW = dict(
    traj=TrajectoryParams(radius=1.0e-3, omega=1.0e5),
    atom=AtomParams(omega0=1.0e7, dipole=DEFAULT_DIPOLE, theta0=math.pi / 2),
    cavity=CavitySpec(omega_c=1.01e7, q_factor=1.0e7, volume=1.0e-3),
)


class TestCoefficients:
    def test_dissipator_coefficients_are_quarter_sums(self):
        rs = lab_rates_general(**SLOW)
        assert rs.a_coeff == (rs.gamma_down + rs.gamma_up) / 4.0
        assert rs.b_coeff == (rs.gamma_down - rs.gamma_up) / 4.0
        assert rs.a_coeff >= abs(rs.b_coeff)

    def test_asymmetry_ratio(self):
        rs = lab_rates_general(**FAST)
        assert rs.ratio == rs.b_coeff / rs.a_coeff

    def test_coefficients_follow_replaced_rates(self):
        rs = lab_rates_general(**FAST)
        x = 3.0 * rs.gamma_down
        moved = replace(rs, gamma_down=x)
        assert moved.a_coeff == (x + rs.gamma_up) / 4.0
        assert moved.b_coeff == (x - rs.gamma_up) / 4.0
        assert moved.ratio == moved.b_coeff / moved.a_coeff

    def test_kossakowski_structure(self):
        mat = kossakowski(1.0, 1.0)
        eigs = sorted(np.linalg.eigvalsh(mat))
        assert eigs == pytest.approx([0.0, 0.0, 2.0], abs=1e-14)

    def test_kossakowski_generic_spectrum(self):
        a, b = 0.9, 0.4
        eigs = sorted(np.linalg.eigvalsh(kossakowski(a, b)))
        assert eigs == pytest.approx([0.0, a - b, a + b], abs=1e-14)

    def test_kossakowski_rejects_indefinite_input(self):
        with pytest.raises(ValueError):
            kossakowski(1.0, 1.5)

    @pytest.mark.parametrize("a, b", [(1.0, math.nan), (math.inf, 0.0), (math.nan, 0.0)])
    def test_kossakowski_rejects_non_finite_input(self, a, b):
        with pytest.raises(ValueError):
            kossakowski(a, b)


class TestVacuumCoupling:
    def test_scales_with_dipole_squared(self):
        a1 = AtomParams(omega0=1.0e7, dipole=1.0e-30, theta0=1.0)
        a2 = AtomParams(omega0=1.0e7, dipole=2.0e-30, theta0=1.0)
        cav = SLOW["cavity"]
        assert vacuum_coupling(a2, cav) == pytest.approx(4.0 * vacuum_coupling(a1, cav), rel=1e-15)

    def test_scales_inversely_with_volume(self):
        atom = SLOW["atom"]
        c1 = CavitySpec(omega_c=1.0e7, q_factor=1.0e7, volume=1.0e-6)
        c2 = CavitySpec(omega_c=1.0e7, q_factor=1.0e7, volume=1.0e-3)
        assert vacuum_coupling(atom, c1) == pytest.approx(1.0e3 * vacuum_coupling(atom, c2), rel=1e-15)

    def test_known_values(self):
        assert vacuum_coupling(FAST["atom"], FAST["cavity"]) == pytest.approx(8.16753127397255e-08, rel=1e-12)
        assert vacuum_coupling(SLOW["atom"], SLOW["cavity"]) == pytest.approx(8.167531273972548e-12, rel=1e-12)

    @pytest.mark.parametrize(
        "dipole, volume, value",
        [(1e200, 1.0e-7, "inf"), (DEFAULT_DIPOLE, 1e-300, "inf"), (1e-200, 1.0e-7, "0.0")],
        ids=["dipole-squared-overflows", "volume-underflows-the-denominator", "dipole-squared-underflows"],
    )
    def test_coupling_outside_the_float_range_raises(self, dipole, volume, value):
        atom = AtomParams(omega0=1.0e7, dipole=dipole, theta0=1.0)
        cavity = CavitySpec(omega_c=1.0e7, q_factor=1.0e7, volume=volume)
        with pytest.raises(ValueError) as caught:
            vacuum_coupling(atom, cavity)
        assert str(caught.value) == (
            "coupling eta = dipole**2 / (3 pi hbar eps0 volume) must be positive and finite, "
            f"got {value} from dipole = {dipole} and volume = {volume}"
        )


class TestStaticLimit:
    def test_static_downward_rate_is_recoil_corrected_carrier(self):
        # closed form against closed form: same expression, bit-exact
        traj = TrajectoryParams(radius=1.0e-3, omega=0.0)
        atom, cavity = SLOW["atom"], SLOW["cavity"]
        rs = lab_rates_general(traj, atom, cavity)
        eta = vacuum_coupling(atom, cavity)
        carrier = (1.0 - 0.4 * zeta_of(atom.omega0, traj.radius)) * dos(cavity, atom.omega0) * atom.omega0
        assert rs.gamma_down == eta * carrier
        assert rs.gamma_up == 0.0

    def test_static_gap_is_not_redshifted(self):
        traj = TrajectoryParams(radius=1.0e-3, omega=0.0)
        kin = derive_kinematics(traj, SLOW["atom"])
        assert kin.omega0_bar == SLOW["atom"].omega0

    def test_point_orbit_has_no_recoil(self):
        # R = 0: zeta vanishes, both sidebands sit on the carrier with zero weight
        traj = TrajectoryParams(radius=0.0, omega=5.0e9)
        atom, cavity = SLOW["atom"], SLOW["cavity"]
        rs = lab_rates_general(traj, atom, cavity)
        eta = vacuum_coupling(atom, cavity)
        assert rs.gamma_down == pytest.approx(eta * dos(cavity, atom.omega0) * atom.omega0, rel=1e-15)
        assert rs.gamma_up == 0.0
        assert rs.a_coeff == rs.b_coeff


class TestFrameTransport:
    def test_comoving_rates_scale_by_lorentz_gamma(self):
        lab = lab_rates_general(**FAST)
        kin = derive_kinematics(FAST["traj"], FAST["atom"])
        com = general_rates(**FAST)
        assert com.gamma_down == kin.lorentz_gamma * lab.gamma_down
        assert com.gamma_up == kin.lorentz_gamma * lab.gamma_up

    def test_general_rates_derive_the_kinematics_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return derive(*args)

        derive = rates.derive_kinematics
        monkeypatch.setattr(rates, "derive_kinematics", counted)
        for params in (FAST, SLOW):
            calls.clear()
            general_rates(**params)
            assert len(calls) == 1


class TestSplit:
    def test_general_split_reference_is_static_carrier(self):
        rs = general_rates(**SLOW)
        eta = vacuum_coupling(SLOW["atom"], SLOW["cavity"])
        assert rs.gamma_down_inertial == eta * dos(SLOW["cavity"], 1.0e7) * 1.0e7
        assert rs.gamma_down_inertial + rs.gamma_down_ni == pytest.approx(rs.gamma_down, rel=1e-15)

    def test_upward_channel_vanishes_without_rotation(self):
        # the upward channel is entirely non-inertial in every engine
        for params in (FAST, SLOW):
            static = replace(params["traj"], omega=0.0)
            for engine in (lab_rates_general, general_rates, case1_rates, case2_rates):
                assert engine(static, params["atom"], params["cavity"]).gamma_up == 0.0

    def test_case_engines_split_additively(self):
        for rs in (case1_rates(**FAST), case2_rates(**SLOW)):
            assert rs.gamma_down_inertial + rs.gamma_down_ni == pytest.approx(rs.gamma_down, rel=1e-14)
            assert rs.gamma_down_inertial >= 0.0


class TestArrayCavity:
    def test_array_of_centers_matches_scalar_calls(self):
        engines = (lab_rates_general, general_rates, case1_rates, case2_rates)
        for params in (FAST, SLOW):
            centers = params["cavity"].omega_c * np.geomspace(0.5, 2.0, 41)
            sweep = replace(params["cavity"], omega_c=centers)
            for engine in engines:
                swept = engine(params["traj"], params["atom"], sweep)
                for i, center in enumerate(centers.tolist()):
                    point = engine(params["traj"], params["atom"], replace(sweep, omega_c=center))
                    names = [f.name for f in fields(point)] + ["a_coeff", "b_coeff", "ratio"]
                    for name in names:
                        want, got = getattr(point, name), getattr(swept, name)
                        if isinstance(want, float):
                            assert type(want) is float
                            assert np.broadcast_to(got, centers.shape)[i] == want, name
                        else:
                            assert got == want, name

    def test_general_noninertial_rate_past_its_direct_range_is_the_remainder(self):
        # a half width or a frequency past 1e30 rad/s, or a half width below
        # 1e-30, would leave the float range inside the closed forms of the
        # non-inertial rate. gamma_down reads every Lorentzian at its exact
        # detuning there too: it read dos at the rounded frequencies, 2.2e-3
        # off at Q = 1e38 and 1e40, and 2.8e-14 at omega = 1e31
        atom, slow, fast = SLOW["atom"], SLOW["traj"], TrajectoryParams(1e-27, 1e31)
        cases = (
            (slow, 1.0e7, [1.01e7, 1e29, 2e30, 1e160, 1e300]),
            (slow, 1e38, [1.01e7, 1e9]),
            (slow, 1e40, [1.01e7, 1e9]),
            (fast, 1.0e7, [1.01e7, 1e9]),
        )
        for traj, q_factor, centers in cases:
            sweep = CavitySpec(np.array(centers), q_factor, 1.0e-3)
            swept = general_rates(traj, atom, sweep)
            for i, center in enumerate(centers):
                cavity = CavitySpec(center, q_factor, 1.0e-3)
                point = general_rates(traj, atom, cavity)
                ni, where = point.gamma_down_ni, (traj.omega, center, q_factor)
                assert math.isfinite(ni) and swept.gamma_down_ni[i] == ni, where
                assert swept.gamma_down[i] == point.gamma_down, where
                remainder = point.gamma_down - point.gamma_down_inertial
                past = traj.omega > 1e30 or center > 1e30 or center / q_factor < 1e-30
                assert (ni == remainder) is past, where
                if q_factor > 1e30 or traj.omega > 1e30:
                    exact = exact_rates(traj, atom, cavity, "general")["gamma_down"]
                    assert abs(Decimal(point.gamma_down) - exact) <= Decimal(1e-15) * exact, where

    def test_general_rates_where_a_detunings_two_sum_overflows(self):
        # near the float maximum omega - omega_c less omega0 (first) or
        # omega0 - omega_c plus omega (second) overflows, though the detuning
        # does not: its two-sum alone gives NaN, so it is taken at half scale.
        # The second's exact rates are subnormal, and its float ones 0
        for omega, omega0, center, rim in ((5e307, 1e308, 1.5e308, 0.9), (1e308, 1.7e308, 1.0, 0.99)):
            traj = TrajectoryParams(rim * SPEED_OF_LIGHT / omega, omega)
            atom = AtomParams(omega0, DEFAULT_DIPOLE, 1.0)
            cavity = CavitySpec(center, 1.0, 1.0e-6)
            point = general_rates(traj, atom, cavity)
            swept = general_rates(traj, atom, cavity._replace(omega_c=np.array([center])))
            for name in RATE_FIELDS:
                value = getattr(point, name)
                assert math.isfinite(value), (name, point)
                assert np.broadcast_to(getattr(swept, name), (1,))[0] == value, name
            exact = exact_rates(traj, atom, cavity, "general")["gamma_up"]
            if exact > 1e-300:
                assert abs(Decimal(point.gamma_up) - exact) <= Decimal(1e-14) * exact, point


class TestRegimes:
    def test_fast_rotation_is_sideband_dominated(self):
        rs = case1_rates(**FAST)
        assert rs.gamma_down_ni / rs.gamma_down_inertial > 1.0e6

    def test_slow_rotation_keeps_comparable_contributions(self):
        rs = case2_rates(**SLOW)
        assert 0.1 <= rs.gamma_down_inertial / rs.gamma_down_ni <= 10.0

    def test_known_rate_values(self):
        rs1 = case1_rates(**FAST)
        assert rs1.gamma_down == pytest.approx(1.0223556282804161e-10, rel=1e-9)
        assert rs1.gamma_down_inertial == pytest.approx(1.6367732673045388e-17, rel=1e-9)
        assert rs1.gamma_up == pytest.approx(6.389696092650071e-20, rel=1e-9)
        rs2 = case2_rates(**SLOW)
        assert rs2.gamma_down == pytest.approx(2.6792008429304463e-14, rel=1e-9)
        assert rs2.gamma_down_inertial == pytest.approx(8.2492065859622e-15, rel=1e-9)
        assert rs2.gamma_up == 0.0

    def test_expansions_track_general_engine(self):
        # truncation is first order in the regime ratio (here 2e-3 / 1e-2)
        rel1 = abs(case1_rates(**FAST).gamma_down - general_rates(**FAST).gamma_down)
        rel1 /= general_rates(**FAST).gamma_down
        rel2 = abs(case2_rates(**SLOW).gamma_down - general_rates(**SLOW).gamma_down)
        rel2 /= general_rates(**SLOW).gamma_down
        assert rel1 < 1e-2
        assert rel2 < 1e-1

    def test_out_of_regime_warns_without_raising(self):
        wrong = case1_rates(SLOW["traj"], SLOW["atom"], SLOW["cavity"])
        assert wrong.warnings
        assert wrong.validity != "ok"
        right = case1_rates(**FAST)
        assert right.validity == "ok"


ENGINES = (case1_rates, case2_rates, general_rates, lab_rates_general)
RATE_FIELDS = ("gamma_down", "gamma_up", "gamma_down_inertial", "gamma_down_ni")
# RateSet reprs of each engine on each preset, frozen before scalar calls
# moved from numpy to math: the move keeps every bit. On case2 the lab and
# general downward rates take their detunings from omega0 less the redshift,
# and the non-inertial rate is a sum of terms: general's gamma_down moved
# from 2.679200842930436e-14 to the exact 2.679200842930446e-14, and its
# gamma_down_ni from 1.854280184334216e-14 to 1.8542801843342255e-14
# (exact 1.854280184334226e-14). On case1 the upward rate reads the
# Lorentzian at the exact detuning of the lab lower sideband, not at its
# rounded frequency: general's gamma_up moved from 6.378347993278211e-20 to
# 6.378347993278437e-20 (exact 6.3783479932784354e-20), and the lab one from
# 6.378347992391101e-20 to 6.378347992391327e-20
FROZEN_REPRS = {
    ("case1", "case1_rates"): "RateSet(gamma_down=1.0223556282804161e-10, gamma_up=6.389696092650071e-20, gamma_down_inertial=1.6367732673045388e-17, gamma_down_ni=1.0223554646030894e-10, warnings=())",
    ("case1", "case2_rates"): "RateSet(gamma_down=1.0241749666903988e-10, gamma_up=0.0, gamma_down_inertial=1.6367732673045388e-17, gamma_down_ni=1.0241748030130721e-10, warnings=('slow-rotation regime strained: omega > omega0_bar / 10',))",
    ("case1", "general_rates"): "RateSet(gamma_down=1.0241749667693935e-10, gamma_up=6.378347993278437e-20, gamma_down_inertial=1.6367732673045388e-17, gamma_down_ni=1.0241748030920668e-10, warnings=())",
    ("case1", "lab_rates_general"): "RateSet(gamma_down=1.0241749666269498e-10, gamma_up=6.378347992391327e-20, gamma_down_inertial=None, gamma_down_ni=None, warnings=())",
    ("case2", "case1_rates"): "RateSet(gamma_down=8.253296007728828e-15, gamma_up=0.0, gamma_down_inertial=8.2492065859622e-15, gamma_down_ni=4.089421766627555e-18, warnings=('fast-rotation regime strained: omega < 10 * omega0_bar',))",
    ("case2", "case2_rates"): "RateSet(gamma_down=2.6792008429304463e-14, gamma_up=0.0, gamma_down_inertial=8.2492065859622e-15, gamma_down_ni=1.854280184334226e-14, warnings=())",
    ("case2", "general_rates"): "RateSet(gamma_down=2.679200842930446e-14, gamma_up=0.0, gamma_down_inertial=8.2492065859622e-15, gamma_down_ni=1.8542801843342255e-14, warnings=())",
    ("case2", "lab_rates_general"): "RateSet(gamma_down=2.6792008429302967e-14, gamma_up=0.0, gamma_down_inertial=None, gamma_down_ni=None, warnings=())",
}


class TestScalarPath:
    @pytest.mark.parametrize("name", ["case1", "case2"])
    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
    def test_preset_rates_are_floats_with_frozen_reprs(self, name, engine):
        scn = preset(name)
        rs = engine(scn.trajectory, scn.atom, scn.cavity)
        assert repr(rs) == FROZEN_REPRS[name, engine.__name__]
        for field in RATE_FIELDS:
            value = getattr(rs, field)
            assert type(value) is float or (value is None and engine is lab_rates_general), field
        assert type(rs.ratio) is float

    def test_ratio_of_scalar_fields_is_a_float(self):
        assert rates.RateSet(np.float64(3.0), np.float64(1.0)).ratio == 0.5
        assert type(rates.RateSet(np.float64(3.0), np.float64(1.0)).ratio) is float
        assert type(rates.RateSet(np.array(3.0), 1.0).ratio) is float
        assert rates.RateSet(0.0, 0.0).ratio == 0.0

    def test_float_ratio_is_the_numpy_quotient_bit_for_bit(self):
        # floats take b / a where a > 0 and 0.0 elsewhere; numpy scalars and
        # arrays take np.divide with the same where-mask
        rng = np.random.default_rng(20261019)
        down = np.concatenate([10.0 ** rng.uniform(-300, 300, 2000), [0.0, 1.0, -3.0, math.nan, 5e-324]])
        up = np.concatenate([down[:2000] * rng.uniform(-1.5, 1.5, 2000), [0.0, -1.0, 1.0, 1.0, 0.0]])
        array_ratio = rates.RateSet(down, up).ratio
        for gd, gu, expected in zip(down.tolist(), up.tolist(), array_ratio.tolist()):
            value = rates.RateSet(gd, gu).ratio
            scalar = rates.RateSet(np.float64(gd), np.float64(gu)).ratio
            assert type(value) is float
            assert struct.pack("<d", value) == struct.pack("<d", scalar) == struct.pack("<d", expected)


class TestLorentzianOverflow:
    @pytest.mark.parametrize("omega_c", [1.0e160, 1.0e300])
    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
    def test_far_cavity_gives_finite_rates(self, engine, omega_c):
        # the plain Lorentzian overflowed here: gamma_down was nan with
        # validity ok, and numpy warned (an error under this suite)
        for params in (FAST, SLOW):
            cavity = CavitySpec(omega_c=omega_c, q_factor=1.0e7, volume=params["cavity"].volume)
            rs = engine(params["traj"], params["atom"], cavity)
            values = [getattr(rs, f) for f in RATE_FIELDS if getattr(rs, f) is not None]
            assert all(type(v) is float and math.isfinite(v) for v in values), rs
            assert 0.0 <= rs.gamma_down < 1e-150


class TestNonFiniteRates:
    # omega0 = omega_c = 8e-191 rad/s at Q = 2.6e121: the Lorentzian's peak
    # Q / omega_c is past the float range. The rates were inf and nan, and
    # the CLI printed them with validity ok
    TINY = dict(
        traj=TrajectoryParams(radius=1e-6, omega=1e-192),
        atom=AtomParams(omega0=8.0e-191, dipole=DEFAULT_DIPOLE, theta0=1.0),
        cavity=CavitySpec(omega_c=8.0e-191, q_factor=2.6e121, volume=1e-6),
    )

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
    def test_a_rate_past_the_float_range_raises_naming_it(self, engine):
        with pytest.raises(NumericsError, match=r"^gamma_down = (inf|nan) is not finite$"):
            engine(**self.TINY)

    def test_an_array_raises_at_its_first_entry_past_the_float_range(self):
        cavity = self.TINY["cavity"]._replace(omega_c=np.array([7e-191, 8e-191, 9e-191]))
        with pytest.raises(NumericsError, match=r"^gamma_down = inf is not finite$"):
            lab_rates_general(self.TINY["traj"], self.TINY["atom"], cavity)
        finite = cavity._replace(omega_c=np.array([7e-191, 9e-191]))
        rates = lab_rates_general(self.TINY["traj"], self.TINY["atom"], finite)
        assert np.isfinite(rates.gamma_down).all()


# the worst relative error each ``general`` rate may have against the exact
# transcription of its formula on the float inputs
GENERAL_RATE_GATES = {"gamma_down": 2e-15, "gamma_down_inertial": 1e-13, "gamma_up": 1e-13}
# the same for each preset's own family, about three times the worst error
# read: each non-inertial rate is a sum of terms, and case2 has no upward rate
CASE_RATE_GATES = {
    "case1": {"gamma_down": 1e-15, "gamma_down_inertial": 1e-15, "gamma_down_ni": 1e-13,
              "gamma_up": 1e-13},
    "case2": {"gamma_down": 1e-15, "gamma_down_inertial": 1e-15, "gamma_down_ni": 3e-12,
              "gamma_up": 0.0},
}


@functools.lru_cache(maxsize=None)
def grid_errors(family: str) -> dict:
    """The worst relative error of each rate of a ``family`` sweep against
    ``exact_rates``: over both presets' default grids run as ``general``,
    and over its own preset's default grid for ``case1`` and ``case2``; a
    rate whose exact value is 0 must be 0."""
    names = ("gamma_down", "gamma_down_inertial", "gamma_down_ni", "gamma_up")
    worst = dict.fromkeys(names, 0.0)
    for name in ("case1", "case2") if family == "general" else (family,):
        scenario = preset(name)._replace(family=family)
        traj, atom, cavity = scenario.trajectory, scenario.atom, scenario.cavity
        for row in sweep_cavity(scenario).rows:
            exact = exact_rates(
                traj, atom, CavitySpec(row[0], cavity.q_factor, cavity.volume), family
            )
            for key, got in zip(names, row[1:5]):
                gap = abs(Decimal(got) - exact[key])
                if exact[key]:
                    error = float(gap / abs(exact[key]))
                else:
                    error = math.inf if gap else 0.0
                worst[key] = max(worst[key], error)
    return worst


@pytest.mark.parametrize("family", CASE_RATE_GATES)
def test_case_rates_meet_their_gates_on_their_default_grid(family):
    worst = grid_errors(family)
    for key, gate in CASE_RATE_GATES[family].items():
        assert worst[key] <= gate, (key, worst)


class TestGeneralRatesExact:
    def test_rates_meet_their_gates_on_both_default_grids(self):
        worst = grid_errors("general")
        for key, gate in GENERAL_RATE_GATES.items():
            assert worst[key] <= gate, (key, worst)

    def test_noninertial_rate_within_1e_12_on_both_default_grids(self):
        assert grid_errors("general")["gamma_down_ni"] <= 1e-12

    def test_noninertial_rate_within_1e_12_on_200_seeded_scenarios(self):
        # the remainder gamma_down - inertial it replaced missed 1e-12 on 171
        # of the first 200 points, by up to 1.7 (a wrong sign); gamma_up read
        # dos at the rounded lab lower sideband and missed it by up to 2.3e-10
        # on the last 100, where omega_c sits on that sideband
        worst = dict.fromkeys(("gamma_down_ni", "gamma_up"), (0.0,))
        points = [*seeded_general_points(1601, 200), *seeded_general_points(1602, 100, True)]
        for traj, atom, cavity in points:
            got = general_rates(traj, atom, cavity)
            exact = exact_rates(traj, atom, cavity, "general")
            swept = general_rates(traj, atom, cavity._replace(omega_c=np.array([cavity.omega_c])))
            for key in worst:
                value = getattr(got, key)
                gap = abs(Decimal(value) - exact[key])
                error = float(gap / abs(exact[key])) if exact[key] else math.inf if gap else 0.0
                worst[key] = max(worst[key], (error, traj, atom, cavity), key=lambda e: e[0])
                swept_value = np.broadcast_to(getattr(swept, key), (1,))[0]
                assert struct.pack("<d", swept_value) == struct.pack("<d", value), key
        for key, error in worst.items():
            assert error[0] <= 1e-12, (key, error)

    @pytest.mark.xfail(strict=True, reason="the recoil closed form loses digits far above the gap")
    def test_noninertial_rate_within_1e_12_far_above_the_gap(self):
        # case2's orbit with omega_c = 1e5 omega0 at Q = 1e7: in the recoil
        # closed form 2 d n and m (D(d) + omega**2) cancel to about omega0 /
        # omega_c of their size, 6.1e-11 off here (5.1e-14 at 1e3 omega0,
        # 0.24 at 1e15 omega0), all with validity ok
        scenario = preset("case2")
        traj, atom = scenario.trajectory, scenario.atom
        cavity = CavitySpec(1e5 * atom.omega0, 1.0e7, scenario.cavity.volume)
        got = general_rates(traj, atom, cavity).gamma_down_ni
        exact = exact_rates(traj, atom, cavity, "general")["gamma_down_ni"]
        assert abs(Decimal(got) - exact) <= Decimal(1e-12) * abs(exact), got


def seeded_general_points(seed: int, count: int, lab_lower: bool = False):
    """(trajectory, atom, cavity) of ``count`` general-family points: omega0
    from 1e6 to 1e8 rad/s; a slow or a fast orbit in turn (omega / omega0
    from 1e-3 to 0.3, or 3 to 100) at a squared rim speed zeta from 1e-16 to
    1e-3; Q from 1e2 to 1e7; and omega_c in turn within five linewidths of
    omega0, within five of the upper sideband omega0_bar + omega, and 2 to 30
    times above or below omega0. With ``lab_lower`` every orbit is fast and
    omega_c lies within five linewidths of the lab lower sideband omega -
    omega0_bar, the upward channel's."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        omega0 = 10.0 ** rng.uniform(6.0, 8.0)
        slow = k % 2 == 0 and not lab_lower
        omega = omega0 * 10.0 ** (rng.uniform(-3.0, -0.5) if slow else rng.uniform(0.5, 2.0))
        zeta = 10.0 ** rng.uniform(-16.0, -3.0)
        q_factor = 10.0 ** rng.uniform(2.0, 7.0)
        traj = TrajectoryParams(math.sqrt(zeta) * SPEED_OF_LIGHT / omega, omega)
        atom = AtomParams(omega0, DEFAULT_DIPOLE, 1.0)
        kin = derive_kinematics(traj, atom)
        line = kin.omega_minus if lab_lower else (omega0, kin.obar_plus, None)[k % 3]
        if line is None:
            omega_c = omega0 * 10.0 ** (rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.5))
        else:
            omega_c = line * (1.0 + rng.uniform(-5.0, 5.0) / q_factor)
        yield traj, atom, CavitySpec(omega_c, q_factor, 1.0e-6)
