import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bounce_series_rt, characteristic_matrix
from spdsim import device, materials, tmm
from spdsim.materials import MaterialDispersion, Polarization, index_at
from spdsim.tmm import (Layer, LayerStack, absorption_map, optimize_thicknesses,
                        stack_response, thickness_grid)


def const(name, n, k=0.0):
    return MaterialDispersion.constant(name, n, k)


def simple_stack(layer_specs, n_exit=1.0, k_exit=0.0):
    layers = tuple(Layer(const(f"m{i}", n, k), d) for i, (n, k, d) in enumerate(layer_specs))
    return LayerStack(layers=layers, exit=const("exit", n_exit, k_exit))


class TestCharacteristicMatrix:
    def test_zero_thickness_is_identity(self):
        m = characteristic_matrix(Layer(const("a", 2.5, 0.3), 0.0), 1550.0)
        np.testing.assert_allclose(m, np.eye(2), atol=1e-15)

    def test_half_wave_is_minus_identity(self):
        # lossless, delta = pi: d = lambda / (2 n)
        m = characteristic_matrix(Layer(const("a", 2.0), 1550.0 / 4.0), 1550.0)
        np.testing.assert_allclose(m, -np.eye(2), atol=1e-12)

    def test_eighth_wave_antidiagonal(self):
        # n = 2, d = lambda/8 -> delta = 2 pi n d / lambda = pi/2:
        # anti-diagonal entries i/eta and i*eta
        m = characteristic_matrix(Layer(const("a", 2.0), 1550.0 / 8.0), 1550.0)
        np.testing.assert_allclose(np.diag(m), 0, atol=1e-12)
        assert m[0, 1] == pytest.approx(1j / 2.0, abs=1e-12)
        assert m[1, 0] == pytest.approx(2.0j, abs=1e-12)

    def test_determinant_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            layer = Layer(const("a", rng.uniform(1, 5), rng.uniform(0, 2)),
                          rng.uniform(0, 500))
            m = characteristic_matrix(layer, 1550.0)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)

    def test_negative_thickness_rejected(self):
        with pytest.raises(ValueError):
            Layer(const("a", 2.0), -1.0)


class TestStackResponse:
    def test_bare_fresnel_interface(self):
        resp = stack_response(simple_stack([], n_exit=3.0), 1550.0)
        assert resp.reflectance == pytest.approx(0.25, abs=1e-12)
        assert resp.transmittance == pytest.approx(0.75, abs=1e-12)
        assert resp.layer_absorptance.size == 0

    def test_lossless_stack_absorbs_nothing(self):
        stack = simple_stack([(1.5, 0.0, 120.0), (2.3, 0.0, 310.0)], n_exit=1.5)
        resp = stack_response(stack, 1550.0)
        assert abs(resp.layer_absorptance).max() < 1e-12
        assert resp.reflectance + resp.transmittance == pytest.approx(1.0, abs=1e-12)

    def test_energy_conservation_random_lossy_stacks(self):
        # 1000 random stacks, |1 - (R+T+sum A)| < 1e-9, in under 5 s
        rng = np.random.default_rng(42)
        start = time.time()
        worst = 0.0
        for _ in range(1000):
            n_layers = rng.integers(1, 7)
            specs = [(rng.uniform(1, 5), rng.uniform(0, 2), rng.uniform(0, 500))
                     for _ in range(n_layers)]
            stack = simple_stack(specs, n_exit=rng.uniform(1, 4), k_exit=rng.uniform(0, 1))
            resp = stack_response(stack, 1550.0)
            worst = max(worst, abs(resp.conservation_error))
            assert resp.layer_absorptance.min() > -1e-12
        assert worst < 1e-9
        assert time.time() - start < 5.0

    def test_matches_bounce_series_oracle(self):
        rng = np.random.default_rng(11)
        for n_layers in (1, 2, 3):
            for _ in range(40):
                specs = [(rng.uniform(1, 5), rng.uniform(0, 1.5), rng.uniform(0, 400))
                         for _ in range(n_layers)]
                n_exit, k_exit = rng.uniform(1, 4), rng.uniform(0, 1)
                stack = simple_stack(specs, n_exit, k_exit)
                resp = stack_response(stack, 1550.0)
                ref_r, ref_t = bounce_series_rt(
                    1.0, [(complex(n, k), d) for n, k, d in specs],
                    complex(n_exit, k_exit), 1550.0)
                assert resp.reflectance == pytest.approx(ref_r, abs=1e-8)
                assert resp.transmittance == pytest.approx(ref_t, abs=1e-8)

    def test_layer_absorption_partition_against_oracle(self):
        # with exactly one lossy layer, its absorptance must equal
        # 1 - R - T from the independent bounce-series oracle
        rng = np.random.default_rng(23)
        for _ in range(40):
            n_layers = int(rng.integers(1, 4))
            lossy = int(rng.integers(0, n_layers))
            specs = [(rng.uniform(1, 5), rng.uniform(0.1, 1.5) if i == lossy else 0.0,
                      rng.uniform(10, 400)) for i in range(n_layers)]
            n_exit = rng.uniform(1, 4)
            stack = simple_stack(specs, n_exit)
            resp = stack_response(stack, 1550.0)
            ref_r, ref_t = bounce_series_rt(
                1.0, [(complex(n, k), d) for n, k, d in specs], complex(n_exit), 1550.0)
            assert resp.layer_absorptance[lossy] == pytest.approx(
                1.0 - ref_r - ref_t, abs=1e-8)
            others = np.delete(resp.layer_absorptance, lossy)
            if others.size:
                assert abs(others).max() < 1e-12

    def test_zero_thickness_layer_is_transparent(self):
        specs = [(2.0, 0.3, 150.0), (3.5, 0.1, 80.0)]
        base = stack_response(simple_stack(specs, 2.5), 1550.0)
        padded_specs = [specs[0], (4.2, 1.3, 0.0), specs[1]]
        padded = stack_response(simple_stack(padded_specs, 2.5), 1550.0)
        assert padded.reflectance == pytest.approx(base.reflectance, abs=1e-12)
        assert padded.transmittance == pytest.approx(base.transmittance, abs=1e-12)
        assert padded.layer_absorptance[1] == pytest.approx(0.0, abs=1e-12)

    def test_lossless_reciprocity_of_transmittance(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            specs = [(rng.uniform(1, 5), 0.0, rng.uniform(0, 500)) for _ in range(4)]
            n_in, n_out = rng.uniform(1.0, 2.0), rng.uniform(1.0, 4.0)
            fwd = LayerStack(
                layers=tuple(Layer(const(f"m{i}", n), d) for i, (n, _, d) in enumerate(specs)),
                incident=const("in", n_in), exit=const("out", n_out))
            rev = LayerStack(layers=tuple(reversed(fwd.layers)),
                             incident=const("out", n_out), exit=const("in", n_in))
            t_fwd = stack_response(fwd, 1550.0).transmittance
            t_rev = stack_response(rev, 1550.0).transmittance
            assert t_fwd == pytest.approx(t_rev, abs=1e-10)

    def test_thick_gold_is_opaque(self):
        stack = LayerStack(layers=(Layer(materials.bundled("au"), 200.0),),
                           exit=materials.bundled("si"))
        assert stack_response(stack, 1550.0).transmittance < 1e-6

    @pytest.mark.parametrize("axis", ["armchair", "zigzag"])
    def test_matches_characteristic_matrix_product(self, axis):
        # The bundled, anisotropic device stack against the product of the
        # oracle's per-layer matrices: (B, C) = M_1 ... M_n (1, eta_exit).
        stack = device.device_stack()
        product = np.eye(2)
        for layer in stack.layers:
            product = product @ characteristic_matrix(layer, 1550.0, axis)
        eta_in = index_at(stack.incident, 1550.0, axis).real
        eta_exit = np.conj(index_at(stack.exit, 1550.0, axis))
        b, c = product @ np.array([1.0, eta_exit])
        resp = stack_response(stack, 1550.0, axis)
        assert resp.reflectance == pytest.approx(
            abs((eta_in * b - c) / (eta_in * b + c)) ** 2, abs=1e-12)
        assert resp.transmittance == pytest.approx(
            4 * eta_in * eta_exit.real / abs(eta_in * b + c) ** 2, abs=1e-12)

    def test_lossy_incident_medium_rejected(self):
        stack = LayerStack(layers=(Layer(const("a", 2.0), 100.0),),
                           incident=const("bad", 1.5, 0.2), exit=const("out", 1.0))
        with pytest.raises(ValueError, match="lossless"):
            stack_response(stack, 1550.0)

    @pytest.mark.parametrize("au_nm", [10_000.0, 20_000.0])
    def test_overflowing_stack_raises_instead_of_inf_or_nan(self, au_nm):
        # Im(delta) of 10 um of Au at 1550 nm is ~435: T comes out -inf and
        # the absorptances below the Au NaN; at 20 um every number is NaN.
        stack = device.device_stack()
        layers = list(stack.layers)
        assert layers[5].material.name == "au"
        layers[5] = replace(layers[5], thickness_nm=au_nm)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            stack_response(replace(stack, layers=tuple(layers)), 1550.0, "unpolarized")

    def test_out_of_range_wavelength_propagates(self):
        with pytest.raises(ValueError, match="outside"):
            stack_response(device.device_stack(), 900.0)


class TestUnpolarized:
    def test_mean_of_axes(self):
        stack = device.device_stack()
        ac = stack_response(stack, 1550.0, "armchair")
        zz = stack_response(stack, 1550.0, "zigzag")
        unpol = stack_response(stack, 1550.0, "unpolarized")
        np.testing.assert_allclose(
            unpol.layer_absorptance, 0.5 * (ac.layer_absorptance + zz.layer_absorptance),
            atol=1e-15)
        assert unpol.reflectance == pytest.approx(0.5 * (ac.reflectance + zz.reflectance),
                                                  abs=1e-15)

    def test_isotropic_stack_unaffected(self):
        stack = simple_stack([(2.0, 0.3, 200.0)], n_exit=3.0)
        unpol = stack_response(stack, 1550.0, Polarization.UNPOLARIZED)
        ac = stack_response(stack, 1550.0, "armchair")
        assert unpol.reflectance == pytest.approx(ac.reflectance, abs=1e-15)
        np.testing.assert_allclose(unpol.layer_absorptance, ac.layer_absorptance, atol=1e-15)


class TestAbsorptionMap:
    def test_degenerate_grid_single_cell(self):
        stack = device.device_stack()
        grid = absorption_map(stack, [120.0], [60.0], 1550.0, "armchair")
        direct = stack_response(device.device_stack(120.0, 60.0), 1550.0, "armchair")
        assert grid.shape == (1, 1)
        assert grid[0, 0] == pytest.approx(direct.layer_absorptance[1], abs=1e-15)

    def test_fabry_perot_period(self):
        from scipy.signal import find_peaks
        stack = device.device_stack()
        bottoms = np.arange(0.0, 801.0, 1.0)
        grid = absorption_map(stack, [device.DEFAULT_TOP_HBN_NM], bottoms, 1550.0, "armchair")
        peaks, _ = find_peaks(grid[0])
        assert peaks.size >= 2
        spacing = np.diff(bottoms[peaks]).mean()
        n_hbn = index_at(materials.bundled("hbn"), 1550.0).real
        assert spacing == pytest.approx(1550.0 / (2 * n_hbn), rel=0.05)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            absorption_map(device.device_stack(), [], [10.0], 1550.0)

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            absorption_map(device.device_stack(), [10.0, 5.0], [10.0], 1550.0)

    def test_negative_grid_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            absorption_map(device.device_stack(), [-1.0, 5.0], [10.0], 1550.0)

    @pytest.mark.parametrize("axis", ["armchair", "zigzag", "unpolarized"])
    @pytest.mark.parametrize("anisotropic", [True, False])
    def test_matches_per_cell_stack_response(self, axis, anisotropic):
        rng = np.random.default_rng(7)
        absorber = materials.bundled("bp") if anisotropic else const("abs", 3.2, 0.8)
        for _ in range(4):
            specs = [(rng.uniform(1, 4), rng.uniform(0, 0.5), rng.uniform(0, 300))
                     for _ in range(3)]
            layers = [Layer(const(f"m{i}", n, k), d) for i, (n, k, d) in enumerate(specs)]
            layers.insert(1, Layer(absorber, rng.uniform(1, 30)))
            stack = LayerStack(layers=tuple(layers),
                               exit=const("exit", rng.uniform(1, 4), rng.uniform(0, 1)))
            sweep = (0, 3, 1)  # explicit: no layer is named hbn
            tops, bottoms = rng.uniform(0, 400, 5).cumsum(), rng.uniform(0, 200, 4).cumsum()
            grid = absorption_map(stack, tops, bottoms, 1550.0, axis, sweep_layers=sweep)
            for a, t_top in enumerate(tops):
                for b, t_bottom in enumerate(bottoms):
                    cell = replace(stack, layers=(replace(layers[0], thickness_nm=t_top),
                                                  *layers[1:3],
                                                  replace(layers[3], thickness_nm=t_bottom)))
                    resp = stack_response(cell, 1550.0, axis)
                    assert grid[a, b] == pytest.approx(resp.layer_absorptance[1], abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(1.0, 5.0), st.floats(0.0, 2.0), st.floats(0.0, 500.0)),
                    min_size=2, max_size=6),
           st.floats(1.0, 4.0), st.floats(0.0, 1.0),
           st.lists(st.floats(0.0, 500.0), min_size=1, max_size=5, unique=True),
           st.lists(st.floats(0.0, 500.0), min_size=1, max_size=5, unique=True))
    def test_energy_conservation_property(self, specs, n_exit, k_exit, tops, bottoms):
        stack = simple_stack(specs, n_exit, k_exit)
        error = np.empty((len(tops), len(bottoms)))
        absorption_map(stack, sorted(tops), sorted(bottoms), 1550.0,
                       sweep_layers=(0, len(specs) - 1, 0), conservation_error=error)
        assert error.max() < 1e-9

    def test_default_spacers_are_the_default_map_optimum(self):
        grid = thickness_grid(0.0, 400.0, 2.0)
        a_bp = absorption_map(device.device_stack(), grid, grid, 1550.0, "armchair")
        a, b = np.unravel_index(int(np.argmax(a_bp)), a_bp.shape)
        assert (grid[a], grid[b]) == (device.DEFAULT_TOP_HBN_NM, device.DEFAULT_BOTTOM_HBN_NM)


class TestThicknessGrid:
    def test_default_grid_keeps_its_201_values(self):
        np.testing.assert_array_equal(thickness_grid(0.0, 400.0, 2.0),
                                      np.append(np.arange(0.0, 400.0, 2.0), 400.0))

    def test_step_point_at_the_upper_bound_is_not_repeated(self):
        # np.arange(1, 1.3, 0.1) already ends within rounding of 1.3
        grid = thickness_grid(1.0, 1.3, 0.1)
        assert grid.size == 4 and grid[-1] == 1.3
        assert np.all(np.diff(grid) > 0)

    def test_collapsed_and_coarse_ranges(self):
        np.testing.assert_array_equal(thickness_grid(5.0, 5.0, 2.0), [5.0])
        np.testing.assert_array_equal(thickness_grid(0.0, 1.0, 5.0), [0.0, 1.0])


class TestOptimize:
    def test_collapsed_bounds_return_that_point(self):
        stack = device.device_stack()
        opt = optimize_thicknesses(stack, (100.0, 100.0), (50.0, 50.0), 1550.0)
        assert opt.top_nm == 100.0 and opt.bottom_nm == 50.0
        direct = absorption_map(stack, [100.0], [50.0], 1550.0)[0, 0]
        assert opt.absorptance == pytest.approx(direct, abs=1e-15)

    def test_quarter_wave_cavity_analytic_optimum(self):
        # Ultra-thin absorber over a lossless spacer on a near-perfect mirror:
        # the field antinode sits a quarter wave above the mirror, so the
        # optimal spacer is lambda / (4 n_spacer).
        n_spacer = 2.0
        stack = LayerStack(
            layers=(Layer(const("top", 1.0), 0.0),
                    Layer(materials.bundled("bp"), 0.1),
                    Layer(const("hbn_like", n_spacer), 100.0)),
            exit=const("mirror", 1e6))
        opt = optimize_thicknesses(stack, (0.0, 0.0), (60.0, 350.0), 1550.0,
                                   axis="armchair", coarse_step_nm=2.0,
                                   sweep_layers=(0, 2, 1))
        assert opt.bottom_nm == pytest.approx(1550.0 / (4 * n_spacer), abs=1.0)

    def test_optimum_dominates_coarse_grid_and_baseline(self):
        stack = device.device_stack()
        tops = np.arange(0.0, 401.0, 8.0)
        bottoms = np.arange(0.0, 401.0, 8.0)
        grid = absorption_map(stack, tops, bottoms, 1550.0, "armchair")
        opt = optimize_thicknesses(stack, (0.0, 400.0), (0.0, 400.0), 1550.0,
                                   coarse_step_nm=8.0)
        assert opt.absorptance >= grid.max() - 1e-12
        no_top_baseline = grid[0].max()  # the t_top = 0 map edge
        assert opt.absorptance > no_top_baseline

    def test_lands_on_dense_map_maximum(self):
        # A 0.005 nm map of +-0.2 nm around the optimum: the optimum lies within
        # 0.05 nm of its argmax, and is the best of the map's cells that fall on
        # the optimizer's fine lattice (coarse step / 100). At 2 nm that lattice
        # holds the argmax itself.
        stack = device.device_stack()
        for step in (2.0, 4.0, 8.0):
            opt = optimize_thicknesses(stack, (0.0, 400.0), (0.0, 400.0), 1550.0,
                                       coarse_step_nm=step)
            tops = thickness_grid(opt.top_nm - 0.2, opt.top_nm + 0.2, 0.005)
            bottoms = thickness_grid(opt.bottom_nm - 0.2, opt.bottom_nm + 0.2, 0.005)
            assert abs(tops[40] - opt.top_nm) < 1e-9 and abs(bottoms[40] - opt.bottom_nm) < 1e-9
            dense = absorption_map(stack, tops, bottoms, 1550.0)
            i, j = np.unravel_index(int(np.argmax(dense)), dense.shape)
            assert abs(tops[i] - opt.top_nm) <= 0.05 and abs(bottoms[j] - opt.bottom_nm) <= 0.05
            k = round(step / 100 / 0.005)  # the fine step in dense cells
            assert opt.absorptance >= dense[40 % k::k, 40 % k::k].max() - 1e-12

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            optimize_thicknesses(device.device_stack(), (10.0, 5.0), (0.0, 10.0), 1550.0)
        with pytest.raises(ValueError):
            optimize_thicknesses(device.device_stack(), (0.0, np.inf), (0.0, 10.0), 1550.0)


class TestDeviceStack:
    def test_layer_order(self):
        stack = device.device_stack()
        names = [lay.material.name for lay in stack.layers]
        assert names == ["hbn", "bp", "mos2", "wse2", "hbn", "au", "ti", "sio2"]
        assert stack.exit.name == "si"

    def test_armchair_absorption_near_reported_value(self):
        resp = stack_response(device.device_stack(), 1550.0, "armchair")
        assert 0.40 <= resp.layer_absorptance[1] <= 0.65
