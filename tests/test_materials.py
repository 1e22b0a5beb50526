import io
import math
from importlib import resources

import numpy as np
import pytest

from spdsim import materials
from spdsim.materials import (DispersionError, MaterialDispersion, Polarization,
                              index_at, load_dispersion)

HEADER = "# test data, synthetic\n"


def load_text(text, name="test"):
    return load_dispersion(io.StringIO(text), name=name)


class TestLoadDispersion:
    def test_minimal_valid_file(self):
        mat = load_text(HEADER + "1000,2.1,0.0\n1550,2.0,0.0\n")
        assert mat.axes == 1
        assert mat.wavelength_nm.tolist() == [1000.0, 1550.0]
        assert mat.n[0].tolist() == [2.1, 2.0]

    def test_negative_extinction_rejected_with_row(self):
        with pytest.raises(DispersionError, match=r"row 3.*negative extinction"):
            load_text(HEADER + "1000,2.1,0.0\n1550,2.0,-0.1\n")

    def test_negative_index_rejected(self):
        with pytest.raises(DispersionError, match="negative refractive index"):
            load_text(HEADER + "1000,-2.1,0.0\n")

    def test_unsorted_rejected(self):
        with pytest.raises(DispersionError, match="strictly increasing"):
            load_text(HEADER + "1550,2.0,0.0\n1000,2.1,0.0\n")

    def test_missing_header_rejected(self):
        with pytest.raises(DispersionError, match="provenance header"):
            load_text("1000,2.1,0.0\n")

    @pytest.mark.parametrize("text", ["#\n1000,2.0,0.0\n", "#  \n# \n1000,2.0,0.0\n"])
    def test_blank_header_rejected(self, text):
        with pytest.raises(DispersionError, match="missing provenance header"):
            load_text(text)

    def test_comment_after_data_rejected(self):
        with pytest.raises(DispersionError, match="row 3: comment after the first data row"):
            load_text(HEADER + "1000,2.1,0.0\n# late note\n1550,2.0,0.0\n")

    def test_blank_header_line_between_others_kept(self):
        mat = load_text("# source\n#\n# method\n1000,2.0,0.0\n")
        assert mat.header == ("source", "", "method")

    def test_garbage_row_reports_line(self):
        with pytest.raises(DispersionError, match="row 2"):
            load_text(HEADER + "1000,two,0.0\n")

    def test_inconsistent_columns_rejected(self):
        with pytest.raises(DispersionError, match="column"):
            load_text(HEADER + "1000,2.1,0.0\n1550,2.0,0.0,3.0,0.1\n")

    @pytest.mark.parametrize("rows, message", [
        ("1000,2.1,0.0\n1550,nan,0.0\n", "row 3: non-finite value"),
        ("1000,2.1,0.0\n1550,2.0,inf\n", "row 3: non-finite value"),
        ("1000,2.1,0.0,3.3,-inf\n1550,2.0,0.0,3.1,0.0\n", "row 2: non-finite value"),
        ("nan,2.1,0.0\n", "row 2: non-finite value"),
        ("1000,2.1,0.0\n\n0,2.0,0.0\n", "row 4: wavelength not positive"),
        ("-5,-2.1,0.0\n", "row 2: wavelength not positive"),  # the first rule it breaks
        ("1000,2.1,0.0\n1000,2.0,0.0\n", "row 3: wavelengths not strictly increasing"),
    ], ids=["nan-n", "inf-k", "-inf-zigzag-k", "nan-wavelength", "zero-wavelength",
            "negative-wavelength-and-n", "repeated-wavelength"])
    def test_rule_faults_name_their_row(self, rows, message):
        with pytest.raises(DispersionError, match=f"^test: {message}$"):
            load_text(HEADER + rows)

    def test_a_parse_fault_is_found_before_a_rule_fault(self):
        # Rows are parsed and counted in one pass; the rules then run on the table.
        with pytest.raises(DispersionError, match="^test: row 3: inconsistent column count$"):
            load_text(HEADER + "1000,-2.1,0.0\n1550,2.0,0.0,3.0,0.1\n")

    def test_anisotropic_file(self):
        mat = load_text(HEADER + "1000,3.7,0.5,3.3,0.005\n2000,3.4,0.2,3.1,0.002\n")
        assert mat.is_anisotropic
        assert index_at(mat, 1000, Polarization.ZIGZAG) == pytest.approx(3.3 + 0.005j)


class TestMaterialDispersionRules:
    @pytest.mark.parametrize("field, index, value, message", [
        ("wl", 1, math.nan, "sample 1: non-finite value"),
        ("n", 2, math.inf, "sample 2: non-finite value"),
        ("k", 0, -math.inf, "sample 0: non-finite value"),
        ("wl", 0, 0.0, "sample 0: wavelength not positive"),
        ("wl", 2, 1500.0, "sample 2: wavelengths not strictly increasing"),
        ("n", 1, -0.5, "sample 1: negative refractive index"),
        ("k", 2, -0.1, "sample 2: negative extinction"),
    ], ids=["nan-wavelength", "inf-n", "-inf-k", "zero-wavelength", "repeated-wavelength",
            "negative-n", "negative-k"])
    def test_each_rule_names_its_sample(self, field, index, value, message):
        table = {"wl": [1000.0, 1500.0, 2000.0], "n": [2.0, 2.1, 2.2], "k": [0.0, 0.1, 0.2]}
        table[field][index] = value
        with pytest.raises(DispersionError, match=f"^rule: {message}$"):
            MaterialDispersion("rule", table["wl"], [table["n"]], [table["k"]])

    def test_first_faulty_sample_then_first_rule(self):
        # Sample 1 breaks three later rules and sample 2 the first: the first
        # faulty sample is named, with the first rule it breaks.
        with pytest.raises(DispersionError, match="^rule: sample 1: wavelength not positive$"):
            MaterialDispersion("rule", [1000.0, -1.0, 2000.0], [[2.0, -1.0, math.nan]],
                               [[0.0, 0.0, 0.0]])

    def test_zigzag_axis_is_checked(self):
        with pytest.raises(DispersionError, match="^bp: sample 0: negative extinction$"):
            MaterialDispersion("bp", [1000.0], [[3.7], [3.3]], [[0.5], [-0.005]])


class TestIndexAt:
    def test_exact_at_sample_points(self):
        mat = load_text(HEADER + "1000,2.0,0.1\n1500,2.5,0.2\n2000,3.0,0.3\n")
        assert index_at(mat, 1500) == 2.5 + 0.2j

    def test_linear_midpoint(self):
        mat = load_text(HEADER + "1000,2.0,0.0\n2000,3.0,0.0\n")
        assert index_at(mat, 1500).real == pytest.approx(2.5, abs=1e-12)

    def test_hand_computed_blend(self):
        # halfway between 1500 and 1600: 0.5/0.5 weights
        mat = load_text(HEADER + "1500,2.0,0.10\n1600,2.4,0.30\n")
        nk = index_at(mat, 1550)
        assert nk.real == pytest.approx(0.5 * 2.0 + 0.5 * 2.4, abs=1e-12)
        assert nk.imag == pytest.approx(0.5 * 0.10 + 0.5 * 0.30, abs=1e-12)

    def test_out_of_range_is_hard_error(self):
        mat = load_text(HEADER + "1000,2.0,0.0\n2000,3.0,0.0\n")
        with pytest.raises(ValueError, match="outside"):
            index_at(mat, 999.9)
        with pytest.raises(ValueError, match="outside"):
            index_at(mat, 2000.1)

    def test_isotropic_axes_identical(self):
        mat = load_text(HEADER + "1000,2.0,0.0\n2000,3.0,0.1\n")
        for wl in (1000, 1234.5, 2000):
            assert index_at(mat, wl, "armchair") == index_at(mat, wl, "zigzag")

    def test_unpolarized_on_anisotropic_rejected(self):
        bp = materials.bundled("bp")
        with pytest.raises(ValueError, match="unpolarized"):
            index_at(bp, 1550, Polarization.UNPOLARIZED)

    def test_interpolation_bounded_by_bracketing_samples(self):
        rng = np.random.default_rng(7)
        wl = np.sort(rng.uniform(500, 3000, 12))
        wl += np.arange(12) * 1e-6  # ensure strict ordering
        n = rng.uniform(1.0, 5.0, 12)
        k = rng.uniform(0.0, 2.0, 12)
        mat = MaterialDispersion("rand", wl, n[None, :], k[None, :], header=("synthetic",))
        for _ in range(200):
            q = rng.uniform(wl[0], wl[-1])
            i = np.searchsorted(wl, q)
            i = max(1, min(i, 11))
            nk = index_at(mat, q)
            assert min(n[i - 1], n[i]) - 1e-12 <= nk.real <= max(n[i - 1], n[i]) + 1e-12
            assert min(k[i - 1], k[i]) - 1e-12 <= nk.imag <= max(k[i - 1], k[i]) + 1e-12


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        mat = materials.bundled("bp")
        path = tmp_path / "bp_copy.csv"
        path.write_text((resources.files("spdsim") / "data" / "bp.csv").read_text(encoding="utf-8"),
                        encoding="utf-8")
        back = load_dispersion(path)
        np.testing.assert_allclose(back.wavelength_nm, mat.wavelength_nm, rtol=1e-12)
        np.testing.assert_allclose(back.n, mat.n, rtol=1e-12)
        np.testing.assert_allclose(back.k, mat.k, rtol=1e-12)
        assert back.header == mat.header


class TestBundledData:
    def test_hbn_at_design_wavelength(self):
        nk = index_at(materials.bundled("hbn"), 1550)
        assert 2.0 <= nk.real <= 2.3
        assert nk.imag == pytest.approx(0.0, abs=1e-9)

    def test_all_bundled_cover_1550(self):
        for name in materials.bundled_names():
            mat = materials.bundled(name)
            lo, hi = mat.wavelength_range
            assert lo <= 1550 <= hi, name
            assert mat.header, f"{name}: provenance header required"

    def test_bp_anisotropy_two_orders(self):
        bp = materials.bundled("bp")
        k_ac = index_at(bp, 1550, "armchair").imag
        k_zz = index_at(bp, 1550, "zigzag").imag
        assert k_ac / k_zz >= 100.0

    def test_unknown_bundled_name(self):
        with pytest.raises(KeyError):
            materials.bundled("unobtainium")

    def test_air_constant(self):
        assert index_at(materials.AIR, 1550) == 1.0 + 0.0j

    def test_tables_immutable_after_load(self):
        mat = materials.bundled("hbn")
        with pytest.raises((ValueError, RuntimeError)):
            mat.n[0, 0] = 9.9
