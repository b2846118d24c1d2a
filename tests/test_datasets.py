import math

import numpy as np
import pytest

from mixevidence.datasets import (
    D1_SPEC,
    D2_SPEC,
    DatasetFormatError,
    MixtureSpec,
    builtin_dataset,
    generate_dataset,
    load_dataset,
)
from mixevidence.numerics import RngStream


class TestSpecs:
    def test_d1_moments(self):
        assert D1_SPEC.mean == pytest.approx(0.3 * -1 + 0.7 * 5)
        # var = sum w (s^2 + m^2) - mean^2
        expected = 0.3 * (1 + 1) + 0.7 * (4 + 25) - 3.2**2
        assert D1_SPEC.variance == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            MixtureSpec((0.5, 0.6), (0.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            MixtureSpec((0.5, 0.5), (0.0, 1.0), (1.0, 0.0))


class TestGenerate:
    def test_d1_sample_mean(self):
        data = generate_dataset("d1", rng=RngStream(0).substream("dataset"))
        assert data.n == 60
        se = math.sqrt(D1_SPEC.variance / 60)
        assert abs(data.observations.mean() - D1_SPEC.mean) < 3 * se

    def test_d2_range_soft_bounds(self):
        data = generate_dataset("d2", rng=1)
        assert data.n == 80
        assert data.observations.min() > -5 - 6
        assert data.observations.max() < 6 + 6

    def test_single_component_is_gaussian_sample(self):
        spec = MixtureSpec((1.0,), (2.0,), (0.5,))
        data = generate_dataset(spec, n=5_000, rng=2)
        assert abs(data.observations.mean() - 2.0) < 3 * 0.5 / math.sqrt(5_000)
        assert abs(data.observations.std() - 0.5) < 0.03

    def test_deterministic_per_seed(self):
        a = generate_dataset("d2", rng=7)
        b = generate_dataset("d2", rng=7)
        np.testing.assert_array_equal(a.observations, b.observations)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            generate_dataset("d9")


class TestLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("# header comment\n1.5\n2.5  # trailing comment\n\n-3.0\n")
        data = load_dataset(path)
        np.testing.assert_array_equal(data.observations, [1.5, 2.5, -3.0])
        assert data.name == "values"

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(DatasetFormatError, match="bad.txt:2"):
            load_dataset(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"1.0\n2.0\n{value}\n")
        with pytest.raises(DatasetFormatError, match="bad.txt:3"):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(DatasetFormatError, match="no numeric"):
            load_dataset(path)


class TestBuiltins:
    def test_galaxy(self):
        data = builtin_dataset("galaxy")
        assert data.n == 82
        # velocities in 1000 km/s: bracketed by the known extremes
        assert data.observations.min() == pytest.approx(9.172)
        assert data.observations.max() == pytest.approx(34.279)

    def test_fishery(self):
        data = builtin_dataset("fishery")
        assert data.n == 256
        assert 2.0 < data.observations.min() < data.observations.max() < 12.0

    def test_d1_passthrough(self):
        data = builtin_dataset("d1", rng=3)
        assert data.n == 60

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_dataset("nope")
