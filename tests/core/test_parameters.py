"""Unit tests for parameters and parameter spaces."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.parameters import Parameter, ParameterSpace
from repro.exceptions import ConfigurationError


@pytest.fixture
def space() -> ParameterSpace:
    return ParameterSpace(
        [
            Parameter("alpha", 0.0, 1.0, unit="s"),
            Parameter("beta", 10.0, 20.0, unit="slots", integer=True),
        ]
    )


class TestParameter:
    def test_span_and_midpoint(self):
        parameter = Parameter("x", 2.0, 6.0)
        assert parameter.span == 4.0
        assert parameter.midpoint == 4.0

    def test_contains_and_clip(self):
        parameter = Parameter("x", 0.0, 1.0)
        assert parameter.contains(0.5)
        assert not parameter.contains(1.5)
        assert parameter.clip(1.5) == 1.0
        assert parameter.clip(-1.0) == 0.0

    def test_sample_grid_linear(self):
        grid = Parameter("x", 0.0, 1.0).sample_grid(5)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert len(grid) == 5

    def test_sample_grid_logarithmic_for_wide_positive_ranges(self):
        grid = Parameter("x", 0.001, 10.0).sample_grid(7)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_sample_grid_single_point_is_midpoint(self):
        assert Parameter("x", 2.0, 4.0).sample_grid(1)[0] == 3.0

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigurationError):
            Parameter("x", 2.0, 1.0)

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            Parameter("x", 0.0, float("inf"))

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Parameter("", 0.0, 1.0)


class TestParameterSpace:
    def test_dimension_and_names(self, space: ParameterSpace):
        assert space.dimension == 2
        assert space.names == ["alpha", "beta"]
        assert "alpha" in space and "gamma" not in space

    def test_bounds_format_for_scipy(self, space: ParameterSpace):
        assert space.bounds == [(0.0, 1.0), (10.0, 20.0)]

    def test_round_trip_dict_array(self, space: ParameterSpace):
        values = {"alpha": 0.25, "beta": 12.0}
        array = space.to_array(values)
        assert np.allclose(array, [0.25, 12.0])
        assert space.to_dict(array) == values

    def test_to_array_rejects_missing_and_unknown(self, space: ParameterSpace):
        with pytest.raises(ConfigurationError):
            space.to_array({"alpha": 0.5})
        with pytest.raises(ConfigurationError):
            space.to_array({"alpha": 0.5, "beta": 11.0, "gamma": 1.0})

    def test_to_dict_rejects_wrong_length(self, space: ParameterSpace):
        with pytest.raises(ConfigurationError):
            space.to_dict([1.0])

    def test_contains_and_clip(self, space: ParameterSpace):
        assert space.contains([0.5, 15.0])
        assert not space.contains([0.5, 25.0])
        assert np.allclose(space.clip([2.0, 5.0]), [1.0, 10.0])

    def test_midpoint(self, space: ParameterSpace):
        assert np.allclose(space.midpoint(), [0.5, 15.0])

    def test_grid_shape_and_coverage(self, space: ParameterSpace):
        grid = space.grid(4)
        assert grid.shape == (16, 2)
        assert grid[:, 0].min() == 0.0 and grid[:, 0].max() == 1.0
        assert grid[:, 1].min() == 10.0 and grid[:, 1].max() == 20.0

    def test_grid_and_axes_are_memoized_read_only(self, space: ParameterSpace):
        grid, axes = space.grid(4), space.axes(4)
        assert space.grid(4) is grid and space.axes(4) is axes
        assert [axis.tolist() for axis in axes] == [p.sample_grid(4).tolist() for p in space]
        for array in (grid, *axes):
            with pytest.raises(ValueError):
                array[0] = 0.5
        with pytest.raises(ValueError):
            space.grid(4)[:, 1] *= 2.0

    def test_grid_memo_follows_the_count(self, space: ParameterSpace):
        assert space.grid(3).shape == (9, 2)
        assert space.grid(4).shape == (16, 2)
        assert space.grid(3).tolist() == space.grid(3).tolist()

    def test_copies_rebuild_their_own_memos(self, space: ParameterSpace):
        grid = space.grid(4)
        copy = pickle.loads(pickle.dumps(space))
        assert copy.grid(4) is not grid and not copy.grid(4).flags.writeable
        assert copy.grid(4).tobytes() == grid.tobytes()

    def test_grid_size_guard(self):
        space = ParameterSpace([Parameter(f"p{i}", 0, 1) for i in range(4)])
        with pytest.raises(ConfigurationError):
            space.grid(100)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterSpace([Parameter("x", 0, 1), Parameter("x", 0, 2)])

    def test_empty_space_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterSpace([])

    def test_getitem_and_describe(self, space: ParameterSpace):
        assert space["beta"].integer is True
        described = space.describe()
        assert described[0]["name"] == "alpha"
        with pytest.raises(ConfigurationError):
            space["gamma"]
