"""Package-level tests: public API surface, constants, error hierarchy."""

import ast
from pathlib import Path

import pytest

import repro
from repro import constants, errors

#: Packages that hold modules only; ``repro``, ``repro.lint`` and ``repro.obs``
#: define or bind names in their ``__init__``.
SUBPACKAGES = (
    "analysis", "codec", "core", "energy", "gpu",
    "graphics", "motion", "network", "sim", "workloads",
)


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_surface(self):
        """The README quickstart names must exist and be callable."""
        assert callable(repro.run_comparison)
        assert callable(repro.speedup_over)
        assert callable(repro.make_system)
        assert callable(repro.get_app)

    @pytest.mark.parametrize("package", SUBPACKAGES)
    def test_subpackage_init_is_docstring_only(self, package):
        """A name is imported from its defining module, never re-exported.

        A re-export layer in a subpackage ``__init__`` gives a name a second
        import path and counts as a reader of names nothing else reads.
        """
        init = Path(repro.__file__).parent / package / "__init__.py"
        body = ast.parse(init.read_text()).body
        assert len(body) == 1, f"repro.{package} holds more than its docstring"
        assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
        assert isinstance(body[0].value.value, str)


class TestConstants:
    def test_realtime_requirements(self):
        assert constants.MTP_LATENCY_REQUIREMENT_MS == 25.0
        assert constants.TARGET_FPS == 90.0
        assert constants.FRAME_BUDGET_MS == pytest.approx(1000.0 / 90.0)

    def test_sensor_and_display_latencies(self):
        assert constants.SENSOR_TRANSPORT_MS == 2.0
        assert constants.DISPLAY_SCANOUT_MS == 5.0

    def test_eccentricity_range(self):
        assert constants.MIN_ECCENTRICITY_DEG == 5.0
        assert constants.MAX_ECCENTRICITY_DEG == 90.0
        assert constants.CLASSIC_FOVEA_ECCENTRICITY_DEG == 5.0

    def test_uca_constants(self):
        assert constants.UCA_TILE_PX == 32
        assert constants.UCA_CYCLES_PER_TILE == 532
        assert constants.UCA_UNIT_COUNT == 2

    def test_mar_parameters_positive(self):
        assert constants.MAR_SLOPE_DEG_PER_DEG > 0
        assert constants.FOVEA_MAR_DEG > 0


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        for name in errors.__dict__:
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not errors.ReproError:
                if obj.__module__ == "repro.errors":
                    assert issubclass(obj, errors.ReproError), name

    def test_catchable_as_base(self):
        from repro.core.foveation import MARModel

        with pytest.raises(errors.ReproError):
            MARModel(slope=-1.0)
