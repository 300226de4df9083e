"""The unified analysis factory and the AnalysisMethod protocol."""

import pytest

from repro.core import (
    AdhocAnalysis,
    AnalysisMethod,
    FastPathConfig,
    MixedCriticalityAnalysis,
    NaiveAnalysis,
    make_analysis,
    make_backend,
)
from repro.errors import AnalysisError
from repro.sched.fast import FastWindowAnalysisBackend
from repro.sched.holistic import HolisticAnalysisBackend
from repro.sched.wcrt import WindowAnalysisBackend


class TestMakeBackend:
    def test_registry(self):
        assert isinstance(make_backend("window"), WindowAnalysisBackend)
        assert isinstance(make_backend("fast"), FastWindowAnalysisBackend)
        assert isinstance(make_backend("holistic"), HolisticAnalysisBackend)

    def test_unknown_name(self):
        with pytest.raises(AnalysisError, match="unknown sched backend"):
            make_backend("quantum")


class TestMakeAnalysis:
    def test_method_routing(self):
        assert isinstance(make_analysis("proposed"), MixedCriticalityAnalysis)
        assert isinstance(make_analysis("naive"), NaiveAnalysis)
        assert isinstance(make_analysis("adhoc"), AdhocAnalysis)

    def test_unknown_method(self):
        with pytest.raises(AnalysisError, match="unknown analysis method"):
            make_analysis("hopeful")

    def test_every_method_satisfies_protocol(self):
        for method in ("proposed", "naive", "adhoc"):
            assert isinstance(make_analysis(method), AnalysisMethod)

    def test_backend_by_name_or_instance(self):
        by_name = make_analysis("proposed", backend="holistic")
        assert isinstance(by_name._backend, HolisticAnalysisBackend)
        instance = WindowAnalysisBackend()
        by_instance = make_analysis("proposed", backend=instance)
        assert by_instance._backend is instance

    def test_fast_path_spellings(self):
        assert make_analysis("proposed")._fast_path is None
        for flag in (True, False):
            with pytest.raises(AnalysisError, match="FastPathConfig"):
                make_analysis("proposed", fast_path=flag)
        explicit = FastPathConfig(cache_size=7)
        assert make_analysis("proposed", fast_path=explicit)._fast_path is explicit

    def test_methods_interchangeable(self, hardened, architecture, mapping):
        """Every factory product runs the same analyze() call."""
        for method in ("proposed", "naive", "adhoc"):
            result = make_analysis(method).analyze(
                hardened, architecture, mapping, ("lo",)
            )
            assert set(result.verdicts) == {"hi", "lo"}
            assert result.verdicts["lo"].dropped


class TestForeignKwargs:
    def test_baselines_reject_options_they_do_not_take(self):
        """Options of other methods are the factory's to drop, not theirs."""
        with pytest.raises(TypeError, match="granularity"):
            NaiveAnalysis(granularity="task")
        with pytest.raises(TypeError, match="backend"):
            AdhocAnalysis(backend=WindowAnalysisBackend())
