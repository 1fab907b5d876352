"""Per-rule fixture tests: the positives fire, the negatives stay silent.

Each fixture file is linted under a synthetic ``src/repro/...`` path so
the path-scoped rules (VER001, ERR001) see it as in-scope.  The expected
findings pin not just the count but the lines, so a rule that silently
widens or narrows shows up here.
"""

from __future__ import annotations

from repro.analysis import lint_source

from tests.analysis.conftest import fixture_source


def lint_fixture(name: str, path: str, rules):
    return lint_source(fixture_source(name), path, rules)


class TestRngRule:
    def test_positive_fixture(self, rules):
        active, _ = lint_fixture("rng_positive.py", "src/repro/core/fake.py", rules)
        rng001 = [f for f in active if f.rule == "RNG001"]
        rng002 = [f for f in active if f.rule == "RNG002"]
        # random.random, random.randint, unseeded default_rng, np.random.normal,
        # np.random.permutation
        assert len(rng001) == 5
        # time.time, datetime.now, time.clock_gettime, time.perf_counter
        assert len(rng002) == 4
        assert any("unseeded" in f.message for f in rng001)
        assert any("clock_gettime" in f.message for f in rng002)
        assert {f.symbol for f in rng002} == {"measured_path"}

    def test_negative_fixture(self, rules):
        active, suppressed = lint_fixture(
            "rng_negative.py", "src/repro/core/fake.py", rules
        )
        assert active == [] and suppressed == []

    def test_suppressed_fixture(self, rules):
        active, suppressed = lint_fixture(
            "rng_suppressed.py", "src/repro/core/fake.py", rules
        )
        # Lines 7 and 9 carry documented exemptions; line 8 has no reason,
        # so its RNG002 finding stays active alongside the SUP001 finding.
        assert sorted(f.rule for f in suppressed) == ["RNG001", "RNG002"]
        assert sorted(f.rule for f in active) == ["RNG002", "SUP001"]


class TestVersionBumpRule:
    def test_positive_fixture(self, rules):
        active, _ = lint_fixture(
            "versioning_positive.py", "src/repro/ring/network.py", rules
        )
        ver = [f for f in active if f.rule == "VER001"]
        assert {f.symbol for f in ver} == {
            "Network.drop_pointer",
            "Network.conditional_bump",
            "Network.early_return",
            "Network.registry_edit",
            "Network.assigned_finger",
        }

    def test_negative_fixture(self, rules):
        active, _ = lint_fixture(
            "versioning_negative.py", "src/repro/ring/network.py", rules
        )
        assert [f for f in active if f.rule == "VER001"] == []

    def test_out_of_scope_path_not_checked(self, rules):
        active, _ = lint_fixture(
            "versioning_positive.py", "src/repro/core/fake.py", rules
        )
        assert [f for f in active if f.rule == "VER001"] == []


class TestAccumulationRule:
    def test_positive_fixture(self, rules):
        active, _ = lint_fixture(
            "accumulation_positive.py", "src/repro/core/fake.py", rules
        )
        sums = [f for f in active if f.rule == "SUM001"]
        # sum(set), sum(dict view), sum(genexp over dict view), math.fsum,
        # loop over set literal feeding +=, np.sum over a set-fed asarray,
        # np.nansum over a dict-view fromiter, .sum() on a set-fed array
        assert len(sums) == 8
        assert any("fsum" in f.message for f in sums)
        assert any("np.sum" in f.message for f in sums)
        assert any("np.nansum" in f.message for f in sums)
        assert any("`.sum()`" in f.message for f in sums)

    def test_negative_fixture(self, rules):
        active, _ = lint_fixture(
            "accumulation_negative.py", "src/repro/core/fake.py", rules
        )
        assert [f for f in active if f.rule == "SUM001"] == []


class TestRouteOutcomeRule:
    def test_positive_fixture(self, rules):
        active, _ = lint_fixture(
            "errors_positive.py", "src/repro/ring/routing.py", rules
        )
        errs = [f for f in active if f.rule == "ERR001"]
        assert len(errs) == 2
        assert any("promises a RouteOutcome" in f.message for f in errs)
        assert any("ad-hoc" in f.message for f in errs)

    def test_negative_fixture(self, rules):
        active, _ = lint_fixture(
            "errors_negative.py", "src/repro/ring/routing.py", rules
        )
        assert [f for f in active if f.rule == "ERR001"] == []

    def test_out_of_scope_path_not_checked(self, rules):
        active, _ = lint_fixture("errors_positive.py", "src/repro/core/fake.py", rules)
        assert [f for f in active if f.rule == "ERR001"] == []


class TestProbeExchangeSwallowRule:
    def test_positive_fixture(self, rules):
        active, _ = lint_fixture(
            "probe_errors_positive.py", "src/repro/core/cdf_sampling.py", rules
        )
        errs = [f for f in active if f.rule == "ERR002"]
        # except NetworkError: continue, blanket except Exception: pass,
        # bare except: return None
        assert len(errs) == 3
        assert {f.symbol for f in errs} == {"collect", "harvest", "drain"}
        assert any("bare" in f.message for f in errs)
        assert any("blanket" in f.message for f in errs)

    def test_negative_fixture(self, rules):
        active, _ = lint_fixture(
            "probe_errors_negative.py", "src/repro/core/estimator.py", rules
        )
        assert [f for f in active if f.rule == "ERR002"] == []

    def test_out_of_scope_path_not_checked(self, rules):
        # The ring layer legitimately consumes NetworkError internally
        # (maintenance best-effort paths); ERR002 scopes to the probe and
        # exchange modules only.
        active, _ = lint_fixture(
            "probe_errors_positive.py", "src/repro/ring/chord.py", rules
        )
        assert [f for f in active if f.rule == "ERR002"] == []
