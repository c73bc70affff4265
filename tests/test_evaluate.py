import csv
import math
import random
from fractions import Fraction

import pytest

from balcon import (
    Flavor,
    GapRecord,
    Host,
    Instance,
    ObjectiveWeights,
    ResourceVec,
    SolverParams,
    VM,
    gap,
    mean_gap,
    mph_sweep,
    performance_profile,
)
from balcon.evaluate import (
    evaluate_instance,
    resolve_reference,
    write_gaps_csv,
    write_profile_csv,
    write_sweep_csv,
)


# any base weights: mph_sweep sets each grid point's own
SWEEP_PARAMS = SolverParams(weights=ObjectiveWeights(1, 0))


def five_hosts() -> Instance:
    # five hosts exceed the oracle's default limit of four
    hosts = [Host(h, ResourceVec(4, 4)) for h in range(5)]
    return Instance(hosts, [Flavor(0, ResourceVec(1, 1))], [VM(v, 0) for v in range(5)], range(5))


def record(g, non_trivial=True, **kw):
    base = dict(
        instance_id="i",
        algorithm="balcon",
        ref_kind="oracle",
        alg_objective=0,
        ref_objective=0,
        init_objective=1,
        gap=None if g is None else Fraction(g),
        non_trivial=non_trivial,
    )
    base.update(kw)
    return GapRecord(**base)


class TestGap:
    def test_at_reference(self):
        assert gap(28, 28, 30) == 0

    def test_at_initial(self):
        assert gap(30, 28, 30) == 1

    def test_halfway(self):
        assert gap(29, 28, 30) == Fraction(1, 2)

    def test_undefined_when_no_improvement_possible(self):
        assert gap(30, 30, 30) is None

    def test_broken_reference_detected(self):
        with pytest.raises(ValueError, match="below the reference"):
            gap(27, 28, 30)

    def test_initial_below_reference_detected(self):
        with pytest.raises(ValueError, match="^initial objective is below the reference$"):
            gap(30, 28, 27)

    def test_fractional_inputs(self):
        assert gap(Fraction(5, 2), 2, 3) == Fraction(1, 2)


class TestPerformanceProfile:
    def test_all_optimal(self):
        records = [record(0) for _ in range(4)]
        series = performance_profile(records, [0, Fraction(1, 2), 1])
        assert all(fraction == 1 for _, fraction in series)

    def test_mixed(self):
        records = [record(0), record(Fraction(1, 2)), record(1)]
        series = dict(performance_profile(records, [Fraction(1, 2)]))
        assert series[Fraction(1, 2)] == Fraction(2, 3)

    def test_empty(self):
        assert performance_profile([], [0, 1]) == []

    def test_monotone_in_threshold(self):
        rng = random.Random(5)
        for _ in range(50):
            gaps = [Fraction(rng.randrange(0, 100), 100) for _ in range(rng.randrange(1, 20))]
            thresholds = sorted(Fraction(rng.randrange(0, 100), 100) for _ in range(10))
            series = performance_profile(gaps, thresholds)
            values = [fraction for _, fraction in series]
            assert values == sorted(values)

    def test_undefined_gaps_skipped(self):
        records = [record(None), record(0)]
        series = performance_profile(records, [0])
        assert series == [(Fraction(0), Fraction(1))]


class TestMeanGap:
    def test_non_trivial_filter(self):
        records = [record(Fraction(1, 2)), record(1, non_trivial=False)]
        assert mean_gap(records) == Fraction(1, 2)
        assert mean_gap(records, non_trivial_only=False) == Fraction(3, 4)

    def test_empty(self):
        assert mean_gap([]) is None


class TestResolveReference:
    def test_oracle_for_tiny(self, fig2):
        kind, obj = resolve_reference(fig2, ObjectiveWeights(10, 1))
        assert kind == "oracle" and obj == 24

    def test_lb_when_oracle_refuses(self):
        kind, obj = resolve_reference(five_hosts(), ObjectiveWeights(10, 1), lb_objective=20)
        assert kind == "lb" and obj == 20

    def test_initial_when_nothing_available(self):
        kind, obj = resolve_reference(five_hosts(), ObjectiveWeights(10, 1))
        assert kind == "initial" and obj is None


class TestEvaluateInstance:
    def test_records_fig2(self, fig2):
        params = SolverParams(weights=ObjectiveWeights(10, 1))
        records = evaluate_instance("fig2", fig2, ["balcon", "sercon-mod"], params)
        by_algo = {r.algorithm: r for r in records}
        assert by_algo["balcon"].gap == 0
        assert by_algo["balcon"].non_trivial
        assert by_algo["sercon-mod"].gap == 1
        assert not by_algo["sercon-mod"].non_trivial
        assert all(r.ref_kind == "oracle" for r in records)


    def test_beyond_the_oracle_without_a_bound(self):
        inst = five_hosts()
        params = SolverParams(weights=ObjectiveWeights(10, 1))
        (record,) = evaluate_instance("five", inst, ["balcon"], params)
        assert (record.ref_kind, record.ref_objective, record.gap) == ("initial", None, None)
        # two hosts hold the five VMs; three of them migrate
        assert record.alg_objective == 2 * 10 + 3 < record.init_objective == 50


class TestMphSweep:
    def test_fig2_sweep(self, fig2):
        points = mph_sweep(fig2, ["balcon", "sercon-mod"], [0, 3, 4, 8, math.inf], SWEEP_PARAMS)
        by_key = {(p.mph, p.algorithm): p for p in points}
        # balcon reaches two hosts exactly when the budget covers the
        # 4-unit release; sercon-mod never moves
        for mph in (0, 3):
            assert by_key[(mph, "balcon")].active_hosts == 3
            assert by_key[(mph, "balcon")].migrated_mem == 0
        for mph in (4, 8, math.inf):
            assert by_key[(mph, "balcon")].active_hosts == 2
            assert by_key[(mph, "balcon")].migrated_mem == 4
        for mph in (0, 3, 4, 8, math.inf):
            assert by_key[(mph, "sercon-mod")].active_hosts == 3
        assert by_key[(0, "balcon")].gap is None  # no improvement possible
        # at mph 4 the release is exactly cost-neutral, so the optimum equals
        # the initial objective and the gap is undefined there too
        assert by_key[(4, "balcon")].gap is None
        assert by_key[(8, "balcon")].gap == 0
        assert by_key[(8, "sercon-mod")].gap == 1
        assert by_key[(math.inf, "balcon")].ref_kind == "oracle"

    def test_objective_never_worse_than_initial(self, fig2):
        points = mph_sweep(fig2, ["balcon", "sercon-mod", "sercon-orig"], [0, 2, 5, math.inf], SWEEP_PARAMS)
        mu0 = fig2.initial_mapping()
        for p in points:
            w = ObjectiveWeights.from_mph(p.mph)
            init = w.w_a * 3
            assert p.objective <= init


class TestCsvWriters:
    def test_gaps_csv(self, tmp_path):
        path = tmp_path / "gaps.csv"
        write_gaps_csv([record(Fraction(1, 2)), record(None)], path)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(rows) == 2
        assert rows[0]["gap"] == "0.5"
        assert rows[1]["gap"] == ""
        assert rows[0]["non_trivial"] == "1"

    def test_profile_csv(self, tmp_path):
        path = tmp_path / "profile.csv"
        write_profile_csv([(Fraction(0), Fraction(1, 3))], path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["threshold", "fraction"]
        assert rows[1][0] == "0"

    def test_sweep_csv(self, fig2, tmp_path):
        points = mph_sweep(fig2, ["balcon"], [0, math.inf], SWEEP_PARAMS)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(points, path)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert rows[0]["mph"] == "0"
        assert rows[1]["mph"] == "inf"
        assert rows[1]["active_hosts"] == "2"
