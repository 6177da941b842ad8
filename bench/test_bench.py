"""Tests of the benchmark itself: the tracer, the input generator, the oracles.

    python3 -m pytest bench -q      (from the repository root)
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from threshauth import cli  # noqa: E402

QUERY = {"omega": 0.1, "la": 10.0, "lu": 1.0, "lb": 0.01}
LOSS_FLAGS = ["--omega", "0.1", "--la", "10", "--lu", "1", "--lb", "0.01"]


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def replace_field(text: str, row: int, field: str, value) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    rows[row + 1][oracle.CSV_HEADER.index(field)] = str(value)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    ops = [
        ["exact", *LOSS_FLAGS, "--n", "40"],
        ["fig3", "--omega", "0.05", "--omega", "0.2", "--trials", "300", "--k", "128",
         "--out", str(out / "fig3.csv")],
        ["fig1a", "--omega", "0.1", "--out", str(out / "fig1a.csv")],
    ]
    tracer = spans.Tracer()
    with tracer.installed():
        for i, argv in enumerate(ops):
            tracer.op = i
            run_cli(argv)
    return tracer, len(ops)


class TestTracer:
    def test_self_times_sum_to_root_span(self, traced):
        tracer, ops = traced
        own = spans.self_times(tracer.spans)
        for op in range(ops):
            members = [i for i, s in enumerate(tracer.spans) if s[2] == op]
            roots = [tracer.spans[i] for i in members if tracer.spans[i][1] < 0]
            assert len(roots) == 1 and roots[0][0] == "cli.main"
            assert sum(own[i] for i in members) == roots[0][4] - roots[0][3]

    def test_layer_self_times_add_up_to_root_time(self, traced):
        tracer, ops = traced
        metrics = spans.layer_metrics(tracer.spans, ops)
        total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        assert total == pytest.approx(metrics["trace.root_s"][0], rel=1e-9)

    def test_children_nest_inside_parent_of_same_op(self, traced):
        tracer, _ = traced
        for name, parent, op, start, end, _ in tracer.spans:
            if parent >= 0:
                p = tracer.spans[parent]
                assert p[2] == op and p[3] <= start <= end <= p[4]

    def test_counts_are_recorded(self, traced):
        metrics = spans.layer_metrics(traced[0].spans, 1)
        assert metrics["exact.binomial_pmf.entries"][0] == 2 * sum(n + 1 for n in range(1, 41))
        assert metrics["exact.brute_force_optimal.calls"][0] == 1
        assert metrics["channel.simulate_error_counts.draws"][0] > 0
        assert metrics["experiments.sweep.rows"][0] == 2 * 12 + 256

    def test_restores_every_patched_name(self):
        modules = [m for name, m in sys.modules.items() if name.startswith("threshauth")]
        before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
        tracer = spans.Tracer()
        with tracer.installed():
            from threshauth import channel, experiments
            assert experiments.brute_force_optimal is not before[
                ("threshauth.exact", "brute_force_optimal")]
            assert channel.simulate_error_counts is not before[
                ("threshauth.channel", "simulate_error_counts")]
        after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
        assert after == before
        assert "threshauth.cli.emit_csv" in tracer.patched_names
        assert "threshauth.asymptotic.binomial_cdf" in tracer.patched_names


class TestWorkloads:
    def test_design_queries_repeat_for_a_seed(self):
        assert [workloads.design_query(7, i) for i in range(50)] == [
            workloads.design_query(7, i) for i in range(50)]

    def test_design_queries_differ_across_seeds_and_queries(self):
        a = [workloads.design_query(7, i)["omega"] for i in range(200)]
        b = [workloads.design_query(8, i)["omega"] for i in range(200)]
        assert len(set(a)) == 200 and not set(a) & set(b)

    def test_design_queries_stay_in_range(self):
        for i in range(500):
            q = workloads.design_query(3, i)
            assert 1e-3 <= q["omega"] <= 0.3 and 1e-4 <= q["lb"] <= 1e-1
            assert q["la"] in workloads.LA_CHOICES and q["lu"] == 1.0

    def test_sweep_seeds_repeat_for_a_seed_and_differ_across(self, tmp_path):
        def seeds(seed):
            return [workloads.make_op("fig3", seed, i, tmp_path, "timed")["calls"][0]
                    for i in range(1, 6)]
        assert seeds(1) == seeds(1) and seeds(1) != seeds(2)


class TestDesignOracle:
    def test_accepts_program_output(self):
        assert oracle.check_bounds(QUERY, run_cli(["bounds", *LOSS_FLAGS])) == []
        assert oracle.check_exact(QUERY, run_cli(["exact", *LOSS_FLAGS, "--n", "64"]), 64) == []

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_rejects_off_by_one_tau_star(self, shift):
        out = run_cli(["exact", *LOSS_FLAGS, "--n", "64"])
        tau = int(out.split("tau_star")[1].split()[0])
        planted = out.replace(f"tau_star          {tau}", f"tau_star          {tau + shift}")
        assert planted != out
        assert oracle.check_exact(QUERY, planted, 64)

    def test_rejects_off_by_one_n_hat(self):
        out = run_cli(["bounds", *LOSS_FLAGS])
        n_hat = int(out.split("n_hat")[1].split()[0])
        assert oracle.check_bounds(QUERY, out.replace(f"n_hat             {n_hat}",
                                                      f"n_hat             {n_hat + 1}"))


class TestSweepOracles:
    def test_fig1a_accepts_program_output(self, tmp_path):
        run_cli(["fig1a", "--omega", "0.1", "--omega", "0.01", "--out", str(tmp_path / "a.csv")])
        problems, dominated = oracle.check_fig1a(
            (tmp_path / "a.csv").read_text(), [0.1, 0.01], workloads.DEFAULT_LOSSES)
        assert problems == [] and dominated > 0

    def test_fig1a_rejects_off_by_one_tau(self, tmp_path):
        run_cli(["fig1a", "--omega", "0.1", "--out", str(tmp_path / "a.csv")])
        text = (tmp_path / "a.csv").read_text()
        tau = float(list(csv.DictReader(io.StringIO(text)))[40]["tau"])
        planted = replace_field(text, 40, "tau", tau + 1)
        assert oracle.check_fig1a(planted, [0.1], workloads.DEFAULT_LOSSES)[0]

    @pytest.fixture
    def fig3_text(self, tmp_path):
        run_cli(["fig3", "--omega", "0.05", "--omega", "0.1", "--trials", "2000", "--k", "256",
                 "--out", str(tmp_path / "f.csv")])
        return (tmp_path / "f.csv").read_text()

    def test_fig3_accepts_program_output(self, fig3_text):
        assert oracle.check_fig3(fig3_text, [0.05, 0.1], 2000, 256, workloads.DEFAULT_LOSSES) == []

    def test_fig3_rejects_off_by_one_tau_nan_and_far_monte_carlo(self, fig3_text):
        rows = list(csv.DictReader(io.StringIO(fig3_text)))
        i = next(i for i, r in enumerate(rows) if not r["aborted"])
        for field, value in (("tau", float(rows[i]["tau"]) + 1), ("exact_worst", "nan"),
                             ("mc_worst", float(rows[i]["exact_worst"]) + 0.5)):
            planted = replace_field(fig3_text, i, field, value)
            assert oracle.check_fig3(planted, [0.05, 0.1], 2000, 256, workloads.DEFAULT_LOSSES)

    def test_monte_carlo_allowance_is_honest_for_rare_events(self):
        # Pr(accept) = 1e-4 over 10,000 trials: five events are plausible
        assert oracle.mc_allowance(1e-4, 10_000) > 5 / 10_000
        assert oracle.mc_allowance(0.5, 10_000) < 0.05
