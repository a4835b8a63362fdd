"""The figure registry: every artefact's sweep, at TINY scale on reduced grids.

Sweeps run once per module and are shared by every artefact they generate,
as the CLI's ``all`` does.  Claims that read no clock are asserted for every
artefact; of the timed ones only two long-standing checks are, with slack.
Every claim, timed or not, is also shown to fail on a hand-built table
that contradicts it.
"""

import pathlib

import pytest

from repro.experiments import figures
from repro.experiments.config import DATASETS, Scale
from repro.experiments.reporting import ExperimentTable

#: The grid each sweep runs at here (syn-n unless a sweep names datasets).
REDUCED = {
    figures.fig5_6_7: {"betas": (0.1, 0.4)},
    figures.fig8_9: {
        "ks": (5,),
        "algorithms": ("sic", "ic", "greedy"),
        "mc_rounds": 30,
        "quality_every": 5,
    },
    figures.fig10: {"factors": (0.5, 1.0), "algorithms": ("sic",)},
    figures.fig11: {"fractions": (0.01, 0.02), "algorithms": ("sic", "ic")},
    figures.fig12: {"factors": (1.0, 2.0), "algorithms": ("sic",)},
    figures.table2: {},
    figures.table3: {"datasets": DATASETS},
}

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "RESULTS.md"


@pytest.fixture(scope="module")
def swept():
    """``swept(sweep)``: the sweep's reduced-grid tables, memoised."""
    sweeps = {}

    def get(sweep):
        if sweep not in sweeps:
            grid = {"datasets": ("syn-n",), **REDUCED[sweep]}
            sweeps[sweep] = sweep(scale=Scale.TINY, seed=7, **grid)
        return sweeps[sweep]

    return get


@pytest.fixture(scope="module")
def table(swept):
    """``table(name)``: the artefact's reduced-grid table."""
    return lambda name: swept(figures.REGISTRY[name].sweep)[name]


def _figure(x, y, xs, series):
    """A syn-n figure table: ``series`` maps each algorithm to its ``y``
    values at the grid points ``xs``."""
    table = ExperimentTable("counterexample", ["dataset", x, "algorithm", y])
    for algorithm, values in series.items():
        for point, value in zip(xs, values):
            table.add_row("syn-n", point, algorithm, value)
    return table


def _rows(headers, *rows):
    """A syn-n table with one row per ``rows`` entry (dataset prepended)."""
    table = ExperimentTable("counterexample", ["dataset", *headers])
    for row in rows:
        table.add_row("syn-n", *row)
    return table


_BETAS = (0.1, 0.4)
_KS = (5, 25)
_TABLE2 = ("oracle", "influence_value", "throughput", "checkpoints")

#: Per artefact, one table per claim (in claim order) that contradicts
#: that claim and satisfies the artefact's others.
COUNTEREXAMPLES = {
    "fig5": (
        _figure("beta", "influence_value", _BETAS,
                {"IC": [10, 10], "SIC": [6, 6], "IC-THIN": [6, 6]}),
        _figure("beta", "influence_value", _BETAS,
                {"IC": [10, 10], "SIC": [8, 8], "IC-THIN": [11, 11]}),
    ),
    "fig6": (
        _figure("beta", "checkpoints", _BETAS, {"IC": [20, 19], "SIC": [6, 5]}),
        _figure("beta", "checkpoints", _BETAS, {"IC": [20, 20], "SIC": [20, 18]}),
        _figure("beta", "checkpoints", _BETAS, {"IC": [20, 20], "SIC": [5, 6]}),
    ),
    "fig7": (
        _figure("beta", "throughput", _BETAS, {"IC": [100, 200], "SIC": [90, 250]}),
        _figure("beta", "throughput", _BETAS, {"IC": [100, 90], "SIC": [150, 160]}),
    ),
    "fig8": (
        _figure("k", "spread", _KS,
                {"GREEDY": [10, 10], "IC": [10, 4], "SIC": [10, 10]}),
    ),
    "fig9": (
        _figure("k", "throughput", _KS, {
            "SIC": [100, 90], "IC": [50, 50], "GREEDY": [120, 40],
            "IMM": [10, 10], "UBI": [20, 20],
        }),
        _figure("k", "throughput", _KS, {
            "SIC": [100, 200], "IC": [50, 50], "GREEDY": [50, 50],
            "IMM": [50, 50], "UBI": [50, 50],
        }),
    ),
    "fig10": (
        _figure("window_size", "throughput", (80, 160),
                {"IC": [100, 110], "SIC": [300, 330]}),
        _figure("window_size", "throughput", (80, 160),
                {"IC": [100, 50], "SIC": [300, 200], "GREEDY": [400, 100]}),
        _figure("window_size", "throughput", (80, 160),
                {"IC": [100, 50], "SIC": [400, 100]}),
    ),
    "fig11": (
        _figure("slide", "throughput", (8, 16), {"IC": [100, 90], "SIC": [200, 200]}),
        _figure("slide", "throughput", (8, 16), {"IC": [100, 200], "SIC": [200, 150]}),
    ),
    "fig12": (
        _figure("n_users", "throughput", (100, 200), {"IC": [100, 100], "SIC": [90, 120]}),
        _figure("n_users", "throughput", (100, 200), {"IC": [10, 10], "SIC": [100, 50]}),
    ),
    "table2": (
        _rows(_TABLE2, ("sieve", 7, 1, 1), ("threshold", 10, 1, 1),
              ("blog_watch", 10, 1, 1), ("mkc", 9, 1, 1)),
    ),
    "table3": (
        _rows(("users", "actions", "resp_dist", "avg_depth"), (100, 800, 3.0, 4.0)),
    ),
}


def test_every_artefact_states_and_checks_a_claim():
    for artefact in figures.REGISTRY.values():
        assert artefact.paper and artefact.claims


@pytest.mark.parametrize("name", list(figures.REGISTRY))
def test_untimed_claims_hold(table, name):
    """Every claim that reads no clock holds on the reduced grid."""
    artefact = figures.REGISTRY[name]
    failures = [
        (claim.sentence, failing)
        for claim, failing in artefact.check(table(name))
        if failing and not claim.timed
    ]
    assert not failures


@pytest.mark.parametrize(
    "name, index",
    [(name, index)
     for name, artefact in figures.REGISTRY.items()
     for index in range(len(artefact.claims))],
)
def test_claim_fails_on_its_counterexample(name, index):
    """Each claim reads the table: on a table built to contradict it, that
    claim, and no other of its artefact, fails on the dataset.  A claim that
    reads no rows (say, a misspelled algorithm) would pass vacuously."""
    verdicts = figures.REGISTRY[name].check(COUNTEREXAMPLES[name][index])
    assert [failing for _, failing in verdicts] == [
        ["syn-n"] if i == index else [] for i in range(len(verdicts))
    ]


def test_results_md_matches_registry():
    """RESULTS.md shows every artefact and every claim sentence verbatim:
    editing a claim without regenerating the file fails here."""
    text = RESULTS.read_text()
    assert "`python -m repro.experiments.cli all --scale tiny`" in text
    for artefact in figures.REGISTRY.values():
        assert f"## {artefact.name}\n" in text
        assert artefact.paper in text
        for claim in artefact.claims:
            assert claim.sentence in text


class TestFig567:
    def test_tables_present(self, swept):
        assert set(swept(figures.fig5_6_7)) == {"fig5", "fig6", "fig7"}

    def test_fig5_rows(self, table):
        fig5 = table("fig5")
        assert len(fig5.rows) == 6  # 2 betas x (IC, SIC, IC-THIN)
        assert set(fig5.column("algorithm")) == {"IC", "SIC", "IC-THIN"}

    def test_fig6_ic_constant_sic_decreasing(self, table):
        fig6 = table("fig6")
        ic_counts = fig6.series({"algorithm": "IC"}, "checkpoints")
        sic_counts = fig6.series({"algorithm": "SIC"}, "checkpoints")
        # IC: constant ceil(N/L); SIC: fewer, and fewer still for larger β.
        assert ic_counts[0] == ic_counts[1]
        assert all(s < i for s, i in zip(sic_counts, ic_counts))
        assert sic_counts[1] <= sic_counts[0]

    def test_fig7_sic_faster_than_ic(self, table):
        fig7 = table("fig7")
        for beta in (0.1, 0.4):
            ic = fig7.series({"algorithm": "IC", "beta": beta}, "throughput")[0]
            sic = fig7.series({"algorithm": "SIC", "beta": beta}, "throughput")[0]
            assert sic > ic

    def test_fig5_values_positive(self, table):
        assert all(v > 0 for v in table("fig5").column("influence_value"))

    def test_thinned_ic_matches_sic_population(self, table):
        """IC-THIN's interval is derived from SIC's checkpoint count."""
        fig6 = table("fig6")
        for beta in (0.1, 0.4):
            ic, sic, thin = (
                fig6.series({"algorithm": a, "beta": beta}, "checkpoints")[0]
                for a in ("IC", "SIC", "IC-THIN")
            )
            assert thin < ic
            assert thin == pytest.approx(sic, rel=0.5)


class TestFig89:
    def test_reduced_sweep(self, table):
        quality = table("fig8")
        assert len(quality.rows) == 3
        assert all(v is not None and v > 0 for v in quality.column("spread"))
        assert all(v > 0 for v in table("fig9").column("throughput"))


class TestScalabilityFigures:
    def test_fig10_structure(self, table):
        sizes = table("fig10").column("window_size")
        assert len(sizes) == 2
        assert sizes[0] < sizes[1]

    def test_fig11_structure(self, table):
        fig11 = table("fig11")
        assert len(fig11.rows) == 4
        # IC throughput grows with L (fewer checkpoints per action).
        ic = fig11.series({"algorithm": "IC"}, "throughput")
        assert ic[1] > ic[0] * 0.8  # allow noise, expect roughly increasing

    def test_fig11_drops_one_action_slides(self):
        """At TINY the paper's 0.002·N point is a one-action slide: dropped."""
        fig11 = figures.fig11(
            ("syn-n",), scale=Scale.TINY, fractions=(0.002, 0.01), algorithms=("sic",)
        )["fig11"]
        assert fig11.column("slide") == [8]

    def test_fig12_structure(self, table):
        users = table("fig12").column("n_users")
        assert users[0] < users[1]


class TestTables:
    def test_table2_all_oracles(self, table):
        table2 = table("table2")
        assert table2.column("oracle") == ["sieve", "threshold", "blog_watch", "mkc"]
        assert all(v > 0 for v in table2.column("influence_value"))

    def test_table3_all_datasets(self, table):
        table3 = table("table3")
        assert table3.column("dataset") == list(DATASETS)
        assert all(v > 0 for v in table3.column("avg_depth"))
