import numpy as np
import pytest

from specdbl import cli, diagnostics
from specdbl.diagnostics import (
    example_counterexample,
    high_threshold_closure,
    statistical_doubling,
    sumset_stats,
)
from specdbl.fileio import write_set_file
from specdbl.fourier import SpectrumSet, dft, spectrum
from specdbl.groups import (
    ElementSet,
    make_group,
    random_subset,
    subgroup_span,
    sumset,
)


def test_doubling_subgroup_is_certain():
    g = make_group([2] * 4)
    h = subgroup_span(g, [(1, 0, 0, 0), (0, 1, 0, 0)])
    rep = statistical_doubling(h, 0.5)
    assert rep.exact
    assert rep.p == 1.0
    assert rep.total_pairs == 16


def test_doubling_example_set_exact_oracle():
    bundle = example_counterexample(2)
    rep = statistical_doubling(bundle.members, 0.4)
    assert rep.exact
    assert rep.spec_size == 7

    # independent pair loop
    g = bundle.members.group
    table = dft(bundle.members)
    spec = spectrum(table, 0.4).indices().tolist()
    small = spectrum(table, 0.4 * 0.4 / 2).members
    hits = 0
    for i in spec:
        ci = g.decode(i)
        for j in spec:
            cj = g.decode(j)
            s = tuple((x + y) % 2 for x, y in zip(ci, cj))
            if s in small:
                hits += 1
    assert rep.hit_pairs == hits
    assert rep.p == hits / len(spec) ** 2
    assert rep.p >= 0.4


def test_doubling_random_sweep_exact():
    seed = 0
    for orders in [[2] * 4, [3, 3, 3]]:
        g = make_group(orders)
        for size in [2, 5, g.size // 2]:
            for eps in [0.3, 0.5, 0.7]:
                a = random_subset(g, size, seed=seed)
                seed += 1
                rep = statistical_doubling(a, eps)
                assert rep.exact
                assert rep.p >= eps * eps / 2.0


def test_doubling_counts_every_pair_of_a_large_spectrum():
    # more than 3162 characters, so more than 10^7 ordered pairs
    g = make_group([2] * 12)
    a = random_subset(g, 100, seed=0)
    rep = statistical_doubling(a, 0.02)
    assert rep.exact
    assert rep.spec_size > 3162
    assert rep.total_pairs == rep.spec_size ** 2

    # row-by-row pair count; in Z_2^k the flat index of a sum is the XOR
    table = dft(a)
    spec = spectrum(table, 0.02).indices()
    small = spectrum(table, 0.02 * 0.02 / 2).members.mask
    hits = sum(int(np.count_nonzero(small[spec ^ x])) for x in spec)
    assert rep.hit_pairs == hits
    assert rep.p == hits / rep.total_pairs


def test_closure_requires_high_threshold():
    g = make_group([2] * 4)
    a = random_subset(g, 6, seed=0)
    for eps in [0.5, 0.75]:
        with pytest.raises(ValueError):
            high_threshold_closure(a, eps)


def test_closure_holds_on_sweep():
    seed = 10
    for orders in [[2] * 4, [3, 3, 3]]:
        g = make_group(orders)
        for size in [1, 4, g.size // 2]:
            a = random_subset(g, size, seed=seed)
            seed += 1
            for eps in [0.8, 0.9, 1.0]:
                rep = high_threshold_closure(a, eps)
                assert rep.ok, rep
                assert rep.target_level == pytest.approx(4 * eps - 3)
                assert rep.violation is None


def test_closure_failure_reports_a_witness_pair(monkeypatch, tmp_path, capsys):
    g = make_group([3, 4])
    h = subgroup_span(g, [(1, 0)])
    eps = 0.9
    spec = spectrum(dft(h), eps).members
    assert len(spec) == 4

    def starved(table, level):
        # a target level that keeps only the trivial character
        if level < eps:
            return SpectrumSet(level, table.set_size, ElementSet.from_indices(table.group, [0]))
        return spectrum(table, level)

    monkeypatch.setattr(diagnostics, "spectrum", starved)
    rep = high_threshold_closure(h, eps)
    assert rep.ok is False
    assert rep.target_size == 1
    first, second = rep.violation
    assert first in spec and second in spec
    total = tuple((x + y) % n for x, y, n in zip(first, second, g.orders))
    assert total != (0, 0)

    setfile = tmp_path / "h.json"
    write_set_file(setfile, h)
    assert cli.main(["verify", "--input", str(setfile), "--closure", str(eps)]) == 1
    assert f"closure FAIL: witness pair {rep.violation}" in capsys.readouterr().out


def test_example_counterexample_small_cases():
    b1 = example_counterexample(1)
    assert b1.size_ok and len(b1.members) == 3
    assert b1.sumset_is_group
    assert b1.coeffs_ok
    # n = 1 is degenerate: on-set and off-set coefficients coincide (both 1),
    # so no threshold separates the set from the rest of the group
    assert not b1.spec04_equals_set
    assert b1.spec04_size == 1

    b2 = example_counterexample(2)
    assert len(b2.members) == 7
    assert b2.members.group.size == 16
    assert b2.sumset_is_group
    assert b2.spec04_equals_set
    assert b2.spec_half_size == 1

    b3 = example_counterexample(3)
    assert b3.size_ok and b3.sumset_is_group and b3.coeffs_ok
    assert b3.spec04_size == 15
    assert b3.spec04_equals_set
    assert b3.valid_threshold_bound == pytest.approx(7 / 15)

    for bad in [0, 11, -2]:
        with pytest.raises(ValueError):
            example_counterexample(bad)


def test_sumset_stats_examples():
    # arithmetic progression {0..m-1} in Z_N with 2m < N
    g = make_group([29])
    s = ElementSet.from_indices(g, range(8))
    st = sumset_stats(s)
    assert st.plus_size == 15
    assert st.doubling == pytest.approx(15 / 8)

    g2 = make_group([2] * 4)
    h = subgroup_span(g2, [(1, 0, 0, 0), (0, 1, 0, 0)])
    sh = sumset_stats(h)
    assert sh.plus_size == 4 and sh.minus_size == 4
    assert sh.doubling == 1.0

    bundle = example_counterexample(2)
    sb = sumset_stats(bundle.members)
    assert sb.plus_size == 16
    assert sb.doubling == pytest.approx(16 / 7)

    with pytest.raises(ValueError):
        sumset_stats(ElementSet.from_indices(g, []))
