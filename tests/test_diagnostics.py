import numpy as np
import pytest

from oracles import coords, decode, encode
from specdbl import cli, diagnostics
from specdbl.diagnostics import (
    example_counterexample,
    high_threshold_closure,
    statistical_doubling,
    sumset_stats,
)
from specdbl.fileio import write_set_file
from specdbl.fourier import dft, spectrum
from specdbl.groups import (
    ElementSet,
    FiniteAbelianGroup,
    random_subset,
    subgroup_span,
    sumset,
)


def test_doubling_subgroup_is_certain():
    g = FiniteAbelianGroup([2] * 4)
    h = subgroup_span(g, [(1, 0, 0, 0), (0, 1, 0, 0)])
    rep = statistical_doubling(dft(h), 0.5)
    assert rep.exact
    assert rep.p == 1.0
    assert rep.total_pairs == 16


def test_doubling_example_set_exact_oracle():
    bundle = example_counterexample(2)
    rep = statistical_doubling(dft(bundle.members), 0.4)
    assert rep.exact
    assert rep.spec_size == 7

    # independent pair loop
    g = bundle.members.group
    table = dft(bundle.members)
    spec = spectrum(table, 0.4).indices().tolist()
    small = spectrum(table, 0.4 * 0.4 / 2)
    hits = 0
    for i in spec:
        ci = decode(g, i)
        for j in spec:
            cj = decode(g, j)
            s = tuple((x + y) % 2 for x, y in zip(ci, cj))
            if small.mask[encode(g, s)]:
                hits += 1
    assert rep.hit_pairs == hits
    assert rep.p == hits / len(spec) ** 2
    assert rep.p >= 0.4


def test_doubling_random_sweep_exact():
    seed = 0
    for orders in [[2] * 4, [3, 3, 3]]:
        g = FiniteAbelianGroup(orders)
        for size in [2, 5, g.size // 2]:
            for eps in [0.3, 0.5, 0.7]:
                a = random_subset(g, size, seed=seed)
                seed += 1
                rep = statistical_doubling(dft(a), eps)
                assert rep.exact
                assert rep.p >= eps * eps / 2.0


def test_doubling_counts_every_pair_of_a_large_spectrum():
    # more than 3162 characters, so more than 10^7 ordered pairs
    g = FiniteAbelianGroup([2] * 12)
    a = random_subset(g, 100, seed=0)
    table = dft(a)
    rep = statistical_doubling(table, 0.02)
    assert rep.exact
    assert rep.spec_size > 3162
    assert rep.total_pairs == rep.spec_size ** 2

    # row-by-row pair count; in Z_2^k the flat index of a sum is the XOR
    spec = spectrum(table, 0.02).indices()
    small = spectrum(table, 0.02 * 0.02 / 2).mask
    hits = sum(int(np.count_nonzero(small[spec ^ x])) for x in spec)
    assert rep.hit_pairs == hits
    assert rep.p == hits / rep.total_pairs


def test_doubling_on_the_recheck_input_shape_keeps_its_count():
    # the 2000-element random set of Z_2^16 that the recheck workload verifies
    # at 0.05: 1613^2 pairs, too many for XOR sums, so the inner product
    # counts them; the figures are pinned from the convolution route
    rep = statistical_doubling(dft(random_subset(FiniteAbelianGroup([2] * 16), 2000, seed=0)), 0.05)
    assert (rep.spec_size, rep.small_spec_size) == (1613, 61903)
    assert (rep.hit_pairs, rep.total_pairs) == (2460093, 1613 ** 2)


def test_closure_requires_high_threshold():
    g = FiniteAbelianGroup([2] * 4)
    table = dft(random_subset(g, 6, seed=0))
    for eps in [0.5, 0.75]:
        with pytest.raises(ValueError):
            high_threshold_closure(table, eps)


def test_closure_holds_on_sweep():
    seed = 10
    for orders in [[2] * 4, [3, 3, 3]]:
        g = FiniteAbelianGroup(orders)
        for size in [1, 4, g.size // 2]:
            table = dft(random_subset(g, size, seed=seed))
            seed += 1
            for eps in [0.8, 0.9, 1.0]:
                rep = high_threshold_closure(table, eps)
                assert rep.ok, rep
                assert rep.target_level == pytest.approx(4 * eps - 3)
                assert rep.violation is None


def _subgroup_plus_point():
    # a subgroup of order 32 in Z_2^8 and one point outside it: the spectra at
    # every level in (1/33, 31/33] are its annihilator, 8 characters
    g = FiniteAbelianGroup([2] * 8)
    h = subgroup_span(g, [tuple(int(i == j) for j in range(8)) for i in range(5)])
    return ElementSet(g, h.mask | (np.arange(g.size) == 255))


@pytest.mark.parametrize("members", [
    _subgroup_plus_point(),  # 8 characters, 64 pairs: the XOR route
    ElementSet.from_indices(FiniteAbelianGroup([2] * 6), [5]),  # every character: the inner product
    subgroup_span(FiniteAbelianGroup([3, 3, 3]), [(1, 0, 0)]),  # an odd group: the convolution
], ids=["xor", "inner", "convolution"])
def test_closure_that_holds_forms_no_sumset(monkeypatch, members):
    calls = []

    def counted(s, t):
        calls.append(s)
        return sumset(s, t)

    monkeypatch.setattr(diagnostics, "sumset", counted)
    rep = high_threshold_closure(dft(members), 0.9)
    assert rep.ok and rep.violation is None
    assert calls == []


def test_verify_with_closure_and_doubling_prints_what_each_prints_alone(tmp_path, capsys):
    setfile = tmp_path / "h.json"
    write_set_file(setfile, _subgroup_plus_point())
    lines = []
    for args in (["--statistical-doubling", "0.4"], ["--closure", "0.9"],
                 ["--closure", "0.9", "--statistical-doubling", "0.4"]):
        assert cli.main(["verify", "--input", str(setfile), *args]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[2] == lines[0] + lines[1]


def test_closure_failure_reports_a_witness_pair(monkeypatch, tmp_path, capsys):
    g = FiniteAbelianGroup([3, 4])
    h = subgroup_span(g, [(1, 0)])
    eps = 0.9
    spec = spectrum(dft(h), eps)
    assert len(spec) == 4

    def starved(table, level):
        # a target level that keeps only the trivial character
        if level < eps:
            return ElementSet.from_indices(table.group, [0])
        return spectrum(table, level)

    calls = []

    def counted(s, t):
        calls.append(s)
        return sumset(s, t)

    monkeypatch.setattr(diagnostics, "spectrum", starved)
    monkeypatch.setattr(diagnostics, "sumset", counted)
    rep = high_threshold_closure(dft(h), eps)
    assert rep.ok is False
    assert calls == [spec]  # formed once, only to name the witness
    assert rep.target_size == 1
    first, second = rep.violation
    assert first in coords(spec) and second in coords(spec)
    total = tuple((x + y) % n for x, y, n in zip(first, second, g.orders))
    assert total != (0, 0)

    setfile = tmp_path / "h.json"
    write_set_file(setfile, h)
    assert cli.main(["verify", "--input", str(setfile), "--closure", str(eps)]) == 1
    assert f"closure FAIL: witness pair {rep.violation}" in capsys.readouterr().out


def test_example_counterexample_small_cases():
    # test_criterion_01 checks the size, the sumset, the coefficients and the
    # 0.4-spectrum for n = 1..5; here the level 1/2 and the closed-form bound
    b2 = example_counterexample(2)
    assert b2.n == 2 and b2.members.group.size == 16
    assert spectrum(dft(b2.members), 0.5).indices().tolist() == [0]

    b3 = example_counterexample(3)
    assert b3.valid_threshold_bound == pytest.approx(7 / 15)

    for bad in [0, 11, -2]:
        with pytest.raises(ValueError):
            example_counterexample(bad)


def test_sumset_stats_examples():
    # arithmetic progression {0..m-1} in Z_N with 2m < N
    g = FiniteAbelianGroup([29])
    s = ElementSet.from_indices(g, range(8))
    st = sumset_stats(s)
    assert st.plus_size == 15
    assert st.doubling == pytest.approx(15 / 8)

    g2 = FiniteAbelianGroup([2] * 4)
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
