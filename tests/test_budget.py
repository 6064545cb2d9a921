import math

import numpy as np
import pytest

from slvq.budget import (
    GIB,
    BudgetError,
    BudgetSpec,
    _divisors,
    asymptotic_ratio_class,
    bits_per_index,
    compression_ratio,
    is_power_of_two,
    level_set,
    llm_compression_ratio,
    llm_raw_bytes,
    pca_bytes,
    quant_bytes,
    raw_label_bytes,
    solve_hyperparams,
    topk_bytes,
    vq_bytes,
)


class TestBudgetSpec:
    def test_label_rows(self):
        spec = BudgetSpec(ipc=10, num_classes=1000, epochs=300)
        assert spec.n == 10_000
        assert spec.label_rows == 3_000_000

    def test_aug_views_multiply_rows(self):
        spec = BudgetSpec(ipc=10, num_classes=100, epochs=5, aug_per_epoch=4)
        assert spec.label_rows == 10 * 100 * 5 * 4

    def test_rejects_non_positive(self):
        with pytest.raises(BudgetError):
            BudgetSpec(ipc=0, num_classes=10, epochs=1)

    def test_rejects_non_integer(self):
        with pytest.raises(BudgetError):
            BudgetSpec(ipc=1.5, num_classes=10, epochs=1)

    def test_k_at_most_the_widest_stored_code(self):
        assert BudgetSpec(ipc=1, num_classes=10, epochs=1, d_h=40, d_c=1, k=2 ** 32).k == 2 ** 32
        with pytest.raises(BudgetError, match="at most 2"):
            BudgetSpec(ipc=1, num_classes=10, epochs=1, d_h=40, d_c=1, k=2 ** 32 + 1)

    def test_vq_fields_required_for_vq(self):
        with pytest.raises(BudgetError):
            vq_bytes(BudgetSpec(ipc=1, num_classes=10, epochs=1))


class TestRawBytes:
    def test_formula_by_hand(self):
        # rows * classes * 2 bytes per half-precision scalar
        spec = BudgetSpec(ipc=3, num_classes=7, epochs=5)
        assert raw_label_bytes(spec) == 3 * 7 * 5 * 7 * 2


class TestVqBytes:
    def test_breakdown_by_hand(self):
        spec = BudgetSpec(ipc=2, num_classes=8, epochs=3, d_h=8, d_c=2, k=16)
        report = vq_bytes(spec)
        rows = 2 * 8 * 3
        assert report.breakdown["batch_data"] == rows * 4 * 4 // 8  # m=4 segs, 4 bits
        assert report.breakdown["decoder"] == 8 * 8 * 4
        assert report.breakdown["codebook"] == 16 * 2 * 4
        assert report.compressed_bytes == sum(report.breakdown.values())
        assert report.exact

    def test_non_power_of_two_warns(self):
        spec = BudgetSpec(ipc=2, num_classes=8, epochs=3, d_h=8, d_c=2, k=10)
        with pytest.warns(UserWarning):
            report = vq_bytes(spec)
        assert not report.exact

    def test_ratio_matches_division(self):
        spec = BudgetSpec(ipc=10, num_classes=100, epochs=300, d_h=200, d_c=50, k=256)
        report = vq_bytes(spec)
        assert compression_ratio(spec) == pytest.approx(
            report.raw_bytes / report.compressed_bytes)

    def test_bits_per_index(self):
        assert bits_per_index(2) == 1
        assert bits_per_index(1024) == 10
        assert bits_per_index(1000) == 10
        with pytest.raises(BudgetError):
            bits_per_index(1)

    def test_is_power_of_two(self):
        assert is_power_of_two(1) and is_power_of_two(64)
        assert not is_power_of_two(0) and not is_power_of_two(12)


class TestBaselineBytes:
    def test_topk_by_hand(self):
        spec = BudgetSpec(ipc=2, num_classes=16, epochs=3)
        report = topk_bytes(spec, k_top=4)
        rows = 2 * 16 * 3
        assert report.compressed_bytes == pytest.approx(rows * 4 * (2 + 4 / 8))
        with pytest.raises(BudgetError):
            topk_bytes(spec, k_top=17)

    def test_pca_by_hand(self):
        spec = BudgetSpec(ipc=2, num_classes=16, epochs=3)
        report = pca_bytes(spec, k_pc=3)
        rows = 2 * 16 * 3
        assert report.compressed_bytes == rows * 3 * 2 + 3 * 16 * 2

    def test_quant_by_hand(self):
        spec = BudgetSpec(ipc=2, num_classes=16, epochs=3)
        report = quant_bytes(spec, bits=2)
        rows = 2 * 16 * 3
        assert report.compressed_bytes == rows * 16 * 2 // 8 + 4 * 2
        with pytest.raises(BudgetError):
            quant_bytes(spec, bits=0)


class TestAsymptotics:
    def test_ratio_class(self):
        assert asymptotic_ratio_class(5, 2) == 5.0
        assert asymptotic_ratio_class(25, 512) == pytest.approx(25 / 9)

    def test_level_set_squares_k_doubles_dc(self):
        pairs = level_set(5, 2, steps=3)
        assert pairs == [(2, 5), (4, 10), (16, 20), (256, 40)]
        classes = {asymptotic_ratio_class(d_c, k) for k, d_c in pairs}
        assert classes == {5.0}

    def test_level_set_truncates(self):
        with pytest.warns(UserWarning):
            pairs = level_set(1, 2, steps=10)
        assert all(k <= 2 ** 32 for k, _ in pairs)

    def test_vq_ratio_converges_to_class(self):
        # with many epochs the exact ratio approaches C * d_c / (d_h log2 k) * ...
        # for d_h fixed the family below shares its asymptote
        k, d_c = 16, 20
        spec = BudgetSpec(ipc=10, num_classes=100, epochs=10 ** 6,
                          d_h=200, d_c=d_c, k=k)
        limit = (100 * 2) / (200 / d_c * math.log2(k) / 8)
        assert compression_ratio(spec) == pytest.approx(limit, rel=1e-3)


class TestLlmAccounting:
    def test_raw_bytes(self):
        assert llm_raw_bytes(1000, 50, bytes_per_scalar=2) == 100_000

    def test_ratio_uses_binary_gb(self):
        raw = llm_raw_bytes(10 ** 6, 1000)
        assert llm_compression_ratio(10 ** 6, 1000, archive_gb=raw / GIB) == pytest.approx(1.0)

    def test_rejects_bad_archive(self):
        with pytest.raises(BudgetError):
            llm_compression_ratio(10, 10, 0.0)


class TestSolver:
    def test_hits_target_with_minimal_slack(self):
        spec = BudgetSpec(ipc=10, num_classes=100, epochs=300)
        (d_h, d_c, k), ratio = solve_hyperparams(40.0, spec)
        assert ratio >= 40.0
        # no configuration in a spot-check grid does strictly better
        best_slack = ratio - 40.0
        rng = np.random.default_rng(0)
        for _ in range(200):
            dh = int(rng.integers(50, 201))
            divisors = [d for d in range(1, dh + 1) if dh % d == 0]
            dc = int(divisors[rng.integers(0, len(divisors))])
            kk = int(2 ** rng.integers(1, 13))
            r = compression_ratio(BudgetSpec(10, 100, 300, d_h=dh, d_c=dc, k=kk))
            if r >= 40.0:
                assert r - 40.0 >= best_slack - 1e-9

    def test_solution_reproduces_ratio(self):
        spec = BudgetSpec(ipc=10, num_classes=100, epochs=300)
        (d_h, d_c, k), ratio = solve_hyperparams(30.0, spec)
        again = compression_ratio(BudgetSpec(10, 100, 300, d_h=d_h, d_c=d_c, k=k))
        assert again == pytest.approx(ratio)

    def test_infeasible_target(self):
        spec = BudgetSpec(ipc=1, num_classes=4, epochs=1)
        with pytest.raises(BudgetError):
            solve_hyperparams(10 ** 9, spec)

    def test_rejects_trivial_target(self):
        with pytest.raises(BudgetError):
            solve_hyperparams(1.0, BudgetSpec(1, 10, 1))


class TestReportDict:
    def test_gb_rounded_to_three_decimals(self):
        spec = BudgetSpec(ipc=10, num_classes=1000, epochs=300)
        d = vq_bytes(BudgetSpec(10, 1000, 300, d_h=795, d_c=5, k=1024)).as_dict()
        assert d["raw_gb"] == round(raw_label_bytes(spec) / GIB, 3)
        assert isinstance(d["breakdown"], dict)


def reference_solve_hyperparams(target_ratio, spec, max_k=4096):
    """The exhaustive search as it was: every divisor by trial up to d_h, every k."""
    c = spec.num_classes
    best = None
    ks = [2 ** b for b in range(1, max_k.bit_length())]
    for d_h in range(max(1, c // 2), 2 * c + 1):
        for d_c in [d for d in range(1, d_h + 1) if d_h % d == 0]:
            for k in ks:
                ratio = compression_ratio(BudgetSpec(spec.ipc, c, spec.epochs, spec.aug_per_epoch,
                                                     d_h=d_h, d_c=d_c, k=k))
                if ratio < target_ratio:
                    continue
                key = (ratio - target_ratio, -d_h)
                if best is None or key < best[0]:
                    best = (key, (d_h, d_c, k), ratio)
    if best is None:
        raise BudgetError(f"no hyperparameters reach a {target_ratio}x ratio")
    return best[1], best[2]


class TestSolverMatchesExhaustiveSearch:
    def test_divisors_ascending(self):
        for n in range(1, 400):
            assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    @pytest.mark.parametrize("spec,max_k", [(BudgetSpec(10, 12, 30), 4096),
                                            (BudgetSpec(3, 17, 7, aug_per_epoch=2), 256),
                                            (BudgetSpec(1, 24, 2), 64)],
                             ids=["c12", "c17-aug2", "c24"])
    def test_same_answers(self, spec, max_k):
        # the tied targets are ratios that two or more settings reach exactly,
        # so several settings meet them with zero slack and the tie rule decides
        c, reached = spec.num_classes, {}
        for d_h in range(max(1, c // 2), 2 * c + 1):
            for d_c in _divisors(d_h):
                for k in [2 ** b for b in range(1, max_k.bit_length())]:
                    ratio = compression_ratio(BudgetSpec(spec.ipc, c, spec.epochs, spec.aug_per_epoch,
                                                         d_h=d_h, d_c=d_c, k=k))
                    reached[ratio] = reached.get(ratio, 0) + 1
        tied = sorted(r for r, count in reached.items() if count > 1 and r > 1)
        assert tied
        for target in [1.5, 2.0, 3.7, 10.0, 40.0, 1e3, *tied[::max(1, len(tied) // 8)]]:
            try:
                want = reference_solve_hyperparams(target, spec, max_k)
            except BudgetError:
                with pytest.raises(BudgetError):
                    solve_hyperparams(target, spec, max_k)
                continue
            assert solve_hyperparams(target, spec, max_k) == want
