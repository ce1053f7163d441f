import importlib.util
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


class TestMedianInterval:
    def test_covers_one_without_a_shift(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        low, median, high = ab.median_interval(np.exp(rng.normal(0.0, 0.05, 12)).tolist())
        assert low <= 1.0 <= high
        assert low <= median <= high

    def test_excludes_one_for_a_clear_shift(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        low, median, high = ab.median_interval((0.85 * np.exp(rng.normal(0.0, 0.05, 12))).tolist())
        assert high < 1.0
        assert median == pytest.approx(0.85, rel=0.05)

    @pytest.mark.parametrize("n, k", [(6, 1), (8, 1), (9, 2), (12, 3), (20, 6)])
    def test_ranks_are_the_binomial_ones(self, n, k):
        # the k-th smallest and largest of 1..n; k from tables of the sign test at 95%
        assert ab.median_interval(list(range(n, 0, -1))) == (k, (n + 1) / 2, n + 1 - k)

    def test_too_few_ratios_give_no_interval(self):
        with pytest.raises(ValueError, match="5 ratios give no 95% interval"):
            ab.median_interval([0.9, 1.0, 1.1, 1.2, 1.3])


class TestLine:
    def test_prints_the_cpu_ratio_beside_the_wall_ratio(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        wall_a = (1.0 + 0.1 * rng.random(12)).tolist()
        cpu_a = (0.9 + 0.1 * rng.random(12)).tolist()
        # B is 20% faster by the wall clock and runs the same CPU time, to noise
        wall_b = [0.8 * t * s for t, s in zip(wall_a, np.exp(rng.normal(0.0, 0.02, 12)))]
        cpu_b = [t * s for t, s in zip(cpu_a, np.exp(rng.normal(0.0, 0.02, 12)))]
        line = ab._line("equivariance", wall_a, wall_b, cpu_a, cpu_b)
        wall, cpu = line.split("|")
        assert wall.startswith("equivariance") and "pairs=12" in wall
        low, mid, high = ab.median_interval([b / a for a, b in zip(wall_a, wall_b)])
        assert f"B/A median {mid:.4f}  95% [{low:.4f}, {high:.4f}]  faster" in wall
        low, mid, high = ab.median_interval([b / a for a, b in zip(cpu_a, cpu_b)])
        assert cpu.strip() == f"cpu B/A median {mid:.4f}  95% [{low:.4f}, {high:.4f}]  unresolved"

    def test_a_slower_cpu_time_is_called_slower(self):
        a = [1.0 + 0.01 * i for i in range(8)]
        line = ab._line("x", a, a[::-1], a, [1.3 * t for t in a])
        assert line.endswith("cpu B/A median 1.3000  95% [1.3000, 1.3000]  slower")

    def test_prints_both_traced_peaks_after_the_times(self):
        a = [1.0 + 0.01 * i for i in range(8)]
        line = ab._line("no_tunneling", a, a, a, a, (54_738_534, 2_284_902))
        assert line == ab._line("no_tunneling", a, a, a, a) + "  |  traced peak A 52.20 MiB  B 2.18 MiB"
