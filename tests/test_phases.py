import math

import numpy as np
import pytest

from bncagg import ParameterError, PhaseError
from bncagg.phases import (
    batch_lineages,
    case_ii_sk_pairs,
    phase_sequence,
)
from helpers import _split_batches
from reference import (
    case_i_phases,
    case_ii_partial_phases,
    case_ii_sk_pairs_loop,
    phase_sequence_loop,
)


class TestPhaseSequence:
    def test_worked_small_splits(self):
        assert phase_sequence(3, 5) == [3, 1, 2]
        assert phase_sequence(2, 5) == [2, 1]
        assert phase_sequence(7, 5) == [5, 2, 4, 5, 1, 3, 5]

    def test_aligned(self):
        assert phase_sequence(4, 4) == [4]
        assert phase_sequence(4, 8) == [4]
        assert phase_sequence(8, 4) == [4, 4]

    def test_case_i_each_phase_once(self):
        for m in range(2, 30):
            for n in range(m, 60):
                assert sorted(phase_sequence(m, n)) == case_i_phases(m, n)

    def test_case_ii_partial_once_full_counted(self):
        for n in range(1, 30):
            for m in range(n + 1, 60):
                g = math.gcd(m, n)
                seq = phase_sequence(m, n)
                partial = [p for p in seq if p != n]
                assert sorted(partial) == case_ii_partial_phases(m, n)
                assert seq.count(n) == (m - n + g) // g


class TestCaseISum:
    def test_complete_batch_count_from_packing(self):
        # Per period the packing has (N - M + g) / g complete batches, of
        # which sum(floor((N - l) / M)) = (N - M) / g sit behind a partial
        # leading batch; the one extra is the whole batch leading an l = M
        # frame.
        for m in range(2, 201):
            for n in range(m, 201):
                g = math.gcd(m, n)
                floors = sum((n - l) // m for l in case_i_phases(m, n))
                assert floors == (n - m) // g
                whole = sum(
                    1 for groups in batch_lineages(m, n) if len(groups) == 1
                )
                assert whole == (n - m + g) // g

    def test_split_batches_match_phases(self):
        for m in range(2, 40):
            for n in range(m, 80):
                tails = sorted(
                    groups[-1]
                    for groups in batch_lineages(m, n)
                    if len(groups) > 1
                )
                expect = sorted(l for l in case_i_phases(m, n) if l != m)
                # Phase M frames lead with a whole batch, not a split one.
                assert tails == expect


class TestCaseIIStructure:
    def test_sk_pair_count(self):
        for n in range(1, 201):
            for m in range(n + 1, 201):
                g = math.gcd(m, n)
                assert len(case_ii_sk_pairs(m, n)) == (m - n + g) // g

    def test_excluded_s_example(self):
        # For M=8, N=6 the lineage starting with s=4 never fills a frame.
        assert [s for s, _ in case_ii_sk_pairs(8, 6)] == [0, 2]

    def test_sk_pairs_match_lineages(self):
        for n in range(1, 40):
            for m in range(n + 1, 80):
                observed = []
                for groups in batch_lineages(m, n):
                    # A size-N group covers a whole frame the batch leads; the
                    # leading partial group (if any) rides an earlier batch's
                    # frame and only sets s.
                    first = groups[0] % n
                    fulls = sum(1 for size in groups if size == n)
                    observed += [(first, k) for k in range(fulls)]
                assert sorted(observed) == case_ii_sk_pairs(m, n)

    def test_case_mismatch_raises(self):
        with pytest.raises(PhaseError):
            case_i_phases(5, 3)
        with pytest.raises(PhaseError):
            case_ii_partial_phases(3, 5)
        with pytest.raises(PhaseError):
            case_ii_sk_pairs(4, 4)


class TestLineages:
    def test_partition_of_period(self):
        for m in range(1, 30):
            for n in range(1, 30):
                lineages = batch_lineages(m, n)
                assert len(lineages) == math.lcm(m, n) // m
                assert all(sum(groups) == m for groups in lineages)
                assert all(
                    1 <= size <= n for groups in lineages for size in groups
                )


class TestLoopReference:
    def test_phase_sequence_matches_loop(self):
        for m in range(1, 65):
            for n in range(1, 65):
                assert phase_sequence(m, n) == phase_sequence_loop(m, n)

    def test_sk_pairs_match_loop(self):
        for m in range(1, 65):
            for n in range(1, m):
                assert case_ii_sk_pairs(m, n) == case_ii_sk_pairs_loop(m, n)

    def test_offset_law_matches_packet_walk(self):
        for m in range(1, 65):
            for n in range(1, 97):
                walked = [tuple(groups) for groups in _split_batches(m, n)]
                assert batch_lineages(m, n) == walked, (m, n)


class TestCountArguments:
    @pytest.mark.parametrize("to_numpy", [np.int64, np.int32])
    def test_numpy_integers_are_python_ints(self, to_numpy):
        for m, n in [(4, 3), (7, 5), (3, 8)]:
            got = batch_lineages(to_numpy(m), to_numpy(n))
            assert got == batch_lineages(m, n)
            assert all(type(size) is int for sizes in got for size in sizes)
            assert phase_sequence(to_numpy(m), to_numpy(n)) == phase_sequence(m, n)

    @pytest.mark.parametrize("m, n", [(4, 2.0), (4.0, 2), (4, "2"), (0, 2), (4, 0), (4, -1)])
    def test_rejects(self, m, n):
        with pytest.raises(ParameterError):
            batch_lineages(m, n)
