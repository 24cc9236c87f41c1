import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from baryreduce.core import (
    BadParams,
    BadWeights,
    DimensionMismatch,
    ParseError,
    pool_batch,
    make_distribution,
)
from baryreduce import core, instances
from baryreduce.instances import (
    gen_blob_classes,
    coreset_synthetic_family,
    gen_coreset_synthetic,
    gen_lb_barycenter,
    gen_ot_pair,
    gen_pullback,
    group_by_label,
    load_csv_distributions,
)
from baryreduce.projection import identity_map, make_gaussian_map
from baryreduce.transport import solve_ot
from conftest import solution_of
from paper_checks import (
    NotMultipleOfN,
    empirical_matching_distortion,
    lb_merge_cost,
    lb_pairs,
    lb_projected_merge,
    verify_low_rank_equivalence,
)


class TestLbBarycenter:
    def test_anchor_instance(self):
        mus, opt, n = gen_lb_barycenter(2, 10, 1, 0.1)
        assert opt == pytest.approx(0.81)
        assert n == 3
        assert len(mus) == 4
        pts = np.unique(np.concatenate([m.atoms for m in mus]), axis=0)
        expected = {(10.0, 0.0), (11.0, 0.0), (0.0, 10.0), (0.0, 10.9)}
        assert {tuple(p) for p in pts} == expected
        for mu in mus:
            assert mu.size == 3
            np.testing.assert_allclose(mu.weights, 1 / 3)

    def test_far_pair_gaps_are_unit(self):
        mus, _, _ = gen_lb_barycenter(4, 10, 1, 0.1)
        pairs = lb_pairs(mus)
        for i in range(3):
            assert np.linalg.norm(pairs[i, 0] - pairs[i, 1]) == pytest.approx(1.0)
        assert np.linalg.norm(pairs[3, 0] - pairs[3, 1]) == pytest.approx(0.9)

    def test_cross_pair_distance(self):
        mus, _, _ = gen_lb_barycenter(2, 10, 1, 0.1)
        pts = np.unique(np.concatenate([m.atoms for m in mus]), axis=0)
        D = cdist(pts, pts)
        axes = np.argmax(np.abs(pts), axis=1)
        cross = min(D[i, j] for i in range(4) for j in range(4)
                    if axes[i] != axes[j])
        assert cross >= 10 * 0.9 * np.sqrt(2) - 1e-9

    def test_merge_costs(self):
        mus, opt, _ = gen_lb_barycenter(2, 10, 1, 0.1)
        assert lb_merge_cost(mus, 1) == pytest.approx(opt, abs=1e-9)
        assert lb_merge_cost(mus, 0) == pytest.approx(1.0)

    def test_identity_map_picks_close_pair(self):
        mus, opt, _ = gen_lb_barycenter(2, 10, 1, 0.1)
        j, low, pull = lb_projected_merge(mus, identity_map(2))
        assert j == 1
        assert pull == pytest.approx(opt, abs=1e-9)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            gen_lb_barycenter(1, 10, 1, 0.1)
        with pytest.raises(BadParams):
            gen_lb_barycenter(2, 10, 1, 2.0)
        with pytest.raises(BadParams):
            gen_lb_barycenter(2, 1, 1, 0.1)
        for p in (0.5, float("nan")):
            with pytest.raises(BadParams):
                gen_lb_barycenter(2, 10, 1, 0.1, p)


class TestOtPair:
    def test_small_instance(self):
        A, B, M = gen_ot_pair(2)
        assert M == 1.0
        assert {tuple(p) for p in A} == {(1.0, 0.0), (0.0, 0.5)}
        assert {tuple(p) for p in B} == {(0.0, 1.0), (0.5, 0.0)}

    def test_partner_distances(self):
        A, B, _ = gen_ot_pair(6)
        D = cdist(A, B)
        assert ((D < 0.5 + 1e-12).sum(axis=1) == 1).all()

    def test_m_is_half_d(self):
        assert gen_ot_pair(6)[2] == 3.0

    def test_optimal_matching_cost_equals_m(self):
        A, B, M = gen_ot_pair(8)
        mu = make_distribution(A, np.full(len(A), 1 / len(A)))
        nu = make_distribution(B, np.full(len(B), 1 / len(B)))
        assert len(A) * solve_ot(mu, nu, 1.0).cost == pytest.approx(M)

    def test_odd_d_rejected(self):
        with pytest.raises(BadParams):
            gen_ot_pair(5)


class TestPullback:
    def test_small_instance(self):
        A, B, M = gen_pullback(2, 2)
        pts = sorted(map(tuple, np.concatenate([A, B])))
        assert pts == [(0.0, 0.5), (0.0, 1.0), (0.5, 0.0), (1.0, 0.0)]
        assert len(A) == len(B) == 2
        assert M == 1.0

    def test_alternating_membership(self):
        A, B, _ = gen_pullback(4, 4)
        # adjacent levels on the same axis land in different sets
        in_a = {tuple(p) for p in A}
        for i in range(4):
            for level in range(1, 4):
                lo, hi = np.zeros(4), np.zeros(4)
                lo[i], hi[i] = level / 4, (level + 1) / 4
                assert (tuple(lo) in in_a) != (tuple(hi) in in_a)

    def test_top_levels_split_evenly(self):
        A, B, _ = gen_pullback(6, 2)
        tops_in_a = sum(1 for p in A if np.max(p) == 1.0)
        assert tops_in_a == 3

    def test_bad_params(self):
        with pytest.raises(BadParams):
            gen_pullback(3, 2)
        with pytest.raises(BadParams):
            gen_pullback(2, 3)


class TestCoresetSynthetic:
    def test_small(self):
        mus = gen_coreset_synthetic(3)
        assert [m.atoms[0, 0] for m in mus] == [0.0, 0.0, 3.0]

    @pytest.mark.parametrize("k", [2, 3, 1000])
    def test_family_expands_to_the_list(self, k):
        distinct, slot = coreset_synthetic_family(k)
        mus = gen_coreset_synthetic(k)
        assert len(distinct) == 2 and slot.shape == (k,)
        objects = [mus[0], mus[-1]]  # the list repeats these two objects as slot says
        assert all(objects[s] is mu for s, mu in zip(slot.tolist(), mus))
        for made, listed in zip(distinct, objects):
            np.testing.assert_array_equal(made.atoms, listed.atoms)
            np.testing.assert_array_equal(made.weights, listed.weights)
        assert [mu.atoms[0, 0] for mu in distinct] == [0.0, float(k)]

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_family_needs_two_inputs(self, k):
        with pytest.raises(BadParams):
            coreset_synthetic_family(k)
        with pytest.raises(BadParams):
            gen_coreset_synthetic(k)

    def test_closed_form_costs(self):
        from baryreduce.transport import wasserstein_p
        k = 10
        mus = gen_coreset_synthetic(k)
        at0 = sum(wasserstein_p(m, mus[0], 2.0) ** 2 for m in mus) / k
        assert at0 == pytest.approx(k)
        one = make_distribution([[1.0]], [1.0])
        at1 = sum(wasserstein_p(m, one, 2.0) ** 2 for m in mus) / k
        assert at1 == pytest.approx(k - 1)


class TestMatching:
    def test_identity_map_all_equal(self):
        A, B, _ = gen_ot_pair(8)
        low, pull, high = empirical_matching_distortion(A, B, None, 1.0)
        assert low == pytest.approx(pull) == pytest.approx(high)

    def test_full_dim_gaussian_near_one(self):
        A, B, M = gen_ot_pair(64)
        ratios = []
        for seed in range(5):
            _, pull, high = empirical_matching_distortion(
                A, B, make_gaussian_map(64, 64, seed), 1.0)
            ratios.append(pull / high)
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.05)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"^\|A\|=2 vs \|B\|=3$"):
            empirical_matching_distortion(np.zeros((2, 2)), np.zeros((3, 2)))


class TestGroupByLabel:
    def test_label_count_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^3 points vs 2 labels$"):
            group_by_label(np.zeros((3, 4)), [1, 2])

    def test_basic(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        out = group_by_label(pts, [0, 0, 1])
        assert len(out) == 2
        np.testing.assert_allclose(out[0].weights, [0.5, 0.5])
        np.testing.assert_allclose(out[1].weights, [1.0])


class TestCsv:
    def test_two_rows(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,0.5,1.0\n0,0.5,3.0\n")
        out = load_csv_distributions(f)
        assert len(out) == 1
        np.testing.assert_allclose(out[0].atoms, [[1.0], [3.0]])

    def test_header_and_crlf(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("dist,w,x\r\n0,1.0,5.0\r\n")
        out = load_csv_distributions(f)
        np.testing.assert_allclose(out[0].atoms, [[5.0]])

    def test_ragged(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,0.5,1.0\n0,0.5,3.0,4.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(f))}:2: 2 coords, expected 1$"):
            load_csv_distributions(f)

    def test_bad_weight_sum(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,0.5,1.0\n0,0.4,3.0\n")
        with pytest.raises(BadWeights):
            load_csv_distributions(f)

    @pytest.mark.parametrize("text, error, message", [
        ("a,0.5,inf\nb,0.3,1\na,0.5,2\nb,0.6,1\n", "BadPoints", "coordinates must be finite"),
        ("a,0.4,1\nb,0.5,inf\na,0.5,2\nb,0.5,1\n", "BadWeights", "'a' weights sum to"),
        ("a,0.5,1\nb,-0.5,1\na,0.5,2\nb,1.5,1\n", "BadWeights", "finite and nonnegative"),
        ("a,0.5,1\nb,nan,1\na,0.5,2\nb,1.0,1\n", "BadWeights", "finite and nonnegative"),
    ], ids=["points_first", "sum_first", "negative", "nan"])
    def test_first_group_at_fault_raises(self, tmp_path, text, error, message):
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(getattr(core, error), match=message):
            load_csv_distributions(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        assert load_csv_distributions(f) == []

    LAYOUT = ("dist,w,x,y\r\n"
              "a,0.25,0.1,1e-3\r\n"
              "\r\n"
              "b,1.0, 2.5 ,-7\r\n"
              "   \t\r\n"
              " a ,0.75,3.141592653589793,123456789.123456789\r\n")

    def _check_layout(self, out):
        assert len(out) == 2  # a before b: first-seen order, rows of a apart
        a, b = out
        np.testing.assert_array_equal(a.atoms, [[float("0.1"), float("1e-3")],
                                                [float("3.141592653589793"),
                                                 float("123456789.123456789")]])
        np.testing.assert_array_equal(a.weights, [0.25, 0.75])
        np.testing.assert_array_equal(b.atoms, [[float(" 2.5 "), float("-7")]])

    def test_header_crlf_blank_lines_and_groups(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_bytes(self.LAYOUT.encode())
        self._check_layout(load_csv_distributions(f))

    @pytest.mark.parametrize("old, new", [(" a ,0.75", '"a",0.75'),
                                          ("b,1.0,", 'b,"1.0",')],
                             ids=["key", "number"])
    def test_quoted_fields(self, tmp_path, old, new):
        f = tmp_path / "d.csv"
        f.write_bytes(self.LAYOUT.replace(old, new).encode())
        self._check_layout(load_csv_distributions(f))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["\n \r\n\t\n", "dist,w,x\n", '"dist",w,x\n'],
                             ids=["blank_lines", "header_only", "quoted_header_only"])
    def test_no_rows(self, tmp_path, text):
        # numpy warns when loadtxt is handed a stream without rows; the empty
        # file is test_empty_file
        f = tmp_path / "d.csv"
        f.write_text(text)
        assert load_csv_distributions(f) == []

    BOM = "\ufeff0,0.5,1.0,2.0\n0,0.5,3.0,1.0\n1,1.0,2.0,2.0\n"

    @pytest.mark.parametrize("text", [BOM, BOM.replace("\n1,", '\n"1",')],
                             ids=["plain", "quoted"])
    def test_leading_byte_order_mark(self, tmp_path, text):
        f = tmp_path / "d.csv"
        f.write_bytes(text.encode())
        a, b = load_csv_distributions(f)
        np.testing.assert_array_equal(a.atoms, [[1.0, 2.0], [3.0, 1.0]])
        np.testing.assert_array_equal(a.weights, [0.5, 0.5])
        np.testing.assert_array_equal(b.atoms, [[2.0, 2.0]])

    @staticmethod
    def _write_repr_csv(path, keys, block, quoted=False):
        # floats as repr, as bench/workloads.py::write_csv writes them;
        # quoted, the keys are in quotes
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC if quoted
                                else csv.QUOTE_MINIMAL)
            for key, row in zip(keys, block.tolist()):
                writer.writerow([str(key), *row])

    def test_readers_agree(self, tmp_path):
        # plain and quoted text read back the written keys and block bit for bit
        rng = np.random.default_rng(11)
        block = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-30, 30, (40, 7))
        keys = [f"k{i}" for i in rng.integers(0, 5, 40)]
        for quoted in (False, True):
            f = tmp_path / f"random{quoted}.csv"
            self._write_repr_csv(f, keys, block, quoted)
            read_keys, read = instances._csv_rows(f)
            assert read_keys == keys
            assert read.dtype == block.dtype and read.shape == block.shape
            assert read.tobytes() == block.tobytes()

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    def test_memory_bounded_by_numeric_block(self, tmp_path, quoted):
        # 300 rows of 784 coordinates in 10 groups: the block is 1.8 MiB,
        # the text 2.5 times that
        n, d = 300, 784
        rng = np.random.default_rng(7)
        block = np.column_stack([np.full(n, 10 / n), rng.standard_normal((n, d))])
        f = tmp_path / "d.csv"
        self._write_repr_csv(f, np.arange(n) % 10, block, quoted)
        tracemalloc.start()
        try:
            out = load_csv_distributions(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * block.nbytes
        assert len(out) == 10
        np.testing.assert_array_equal(out[3].atoms, block[3::10, 1:])

    @pytest.mark.parametrize("text, message", [
        ("0,0.5,1,2\n0,0.5,3,4\n\n1,1.0,5,6\n1,1.0,7\n", "5: 1 coords, expected 2"),
        ("0,0.5,1\n0,0.5,2\n0,abc,3\n", "3: non-numeric field"),
        ("0,0.5,1\n0,0.5,1e400x\n", "2: non-numeric field"),
        ("0,0.5,1\n0,\n", "2: non-numeric field"),
        ("0,1.0\n", "1: need dist_id, w, coords"),
        ("0,0.5,1\n0,0.5\n", "2: need dist_id, w, coords"),
        ("0,0.5,1\n5\n", "2: need dist_id, w, coords"),
    ], ids=["ragged", "non_numeric", "bad_float", "empty_field", "short_first",
            "short", "key_only"])
    def test_malformed_row_names_its_line(self, tmp_path, text, message):
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(f'{f}:{message}')}$"):
            load_csv_distributions(f)

    @pytest.mark.parametrize("text, message", [
        ('"a\nb",0.5,1\n"a\nb",0.5,2\n0,abc,3\n', "1: quoted field spans lines"),
        ('0,0.5,1\n0,0.5,"2', "2: quoted field spans lines"),
        ("0,0.5,1\n0,0.5,1_000\n", "2: non-numeric field"),
        ('0,0.5,1\n0,"0.5,1",2\n', "2: non-numeric field"),
        ('"a",0.5,1\n\n"a",0.5,x\n', "3: non-numeric field"),
        ('"a",0.5,1\n"a",0.5,2,3\n', "2: 2 coords, expected 1"),
        ('0,0.5,1\n"' + "k" * 200_000 + '",0.5,2\n', "2: field larger than"),
    ], ids=["spans_lines", "open_at_end", "underscore", "comma_in_value",
            "quoted_non_numeric", "quoted_ragged", "over_field_limit"])
    def test_quoted_and_numeric_errors_name_the_line(self, tmp_path, text, message):
        # a quoted field ends on its line, and a value must parse as np.loadtxt
        # parses it: float() alone would take 1_000
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(f'{f}:{message}')}"):
            load_csv_distributions(f)

    @settings(max_examples=150, deadline=None)
    @given(keys=st.lists(st.text(st.sampled_from('"a '), max_size=6), min_size=1, max_size=4))
    def test_quoted_keys_read_as_the_whole_line_reads(self, tmp_path_factory, keys):
        # only the key of each line holds quotes; the loader reads the key the
        # csv module reads from the whole line, or names the first line whose
        # quoted field stays open
        lines = [f"{key},1.0,{i}\n" for i, key in enumerate(keys)]
        f = tmp_path_factory.mktemp("keys") / "k.csv"
        f.write_text("".join(lines))
        expected = []
        for lineno, line in enumerate(lines, start=1):
            fields = next(csv.reader([line]))
            if fields[-1].endswith("\n"):
                with pytest.raises(ParseError, match=f"^{re.escape(str(f))}:{lineno}: "):
                    instances._csv_rows(f)
                return
            assert fields[1:] == ["1.0", str(lineno - 1)]
            expected.append(fields[0].strip())
        read_keys, block = instances._csv_rows(f)
        assert read_keys == expected
        np.testing.assert_array_equal(block, [[1.0, i] for i in range(len(keys))])


class TestLowRank:
    def test_two_point_mean_identity(self):
        mus = [make_distribution([[0.0, 0.0]], [1.0]),
               make_distribution([[2.0, 0.0]], [1.0])]
        sol = solution_of((np.array([[1.0]]), np.array([[1.0]])), np.array([1.0]))
        frob, bary, match = verify_low_rank_equivalence(pool_batch(mus), sol, 1)
        assert match
        assert frob == pytest.approx(2.0)  # both points 1 away from the mean

    def test_identity_plan_zero(self):
        mu = make_distribution([[0.0], [1.0]], [0.5, 0.5])
        sol = solution_of((np.eye(2) * 0.5,), np.array([0.5, 0.5]))
        frob, bary, match = verify_low_rank_equivalence(pool_batch([mu]), sol, 2)
        assert match and frob == pytest.approx(0.0, abs=1e-12)

    def test_not_multiple_rejected(self):
        mus = [make_distribution([[0.0]], [1.0]),
               make_distribution([[0.0], [1.0]], [0.25, 0.75])]
        bad = solution_of((np.array([[0.5, 0.5]]), np.array([[0.25, 0.0], [0.25, 0.5]])),
                          np.array([0.5, 0.5]))
        with pytest.raises(NotMultipleOfN, match="^plan 1 entries are not multiples of 1/2$"):
            verify_low_rank_equivalence(pool_batch(mus), bad, 2)

    def test_matches_per_cell_reference(self):
        # the triple loop the pooled np.repeat replaced: equal rows in the
        # same order give the same sum, bit for bit
        rng = np.random.default_rng(7)
        N, n = 6, 3
        mus, plans = [], []
        for T in (1, 3, 2):
            plan = np.zeros((T, n))
            np.add.at(plan, (rng.integers(0, T, N), np.arange(N) % n), 1.0 / N)
            plans.append(plan)
            mus.append(make_distribution(rng.normal(size=(T, 4)), plan.sum(axis=1)))
        rows, assign = [], []
        for mu, plan in zip(mus, plans):
            for a in range(plan.shape[0]):
                for j in range(n):
                    c = int(np.rint(plan[a, j] * N))
                    rows.extend([mu.atoms[a]] * c)
                    assign.extend([j] * c)
        B, assign = np.array(rows), np.array(assign)
        X = np.zeros((len(B), n))
        for j in range(n):
            X[assign == j, j] = 1.0 / np.sqrt((assign == j).sum())
        want = np.sum((B - X @ (X.T @ B)) ** 2) / N
        frob, _, match = verify_low_rank_equivalence(
            pool_batch(mus), solution_of(plans, np.full(n, 1.0 / n)), N)
        assert match and frob == want

    def test_two_inputs_share_columns(self):
        mus = [make_distribution([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5]),
               make_distribution([[0.0, 3.0]], [1.0])]
        sol = solution_of((np.array([[0.25, 0.25], [0.25, 0.25]]), np.array([[0.5, 0.5]])),
                          np.array([0.5, 0.5]))
        frob, bary, match = verify_low_rank_equivalence(pool_batch(mus), sol, 4)
        # each column holds (0,0), (1,0) and (0,3) twice, around (1/4, 3/2)
        per_column = 2.3125 + 2.8125 + 2 * 2.3125
        assert match and frob == pytest.approx(2 * per_column / 4)


class TestBlobs:
    def test_shapes_and_determinism(self):
        pts, labels = gen_blob_classes(3, 5, 8, seed=1)
        assert pts.shape == (15, 8)
        pts2, _ = gen_blob_classes(3, 5, 8, seed=1)
        np.testing.assert_array_equal(pts, pts2)
