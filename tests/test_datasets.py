import numpy as np
import pytest

from qkshots import (
    generate_random_angles,
    generate_twonorm,
    load_csv,
    preprocess,
    select_features,
    stratify,
)
from qkshots.datasets import Dataset


class TestLoadCsv:
    def test_toy_file(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,label\n1.0,2.0,M\n3.5,4.0,R\n5.0,6.5,M\n")
        ds = load_csv(path, label_column="label")
        assert ds.m == 3 and ds.n_features == 2
        assert np.array_equal(ds.labels, [0, 1, 0])  # M < R in sorted order
        assert ds.features[1, 1] == 4.0

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(path, label_column="label")

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,label\nx,0\n1,1\n")
        with pytest.raises(ValueError, match="parse"):
            load_csv(path, label_column="label")

    def test_cells_read_as_float_reads_them(self, tmp_path):
        cells = [" 1.5", "2.5e-3 ", "1_000", "-4E+2", "\t7", "+.5", "-0"]
        path = tmp_path / "toy.csv"
        path.write_text("label," + ",".join(f"f{k}" for k in range(len(cells))) + "\n"
                        + "0," + ",".join(cells) + "\n" + "1," + ",".join(cells[::-1]) + "\n")
        ds = load_csv(path, label_column="label")
        expected = [float(c) for c in cells]
        assert ds.features.tolist() == [expected, expected[::-1]]
        assert np.signbit(ds.features[0, -1])

    @pytest.mark.parametrize("text, column", [
        ("a,b,label\n1,2,0\n1,2e,1\n3,4,0\n", "b"),
        # with the label column first, column 2 is the first feature
        ("label,a,b\n0,1,2\n1,2e,2\n0,3,4\n", "a"),
    ])
    def test_bad_cell_is_named_by_row_and_column(self, tmp_path, text, column):
        # row 3 of the file, column 2, holds the cell float() refuses
        path = tmp_path / "toy.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_csv(path, label_column="label")
        assert str(err.value) == f"{path}: row 3, column {column!r}: cannot parse '2e' as a number"

    def test_more_than_two_classes(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,label\n1,0\n2,1\n3,2\n")
        with pytest.raises(ValueError, match="2 label classes"):
            load_csv(path, label_column="label")


class TestGenerateTwonorm:
    def test_balanced_classes(self):
        ds = generate_twonorm(100, seed=1)
        assert ds.class_counts() == {0: 50, 1: 50}
        assert ds.n_features == 20

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            generate_twonorm(101)

    def test_class_means_near_centres(self):
        m, d = 10_000, 20
        ds = generate_twonorm(m, n_features=d, seed=3)
        centre = 2.0 / np.sqrt(d)
        tolerance = 4.0 / np.sqrt(m / 2)
        for label, sign in ((0, -1.0), (1, 1.0)):
            means = ds.features[ds.labels == label].mean(axis=0)
            assert np.all(np.abs(means - sign * centre) < tolerance)

    def test_seed_determinism(self):
        a = generate_twonorm(50, seed=9)
        b = generate_twonorm(50, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestPreprocess:
    def test_standardisation_postconditions(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(3.0, 2.5, size=(40, 5)), rng.integers(0, 2, 40))
        out = preprocess(ds)
        assert np.max(np.abs(out.features.mean(axis=0))) < 1e-10
        assert np.max(np.abs(out.features.std(axis=0) - 1.0)) < 1e-10
        assert out.preprocessing["centered"] and out.preprocessing["standardized"]

    def test_constant_column_dropped(self):
        features = np.column_stack([np.ones(10), np.arange(10.0)])
        ds = Dataset(features, np.zeros(10, dtype=int))
        with pytest.warns(RuntimeWarning, match="zero-variance"):
            out = preprocess(ds)
        assert out.n_features == 1

    def test_all_constant_rejected(self):
        ds = Dataset(np.ones((5, 2)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            preprocess(ds)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        ds = Dataset(rng.normal(size=(30, 4)), rng.integers(0, 2, 30))
        once = preprocess(ds)
        twice = preprocess(once)
        assert np.max(np.abs(twice.features - once.features)) < 1e-10

    def test_keeps_original_variances_for_ordering(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(50, 3)) * np.array([1.0, 3.0, 2.0])
        ds = Dataset(features, np.zeros(50, dtype=int))
        out = preprocess(ds)
        assert out.feature_variances is not None
        assert np.argmax(out.feature_variances) == 1

    def test_row_order_unchanged(self):
        rng = np.random.default_rng(6)
        features = rng.normal(size=(10, 2))
        ds = Dataset(features, np.arange(10) % 2)
        out = preprocess(ds)
        order = np.argsort(features[:, 0])
        assert np.array_equal(
            np.argsort(out.features[:, 0]), order
        )


class TestSelectFeatures:
    def test_descending_variance_order(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(200, 3)) * np.sqrt([1.0, 3.0, 2.0])
        ds = Dataset(features, np.zeros(200, dtype=int))
        out = select_features(ds, 2)
        # columns ordered by raw variance: original index 1 then 2
        assert np.array_equal(out.features[:, 0], ds.features[:, 1])
        assert np.array_equal(out.features[:, 1], ds.features[:, 2])

    def test_selection_after_standardisation_uses_raw_variance(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(500, 3)) * np.sqrt([1.0, 5.0, 2.0])
        out = select_features(preprocess(Dataset(features, np.zeros(500, dtype=int))), 3)
        assert np.array_equal(np.argsort(-out.feature_variances), [0, 1, 2])
        assert out.feature_variances[0] > out.feature_variances[1] > out.feature_variances[2]

    def test_ties_broken_by_original_index(self):
        features = np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        ds = Dataset(features, np.zeros(4, dtype=int))
        out = select_features(ds, 2)
        assert np.array_equal(out.features, features[:, :2])

    def test_full_selection_is_permutation(self):
        rng = np.random.default_rng(11)
        ds = Dataset(rng.normal(size=(20, 4)), np.zeros(20, dtype=int))
        out = select_features(ds, 4)
        assert sorted(map(tuple, out.features.T)) == sorted(map(tuple, ds.features.T))

    def test_repeated_calls_identical(self):
        rng = np.random.default_rng(12)
        ds = Dataset(rng.normal(size=(20, 4)), np.zeros(20, dtype=int))
        first = select_features(ds, 3)
        second = select_features(ds, 3)
        assert np.array_equal(first.features, second.features)

    def test_too_many_requested(self):
        ds = Dataset(np.zeros((5, 2)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            select_features(ds, 3)


class TestStratify:
    def test_twonorm_cover(self):
        ds = generate_twonorm(7400, seed=2)
        subsets = stratify(ds, subset_size=100, seed=3)
        assert len(subsets) == 74
        for sub in subsets:
            assert sub.m == 100
            assert sub.class_counts() == {0: 50, 1: 50}

    def test_union_is_the_dataset(self):
        ds = generate_twonorm(400, n_features=4, seed=5)
        subsets = stratify(ds, subset_size=100, seed=1)
        rows = np.vstack([s.features for s in subsets])
        assert sorted(map(tuple, rows)) == sorted(map(tuple, ds.features))

    def test_remainder_dropped_with_warning(self):
        ds = generate_twonorm(110, n_features=4, seed=7)
        with pytest.warns(RuntimeWarning, match="drop"):
            subsets = stratify(ds, subset_size=100, seed=1)
        assert len(subsets) == 1

    def test_class_too_small(self):
        ds = generate_twonorm(40, n_features=4, seed=8)
        with pytest.raises(ValueError):
            stratify(ds, subset_size=100, seed=1)

    def test_odd_subset_size_rejected(self):
        ds = generate_twonorm(100, n_features=4, seed=8)
        with pytest.raises(ValueError):
            stratify(ds, subset_size=99, seed=1)

    def test_seeded_shuffle_determinism(self):
        ds = generate_twonorm(200, n_features=4, seed=8)
        a = stratify(ds, subset_size=100, seed=4)
        b = stratify(ds, subset_size=100, seed=4)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.features, sb.features)


class TestRandomAngles:
    def test_shape_and_range(self):
        ds = generate_random_angles(50, 6, seed=1)
        assert ds.features.shape == (50, 6)
        assert ds.features.min() >= 0.0 and ds.features.max() < 2 * np.pi

    def test_deterministic(self):
        a = generate_random_angles(10, 3, seed=2)
        b = generate_random_angles(10, 3, seed=2)
        assert np.array_equal(a.features, b.features)
