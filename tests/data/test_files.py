"""Unit tests for the file/dataset model."""


import pytest

from repro.data.files import DataFile, Dataset, FileCatalog, synthetic_dataset
from repro.errors import StorageError


class TestDataFile:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DataFile("x", -1)

    def test_str_includes_size(self):
        assert "7.00 MB" in str(DataFile("a", 7_000_000))

    def test_ordering_by_name(self):
        assert DataFile("a", 5) < DataFile("b", 1)


class TestDataset:
    def test_duplicate_names_rejected(self):
        ds = Dataset("d", [DataFile("a", 1)])
        with pytest.raises(StorageError):
            ds.add(DataFile("a", 2))

    def test_total_size(self):
        ds = Dataset("d", [DataFile("a", 10), DataFile("b", 20)])
        assert ds.total_size == 30

    def test_order_preserved(self):
        ds = Dataset("d", [DataFile("z", 1), DataFile("a", 1)])
        assert [f.name for f in ds] == ["z", "a"]

    def test_get_and_contains(self):
        ds = Dataset("d", [DataFile("a", 1)])
        assert "a" in ds
        assert ds.get("a").size == 1
        with pytest.raises(StorageError):
            ds.get("missing")

    def test_indexing(self):
        ds = Dataset("d", [DataFile("a", 1), DataFile("b", 2)])
        assert ds[1].name == "b"
        assert len(ds) == 2

    def test_from_directory(self, tmp_path):
        (tmp_path / "b.txt").write_text("bb")
        (tmp_path / "a.txt").write_text("a")
        (tmp_path / "sub").mkdir()
        ds = Dataset.from_directory(str(tmp_path))
        assert [f.name for f in ds] == ["a.txt", "b.txt"]  # sorted
        assert ds.get("b.txt").size == 2
        assert ds.get("a.txt").path == str(tmp_path / "a.txt")

    def test_from_directory_with_pattern(self, tmp_path):
        (tmp_path / "x.npy").write_text("1")
        (tmp_path / "y.txt").write_text("2")
        ds = Dataset.from_directory(str(tmp_path), pattern=lambda n: n.endswith(".npy"))
        assert [f.name for f in ds] == ["x.npy"]

    def test_from_missing_directory(self):
        with pytest.raises(StorageError):
            Dataset.from_directory("/nonexistent/nowhere")


class TestSyntheticDataset:
    def test_count_and_size(self):
        ds = synthetic_dataset("d", 10, "7 MB")
        assert len(ds) == 10
        assert all(f.size == 7_000_000 for f in ds)

    def test_names_sorted_and_unique(self):
        ds = synthetic_dataset("d", 100, 10)
        names = [f.name for f in ds]
        assert names == sorted(names)
        assert len(set(names)) == 100

    def test_size_cv_varies_sizes(self):
        ds = synthetic_dataset("d", 200, "1 MB", size_cv=0.5, seed=1)
        sizes = [f.size for f in ds]
        assert len(set(sizes)) > 100
        mean = sum(sizes) / len(sizes)
        assert 0.8e6 < mean < 1.25e6  # roughly the requested mean

    def test_deterministic_for_seed(self):
        a = synthetic_dataset("d", 5, "1 MB", size_cv=0.5, seed=3)
        b = synthetic_dataset("d", 5, "1 MB", size_cv=0.5, seed=3)
        assert [f.size for f in a] == [f.size for f in b]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            synthetic_dataset("d", -1, 10)

    def test_zero_count_ok(self):
        assert len(synthetic_dataset("d", 0, 10)) == 0


class TestFileCatalog:
    def test_replica_tracking(self):
        cat = FileCatalog()
        cat.add_replica("f", "n1")
        cat.add_replica("f", "n2")
        assert cat.holders("f") == frozenset({"n1", "n2"})
        assert cat.has_replica("f", "n1")
        assert not cat.has_replica("f", "n3")

    def test_files_on_node(self):
        cat = FileCatalog()
        cat.add_replica("a", "n1")
        cat.add_replica("b", "n2")
        assert cat.files_on("n1") == frozenset({"a"})

    def test_unknown_file_empty(self):
        assert FileCatalog().holders("ghost") == frozenset()
