"""Dataset parsing, formatting, generation, and splitting."""
import io

import numpy as np
import pytest

from fairltr import data


SAMPLE = """\
2 qid:7 1:1.5 2:0.25 # first doc
0 qid:7 1:-3.0 2:1e-4
1 qid:9 1:0.0 2:2.0
"""


def test_parse_letor_basic():
    ds = data.parse_letor(SAMPLE)
    assert len(ds) == 2
    assert ds.feature_dim == 2
    assert not ds.has_groups
    q7, q9 = ds.queries
    assert q7.qid == "7" and q9.qid == "9"
    assert len(q7) == 2 and len(q9) == 1
    np.testing.assert_allclose(q7.feature_matrix,
                               [[1.5, 0.25], [-3.0, 1e-4]])
    np.testing.assert_allclose(q7.relevances, [2.0, 0.0])


def test_parse_letor_groups_queries_by_first_appearance():
    text = "1 qid:b 1:1\n0 qid:a 1:2\n2 qid:b 1:3\n"
    ds = data.parse_letor(text)
    assert [q.qid for q in ds.queries] == ["b", "a"]
    assert len(ds.queries[0]) == 2


def test_parse_letor_pads_missing_features():
    ds = data.parse_letor("1 qid:1 3:2.5\n", feature_dim=4)
    np.testing.assert_allclose(ds.queries[0].feature_matrix,
                               [[0.0, 0.0, 2.5, 0.0]])
    assert ds.feature_dim == 4


def test_parse_letor_accepts_file_objects():
    ds = data.parse_letor(io.StringIO(SAMPLE))
    assert len(ds) == 2


@pytest.mark.parametrize("text", [
    "",
    "1 qid:1\n",                    # no features
    "1 qid:1 0:2.0\n",              # feature ids are 1-based
    "1 qid:1 1:1.0 1:2.0\n",        # duplicate feature id
    "x qid:1 1:1.0\n",              # bad relevance
    "1 1:1.0\n",                    # missing qid
    "nan qid:1 1:1.0\n",            # non-finite relevance
    "-inf qid:1 1:1.0\n",
    "1 qid:1 1:inf\n",              # non-finite feature
    "1 qid:1 1:1.0 2:NaN\n",
])
def test_parse_letor_rejects_malformed(text):
    with pytest.raises(data.ParseError):
        data.parse_letor(text)


def test_parse_error_reports_line_number():
    with pytest.raises(data.ParseError, match="line 2"):
        data.parse_letor("1 qid:1 1:1.0\nbroken\n")


def test_letor_round_trip_is_bit_exact():
    rng = np.random.default_rng(5)
    docs = []
    for qid in ("1", "2", "3"):
        for _ in range(4):
            scale = 10.0 ** float(rng.integers(-8, 8))
            docs.append((qid, data.Document(rng.normal(size=3) * scale,
                                            float(rng.integers(0, 5)))))
    queries = []
    for qid in ("1", "2", "3"):
        queries.append(data.Query(qid, [d for q, d in docs if q == qid]))
    ds = data.Dataset(queries, 3)
    text = data.format_letor(ds)
    again = data.parse_letor(text)
    assert data.datasets_equal(ds, again)
    assert data.format_letor(again) == text


def test_group_file_round_trip(tmp_path):
    ds = data.generate_simulated(num_queries=5, docs_per_query=4, seed=1)
    letor, groups = tmp_path / "d.letor", tmp_path / "d.groups"
    data.save_dataset(ds, letor, groups)
    again = data.load_dataset(letor, groups)
    assert again.has_groups
    assert data.datasets_equal(ds, again)
    bare = data.load_dataset(letor, None)
    assert not bare.has_groups


def test_group_file_must_match_shape():
    ds = data.parse_letor("1 qid:1 1:1\n0 qid:1 1:2\n")
    with pytest.raises(data.DataError):
        data.parse_group_file("0\n", ds)          # one token, two docs


def test_dataset_rejects_mixed_group_presence():
    with_g = data.Query("1", [data.Document(np.zeros(1), 1.0, 0)])
    without = data.Query("2", [data.Document(np.zeros(1), 1.0)])
    with pytest.raises(data.DataError):
        data.Dataset([with_g, without], 1)


def test_query_rejects_inconsistent_feature_dims():
    docs = [data.Document(np.zeros(2), 1.0), data.Document(np.zeros(3), 0.0)]
    with pytest.raises(data.DataError):
        data.Query("1", docs)


def test_query_arrays_are_read_only_copies():
    feats = np.arange(6.0).reshape(2, 3)
    rels, groups = np.array([1.0, 0.0]), np.array([0, 1])
    docs = [data.Document(feats[i], rels[i], int(groups[i])) for i in range(2)]
    for query in (data.Query.from_arrays("q", feats, rels, groups),
                  data.Query("q", docs)):
        for values in (query.feature_matrix, query.relevances, query.groups):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 7
        np.testing.assert_array_equal(query.feature_matrix, feats)
        np.testing.assert_array_equal(query.relevances, rels)
        np.testing.assert_array_equal(query.groups, groups)
    feats[0, 0] = 9.0
    assert query.feature_matrix[0, 0] == 0.0 and feats.flags.writeable


@pytest.mark.parametrize("build, message", [
    (lambda: data.Query("q", []), "no documents"),
    (lambda: data.Query.from_arrays("q", np.zeros((0, 2)), []), "no documents"),
    (lambda: data.Query.from_arrays("q", np.zeros((3, 2)), [1.0, 0.0]),
     "inconsistent feature shapes"),
    (lambda: data.Query.from_arrays("q", np.zeros(2), [1.0, 0.0]),
     "inconsistent feature shapes"),
    (lambda: data.Query.from_arrays("q", np.zeros((2, 1)), [[1.0, 0.0]]),
     "inconsistent feature shapes"),
    (lambda: data.Query.from_arrays("q", np.zeros((2, 1)), [1.0, 0.0], [0]),
     "1 group labels for 2 documents"),
])
def test_query_from_arrays_is_checked_like_documents(build, message):
    with pytest.raises(data.DataError, match=message):
        build()


def test_generate_simulated_shape_and_determinism():
    a = data.generate_simulated(num_queries=6, docs_per_query=7, seed=3)
    b = data.generate_simulated(num_queries=6, docs_per_query=7, seed=3)
    c = data.generate_simulated(num_queries=6, docs_per_query=7, seed=4)
    assert len(a) == 6 and a.num_docs == 42 and a.feature_dim == 2
    assert a.has_groups
    assert data.datasets_equal(a, b)
    assert not data.datasets_equal(a, c)
    assert [q.qid for q in a.queries] == [str(i) for i in range(1, 7)]


def test_generate_simulated_minority_feature_is_withheld():
    ds = data.generate_simulated(num_queries=50, docs_per_query=10, seed=0)
    saw_minority = False
    for q in ds:
        for i in range(len(q)):
            x1, x2 = q.feature_matrix[i]
            rel = q.relevances[i]
            if q.groups[i] == 1:
                saw_minority = True
                assert x2 == 0.0
                assert rel >= np.clip(x1, 0.0, 5.0)    # hidden merit remains
            else:
                assert np.isclose(rel, np.clip(x1 + x2, 0.0, 5.0))
            assert 0.0 <= rel <= 5.0
    assert saw_minority


def test_convert_binary_table_counts_and_labels():
    rng = np.random.default_rng(0)
    records = [(rng.normal(size=3), int(i < 40), i % 2)
               for i in range(100)]
    ds = data.convert_binary_table(records, num_queries=8, candidate_size=10,
                                   relevant_fraction=0.2, seed=1)
    assert len(ds) == 8 and ds.has_groups
    for q in ds:
        assert len(q) == 10
        assert int((q.relevances > 0).sum()) == 2      # 10 - round(10 * 0.8)
        assert set(np.unique(q.relevances)) <= {0.0, 1.0}
    again = data.convert_binary_table(records, num_queries=8, candidate_size=10,
                                      relevant_fraction=0.2, seed=1)
    assert data.datasets_equal(ds, again)


def test_convert_binary_table_needs_both_classes():
    records = [(np.zeros(2), 1, 0) for _ in range(30)]
    with pytest.raises(data.DataError):
        data.convert_binary_table(records, num_queries=2, candidate_size=5,
                                  relevant_fraction=0.2)


def test_convert_binary_table_rejects_bad_labels():
    records = [(np.zeros(2), 2, 0)] + [(np.zeros(2), 0, 0)] * 20
    with pytest.raises(data.DataError):
        data.convert_binary_table(records, num_queries=1, candidate_size=4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_convert_binary_table_rejects_non_finite_features(bad):
    records = [(np.zeros(2), 1, 0)] * 5 + [(np.zeros(2), 0, 1)] * 20
    records[3] = (np.array([1.0, bad]), 1, 0)
    with pytest.raises(data.DataError, match="record 3"):
        data.convert_binary_table(records, num_queries=1, candidate_size=4)


def test_split_dataset_partitions_queries():
    ds = data.generate_simulated(num_queries=10, docs_per_query=3, seed=2)
    train, val = data.split_dataset(ds, 0.8, seed=0)
    assert len(train) == 8 and len(val) == 2
    ids = sorted(q.qid for q in train) + sorted(q.qid for q in val)
    assert sorted(ids) == sorted(q.qid for q in ds)
    train2, val2 = data.split_dataset(ds, 0.8, seed=0)
    assert data.datasets_equal(train, train2)
    assert data.datasets_equal(val, val2)


def test_split_dataset_clamps_to_leave_both_sides_nonempty():
    ds = data.generate_simulated(num_queries=3, docs_per_query=2, seed=0)
    train, val = data.split_dataset(ds, 0.999, seed=0)
    assert len(train) == 2 and len(val) == 1
    train, val = data.split_dataset(ds, 0.001, seed=0)
    assert len(train) == 1 and len(val) == 2


def test_split_dataset_needs_two_queries():
    ds = data.generate_simulated(num_queries=1, docs_per_query=2, seed=0)
    with pytest.raises(data.DataError):
        data.split_dataset(ds, 0.5)


def test_encode_table_mixes_numeric_and_categorical():
    rows = [["1.0", "red"], ["3.0", "blue"], ["5.0", "red"]]
    out = data.encode_table(rows)
    assert out.shape == (3, 3)                 # numeric + two categories
    np.testing.assert_allclose(out[:, 0].mean(), 0.0, atol=1e-12)
    np.testing.assert_allclose(out[:, 0].std(), 1.0)
    # categories one-hot before standardization, in sorted order (blue, red)
    raw = np.array([[0, 1], [1, 0], [0, 1]], dtype=float)
    expect = (raw - raw.mean(0)) / raw.std(0)
    np.testing.assert_allclose(out[:, 1:], expect)


def test_encode_table_zeroes_constant_columns():
    out = data.encode_table([["2", "a"], ["2", "a"]])
    np.testing.assert_allclose(out, 0.0)
