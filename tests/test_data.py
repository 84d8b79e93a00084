"""Dataset parsing, formatting, generation, and splitting."""
import io
import random
import tracemalloc

import numpy as np
import pytest

from fairltr import data
import oracle


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
    q7, q9 = ds
    assert q7.qid == "7" and q9.qid == "9"
    assert len(q7) == 2 and len(q9) == 1
    np.testing.assert_allclose(q7.feature_matrix,
                               [[1.5, 0.25], [-3.0, 1e-4]])
    np.testing.assert_allclose(q7.relevances, [2.0, 0.0])


def test_parse_letor_groups_queries_by_first_appearance():
    text = "1 qid:b 1:1\n0 qid:a 1:2\n2 qid:b 1:3\n"
    ds = data.parse_letor(text)
    assert [q.qid for q in ds] == ["b", "a"]
    assert len(ds[0]) == 2


def test_parse_letor_pads_missing_features():
    ds = data.parse_letor("1 qid:1 3:2.5\n", feature_dim=4)
    np.testing.assert_allclose(ds[0].feature_matrix,
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


# A comment-only line, a blank line, a document with a comment and a line of
# blanks: the line after them is line 5.
PREFIX = "# header\n\n1 qid:0 1:0.5 # note\n \t \n"


@pytest.mark.parametrize("bad, message", [
    ("broken", "line 5: expected relevance and qid"),
    ("1 qid:1", "line 5: document has no features"),
    ("1 qid:1 0:2.0", "line 5: feature ids are 1-based, got 0"),
    ("1 qid:1 1:1.0 1:2.0", "line 5: feature id 1 repeated"),
    ("x qid:1 1:1.0", "line 5: bad relevance 'x'"),
    ("1 1:1.0", "line 5: expected qid:<id>, got '1:1.0'"),
    ("nan qid:1 1:1.0", "line 5: bad relevance 'nan'"),
    ("-inf qid:1 1:1.0", "line 5: bad relevance '-inf'"),
    ("1 qid:1 1:inf", "line 5: bad feature '1:inf'"),
    ("1 qid:1 1:1.0 2:NaN", "line 5: bad feature '2:NaN'"),
    ("1 qid:1 1:2:3", "line 5: bad feature '1:2:3'"),
    ("1 qid: 1:1.0", "line 5: expected qid:<id>, got 'qid:'"),
    ("1 qid:1 5", "line 5: expected fid:value, got '5'"),
    ("1 qid:1 5 1:2:3", "line 5: expected fid:value, got '5'"),
    ("1 qid:1 1:2:3 5", "line 5: bad feature '1:2:3'"),
    ("1 qid:1 a:1.0", "line 5: bad feature 'a:1.0'"),
    ("1 qid:1 :1.0", "line 5: bad feature ':1.0'"),
    ("1 qid:1 1:", "line 5: bad feature '1:'"),
    # The rules of a line apply in order: relevance, qid, then each feature
    # token in turn.
    ("x qid: 0:1", "line 5: bad relevance 'x'"),
    ("1 qid: 0:1", "line 5: expected qid:<id>, got 'qid:'"),
    ("1 qid:1 0:1 1:x", "line 5: feature ids are 1-based, got 0"),
    ("1 qid:1 1:x 0:1", "line 5: bad feature '1:x'"),
    ("1 qid:1 2:1 1:1 2:2 3:x", "line 5: feature id 2 repeated"),
    # The first bad line is named, after a document whose ids go beyond
    # feature_dim and widen the matrix.
    ("1 qid:1 9:1.0\n0 qid:1 1:x\nx qid:1 1:1", "line 6: bad feature '1:x'"),
    # Tabs separate tokens; CRLF and a lone CR end lines.
    ("1\tqid:1\t1:1.0\r\n0 qid:1 1:x\r\n", "line 6: bad feature '1:x'"),
    ("1 qid:1 1:1.0\r0 qid:1 2:1 2:2\r", "line 6: feature id 2 repeated"),
    ("1 qid:1 1:1.0 # 1:x\r\n\r\n0\tqid:2\t#", "line 7: document has no features"),
    # A feature id must fit the index type, and the first line naming one
    # that does not is refused, not a later bad line.
    ("1 qid:1 99999999999999999999:1",
     "line 5: bad feature '99999999999999999999:1'"),
    ("1 qid:1 99999999999999999999:1\n0 qid:1 1:x",
     "line 5: bad feature '99999999999999999999:1'"),
])
def test_every_parse_error_names_its_line(tmp_path, bad, message):
    """Each refusal of LETOR text has one message, naming the first bad line
    and the first rule it breaks, the same for text and for a file."""
    text = PREFIX + bad
    with pytest.raises(data.ParseError) as caught:
        data.parse_letor(text, feature_dim=2)
    assert str(caught.value) == message
    path = tmp_path / "d.letor"
    path.write_bytes(text.encode("ascii"))
    with pytest.raises(data.ParseError) as caught:
        data.load_dataset(path, None, 2)
    assert str(caught.value) == message


def test_ids_beyond_feature_dim_widen_the_matrix_and_crlf_parses():
    with pytest.raises(data.ParseError) as caught:
        data.parse_letor("# header\r\n\n \t\n# 1 qid:1 1:1\n")
    assert str(caught.value) == "no document lines found"
    ds = data.parse_letor("1\tqid:a\t3:2.5\r\n0 qid:a 1:1 # c\r\n\r\n", feature_dim=2)
    assert ds.feature_dim == 3
    np.testing.assert_array_equal(ds[0].feature_matrix,
                                  [[0.0, 0.0, 2.5], [1.0, 0.0, 0.0]])


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                       "\x85", "\u2028"])
def test_a_string_splits_into_lines_as_a_file_does(tmp_path, separator):
    """Only LF, CRLF and a lone CR end a line, in a string as in a file:
    the other line breaks of ``str.splitlines`` are whitespace inside one,
    so a token after them is on the same line, and so is a group label
    after a comment."""
    letor = f"1 qid:1 1:1{separator}2 qid:1 1:x\n0 qid:1 1:2\n"
    groups = f"0 # c{separator}1\n"
    cases = [(letor, None, "line 1: expected fid:value, got '2'"),
             ("1 qid:1 1:1\n0 qid:1 1:2\n", groups,
              "group file has 1 labels for 2 documents")]
    for text, group_text, message in cases:
        letor_path, groups_path = tmp_path / "d.letor", tmp_path / "d.groups"
        letor_path.write_text(text, encoding="utf-8")
        groups_path.write_text(group_text or "", encoding="utf-8")
        with open(letor_path, encoding="utf-8") as letor_file, \
                open(groups_path, encoding="utf-8") as groups_file:
            sources = [(text, group_text),
                       (letor_file, groups_file if group_text else None)]
            for source, group_source in sources:
                with pytest.raises(data.ParseError) as caught:
                    data.parse_letor(source, group_source)
                assert str(caught.value) == message
    with pytest.raises(data.ParseError) as caught:
        oracle.parse_letor_lines(letor)
    assert str(caught.value) == cases[0][2]


@pytest.mark.parametrize("text, message", [
    ("1 qid:1 4611686018427387904:1\n",
     "line 1: feature id 4611686018427387904 is too large"),
    ("# c\n1 qid:1 1:1\n\n0 qid:2 9223372036854775807:1 2:1\n"
     "0 qid:1 3:1 9223372036854775807:2\n",
     "line 4: feature id 9223372036854775807 is too large"),
])
def test_a_feature_id_no_matrix_can_hold_is_refused_with_its_line(tmp_path, text,
                                                                  message):
    """numpy refuses the dense matrix of such an id outright; the first line
    holding the largest id is named instead."""
    with pytest.raises(data.ParseError) as caught:
        data.parse_letor(text)
    assert str(caught.value) == message
    path = tmp_path / "d.letor"
    path.write_text(text, encoding="ascii")
    with pytest.raises(data.ParseError) as caught:
        data.load_dataset(path)
    assert str(caught.value) == message


def test_a_text_read_in_several_passes_parses_as_in_one(monkeypatch):
    """Lines are tokenized in passes of ``_PASS_LINES``: a qid that comes
    back in a later pass joins its query, and an error names its line
    counted over all passes."""
    text = ("# c\n1 qid:b 1:1 2:2\n\n0 qid:a 2:3 # x\n2 qid:b 1:4\n"
            "3 qid:c 2:5 1:6\n1 qid:a 1:7\n")
    whole = data.parse_letor(text, "1 0 1 0 1\n")
    monkeypatch.setattr(data, "_PASS_LINES", 2)
    for source in (text, io.StringIO(text), text.splitlines(True)):
        assert oracle.datasets_equal(data.parse_letor(source, "1 0 1 0 1\n"), whole)
    assert [q.qid for q in whole] == ["b", "a", "c"]
    assert whole[0].feature_matrix.tolist() == [[1.0, 2.0], [4.0, 0.0]]
    with pytest.raises(data.ParseError) as caught:
        data.parse_letor(text + "\n1 qid:d 1:1 1:2\n")
    assert str(caught.value) == "line 9: feature id 1 repeated"


# Tokens of random LETOR text: in each pool the first three are valid, the
# rest each break a rule or parse in an unusual way.
RELEVANCES = ("1", "0", "2.5", "-1", "1_0", "+2", "x", "nan", "inf")
QIDS = ("qid:1", "qid:2", "qid:a", "qid:", "1", "qid:1:2", "Qid:1")
FEATURES = ("1:2", "2:0.5", "3:-0.0", "1_0:2", "+2:1", "1:1e-300", "1:2:3",
            "0:1", "-1:1", "a:1", "1:", ":1", "5", "2:inf",
            "99999999999999999999:1", "-99999999999999999999:1",
            "9223372036854775808:1")


def random_letor(rng: random.Random) -> str:
    """A few lines of LETOR text with tabs, CR and CRLF line ends, blank and
    comment lines and comments after documents.  A line is valid, or has
    one token drawn from its whole pool, or too few tokens."""
    lines = []
    for _ in range(rng.randint(1, 5)):
        tokens = [RELEVANCES[rng.randrange(3)], QIDS[rng.randrange(3)],
                  *rng.sample(FEATURES[:3], rng.randint(1, 3))]
        if rng.random() < 0.3:
            at = rng.randrange(len(tokens))
            tokens[at] = rng.choice(at == 0 and RELEVANCES or at == 1 and QIDS
                                    or FEATURES)
        if rng.random() < 0.05:
            tokens = tokens[:rng.randint(0, 2)]
        if rng.random() < 0.15:
            tokens.append("# c 1:x")
        lines.append(rng.choice(" \t").join(tokens)
                     + rng.choice(["\n", "\n", "\r\n", "\r"]))
    return "".join(lines)


def test_the_parser_agrees_with_the_line_by_line_reference(monkeypatch):
    """On random texts, in passes of 256 lines and of 2, the parser gives
    the dataset of ``oracle.parse_letor_lines`` or its exact error."""
    rng = random.Random(21)
    outcomes = []
    for pass_lines in (256, 2):
        monkeypatch.setattr(data, "_PASS_LINES", pass_lines)
        for _ in range(1250):
            text = random_letor(rng)
            feature_dim = rng.choice([None, 2])
            try:
                want = oracle.parse_letor_lines(text, feature_dim)
            except data.ParseError as exc:
                with pytest.raises(data.ParseError) as caught:
                    data.parse_letor(text, feature_dim=feature_dim)
                assert str(caught.value) == str(exc), text
                outcomes.append(False)
            else:
                assert oracle.datasets_equal(
                    data.parse_letor(text, feature_dim=feature_dim), want), text
                outcomes.append(True)
    # Both outcomes are common, so both paths are compared.
    assert 0.2 < np.mean(outcomes) < 0.8


@pytest.mark.parametrize("groups, message", [
    ("0\n1\n2 # c\n", "group labels must be 0 or 1, got '2'"),
    ("0 1\n# 1\nx\n", "group labels must be 0 or 1, got 'x'"),
    ("0\n1\n", "group file has 2 labels for 3 documents"),
    ("0\n1 1 0\n", "group file has 4 labels for 3 documents"),
    # The count is checked before the labels.
    ("0\n2\n", "group file has 2 labels for 3 documents"),
])
def test_every_group_file_error_is_named(tmp_path, groups, message):
    letor = "1 qid:1 1:1\n0 qid:2 1:2\n1 qid:1 1:3\n"
    with pytest.raises(data.ParseError) as caught:
        data.parse_letor(letor, groups)
    assert str(caught.value) == message
    (tmp_path / "d.letor").write_text(letor)
    (tmp_path / "d.groups").write_bytes(groups.replace("\n", "\r\n").encode())
    with pytest.raises(data.ParseError) as caught:
        data.load_dataset(tmp_path / "d.letor", tmp_path / "d.groups")
    assert str(caught.value) == message


def test_letor_round_trip_is_bit_exact():
    rng = np.random.default_rng(5)
    queries = []
    for qid in ("1", "2", "3"):
        features, relevances = [], []
        for _ in range(4):
            scale = 10.0 ** float(rng.integers(-8, 8))
            features.append(rng.normal(size=3) * scale)
            relevances.append(float(rng.integers(0, 5)))
        queries.append((qid, np.array(features), relevances))
    ds = oracle.dataset_of(queries)
    text = data.format_letor(ds)
    again = data.parse_letor(text)
    assert oracle.datasets_equal(ds, again)
    assert data.format_letor(again) == text


def test_group_file_round_trip(tmp_path):
    ds = data.generate_simulated(num_queries=5, docs_per_query=4, seed=1)
    letor, groups = tmp_path / "d.letor", tmp_path / "d.groups"
    data.save_dataset(ds, letor, groups)
    again = data.load_dataset(letor, groups)
    assert again.has_groups
    assert oracle.datasets_equal(ds, again)
    bare = data.load_dataset(letor, None)
    assert not bare.has_groups


def test_a_grouped_load_builds_each_query_once(tmp_path, monkeypatch):
    """Loading with a group file builds the dataset once, each query with
    its labels in dataset order, into the dataset that parsing the two
    texts gives, and a bad label fails with the group file's message."""
    letor, groups = tmp_path / "d.letor", tmp_path / "d.groups"
    # Query a's documents are not adjacent: labels follow dataset order.
    letor.write_text("2 qid:a 1:1\n0 qid:b 1:2\n1 qid:a 1:3\n3 qid:c 1:4\n")
    groups.write_text("1\n0\n0\n1\n")
    want = oracle.dataset_of([("a", [[1.0], [3.0]], [2.0, 1.0], [1, 0]),
                              ("b", [[2.0]], [0.0], [0]),
                              ("c", [[4.0]], [3.0], [1])])
    assert oracle.datasets_equal(
        data.parse_letor(letor.read_text(), groups.read_text()), want)
    # Every dataset, checked or taken as it is, is built by ``_hold``.
    built = []
    hold = data.Dataset._hold

    def counted(self):
        built.append(self.qids)
        hold(self)

    monkeypatch.setattr(data.Dataset, "_hold", counted)
    got = data.load_dataset(letor, groups)
    assert built == [("a", "b", "c")] and len(got) == 3
    assert oracle.datasets_equal(got, want)
    assert got[0].groups.tolist() == [1, 0]
    groups.write_text("1\n0\n2\n1\n")
    with pytest.raises(data.ParseError, match="must be 0 or 1, got '2'"):
        data.load_dataset(letor, groups)
    groups.write_text("1\n0\n")
    with pytest.raises(data.ParseError, match="2 labels for 4 documents"):
        data.load_dataset(letor, groups)


def test_group_file_must_match_shape():
    with pytest.raises(data.DataError):            # one token, two docs
        data.parse_letor("1 qid:1 1:1\n0 qid:1 1:2\n", "0\n")


def test_dataset_rejects_mixed_group_presence():
    """Group labels for only some of the queries: the first query without
    its labels is refused."""
    with pytest.raises(data.DataError,
                       match="query '2' has 0 group labels for 1 documents"):
        data.Dataset(["1", "2"], [1, 1], np.zeros((2, 1)), [1.0, 1.0], [0])


def test_query_arrays_are_read_only_copies():
    """A dataset keeps read-only copies of its arrays; its runs and its
    queries are views of them."""
    feats = np.arange(6.0).reshape(2, 3)
    rels, groups = np.array([1.0, 0.0]), np.array([0, 1])
    dataset = data.Dataset(["q"], [2], feats, rels, groups)
    query, (run,) = dataset[0], dataset.runs
    for values in (query.feature_matrix, query.relevances, query.groups,
                   run.features, run.relevances, run.groups, dataset.features):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 7
    np.testing.assert_array_equal(query.feature_matrix, feats)
    np.testing.assert_array_equal(query.relevances, rels)
    np.testing.assert_array_equal(query.groups, groups)
    feats[0, 0] = 9.0
    assert query.feature_matrix[0, 0] == 0.0 and feats.flags.writeable


@pytest.mark.parametrize("build, message", [
    (lambda: oracle.dataset_of([("q", [], [])]), "no documents"),
    (lambda: oracle.dataset_of([("q", np.zeros((0, 2)), [])]), "no documents"),
    (lambda: oracle.dataset_of([("q", np.zeros((3, 2)), [1.0, 0.0])]),
     "inconsistent feature shapes"),
    (lambda: oracle.dataset_of([("q", np.zeros(2), [1.0, 0.0])]),
     "inconsistent feature shapes"),
    (lambda: oracle.dataset_of([("q", np.zeros((2, 1)), [[1.0, 0.0]])]),
     "inconsistent feature shapes"),
    (lambda: oracle.dataset_of([("q", np.zeros((2, 1)), [1.0, 0.0], [0])]),
     "1 group labels for 2 documents"),
    # What the LETOR and group-file parsers refuse by line, the constructor
    # refuses by query.
    (lambda: oracle.dataset_of([("q", np.zeros((3, 1)), [3, 1, 2], [0, 7, 1])]),
     "query 'q' has group labels other than 0 and 1"),
    (lambda: oracle.dataset_of([("q", np.zeros((2, 1)), [1.0, 0.0], [0.5, 1])]),
     "query 'q' has group labels other than 0 and 1"),
    (lambda: oracle.dataset_of([("q", [[np.nan], [1.0]], [np.inf, 1.0])]),
     "query 'q' has a non-finite relevance value"),
    (lambda: oracle.dataset_of([("q", np.zeros((2, 1)), [-np.inf, 0.0])]),
     "query 'q' has a non-finite relevance value"),
    (lambda: oracle.dataset_of([("q", [[np.nan], [1.0]], [1.0, 0.0])]),
     "query 'q' has a non-finite feature value"),
    (lambda: oracle.dataset_of([("q", [[0.0, 1.0], [2.0, np.inf]], [1.0, 0.0], [0, 1])]),
     "query 'q' has a non-finite feature value"),
])
def test_query_from_arrays_is_checked_like_documents(build, message):
    """The constructor refuses arrays that do not describe n >= 1 documents,
    a non-finite value and a group label other than 0 or 1."""
    with pytest.raises(data.DataError, match=message):
        build()


def test_generate_simulated_shape_and_determinism():
    a = data.generate_simulated(num_queries=6, docs_per_query=7, seed=3)
    b = data.generate_simulated(num_queries=6, docs_per_query=7, seed=3)
    c = data.generate_simulated(num_queries=6, docs_per_query=7, seed=4)
    assert len(a) == 6 and a.num_docs == 42 and a.feature_dim == 2
    assert a.has_groups
    assert oracle.datasets_equal(a, b)
    assert not oracle.datasets_equal(a, c)
    assert [q.qid for q in a] == [str(i) for i in range(1, 7)]


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


def binary_table(rows, labels, groups, dim=2):
    """A table of ``rows`` zero feature rows with the given 0/1 columns."""
    return (np.zeros((rows, dim)), np.resize(labels, rows),
            None if groups is None else np.resize(groups, rows))


def test_convert_binary_table_counts_and_labels():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(100, 3))
    labels, groups = (np.arange(100) < 40).astype(int), np.arange(100) % 2
    ds = data.convert_binary_table(features, labels, groups, num_queries=8,
                                   candidate_size=10, relevant_fraction=0.2,
                                   seed=1)
    assert len(ds) == 8 and ds.has_groups
    for q in ds:
        assert len(q) == 10
        assert int((q.relevances > 0).sum()) == 2      # 10 - round(10 * 0.8)
        assert set(np.unique(q.relevances)) <= {0.0, 1.0}
    again = data.convert_binary_table(features, labels, groups, num_queries=8,
                                      candidate_size=10, relevant_fraction=0.2,
                                      seed=1)
    assert oracle.datasets_equal(ds, again)


def test_convert_binary_table_needs_both_classes():
    with pytest.raises(data.DataError, match="need 4 label-0 rows per query, have 0"):
        data.convert_binary_table(*binary_table(30, 1, 0), num_queries=2,
                                  candidate_size=5, relevant_fraction=0.2)


def test_convert_binary_table_rejects_bad_labels():
    for labels, groups, message in (
            ([0, 1, 2, 0], 0, "row 2: label must be 0 or 1, got 2"),
            ([0, 1], [0, 1, 1, 0, -1], "row 4: group must be 0 or 1, got -1")):
        with pytest.raises(data.DataError, match=f"^{message}$"):
            data.convert_binary_table(*binary_table(21, labels, groups),
                                      num_queries=1, candidate_size=4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_convert_binary_table_rejects_non_finite_features(bad):
    features, labels, groups = binary_table(25, [1, 0, 0, 0, 0], 0)
    features[3, 1] = bad
    with pytest.raises(data.DataError, match="^row 3: feature values must be finite$"):
        data.convert_binary_table(features, labels, groups, num_queries=1,
                                  candidate_size=4)


def test_convert_binary_table_refuses_columns_of_other_lengths():
    features, labels, _ = binary_table(6, [0, 1], None)
    with pytest.raises(data.DataError, match="^5 labels for 6 feature rows$"):
        data.convert_binary_table(features, labels[:5], candidate_size=2)
    with pytest.raises(data.DataError, match="^7 groups for 6 feature rows$"):
        data.convert_binary_table(features, labels, np.zeros(7), candidate_size=2)
    with pytest.raises(data.DataError, match=r"an \(N, d\) matrix"):
        data.convert_binary_table(features[:, 0], labels, candidate_size=2)


def test_split_dataset_partitions_queries():
    ds = data.generate_simulated(num_queries=10, docs_per_query=3, seed=2)
    train, val = data.split_dataset(ds, 0.8, seed=0)
    assert len(train) == 8 and len(val) == 2
    ids = sorted(q.qid for q in train) + sorted(q.qid for q in val)
    assert sorted(ids) == sorted(q.qid for q in ds)
    train2, val2 = data.split_dataset(ds, 0.8, seed=0)
    assert oracle.datasets_equal(train, train2)
    assert oracle.datasets_equal(val, val2)


def test_split_dataset_clamps_to_leave_both_sides_nonempty():
    ds = data.generate_simulated(num_queries=3, docs_per_query=2, seed=0)
    train, val = data.split_dataset(ds, 0.999, seed=0)
    assert len(train) == 2 and len(val) == 1
    train, val = data.split_dataset(ds, 0.001, seed=0)
    assert len(train) == 1 and len(val) == 2


def test_a_split_takes_each_side_rows_once_as_the_constructor_would_hold_them():
    """Each side of a split holds the rows it takes from the checked
    dataset as they are, with no second check or copy: splitting 2000
    queries of 10 documents with 10 features peaks below 1.3 times the
    source's feature bytes, of which the sides' own features are 1.0 and
    their relevances and groups 0.2.  On a ragged set, labelled or not,
    each side equals the public constructor's dataset of its queries."""
    rng = np.random.default_rng(4)
    count, n, width = 2000, 10, 10
    big = data.Dataset([str(q) for q in range(count)], [n] * count,
                       rng.normal(size=(count * n, width)),
                       rng.integers(0, 5, count * n), rng.integers(0, 2, count * n))
    tracemalloc.start()
    try:
        data.split_dataset(big, 0.8, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * big.features.nbytes
    sizes = rng.integers(1, 9, size=30)
    ragged = oracle.dataset_of([(f"q{q}", rng.normal(size=(size, 3)),
                                 rng.integers(0, 5, size).astype(float),
                                 rng.integers(0, 2, size))
                                for q, size in enumerate(sizes)])
    for dataset in (ragged, oracle.dataset_of([(q.qid, q.feature_matrix, q.relevances)
                                               for q in ragged])):
        for side in data.split_dataset(dataset, 0.7, seed=5):
            want = oracle.dataset_of([dataset[dataset.qids.index(qid)]
                                      for qid in side.qids])
            assert oracle.datasets_equal(side, want)
            assert [(run.start, run.relevances.shape) for run in side.runs] \
                == [(run.start, run.relevances.shape) for run in want.runs]
            for values in (side.sizes, side.features, side.relevances, side.groups):
                assert values is None or not values.flags.writeable
            assert side.sizes.dtype == want.sizes.dtype
            assert side.groups is None or side.groups.dtype == want.groups.dtype


def test_split_dataset_needs_two_queries():
    ds = data.generate_simulated(num_queries=1, docs_per_query=2, seed=0)
    with pytest.raises(data.DataError):
        data.split_dataset(ds, 0.5)


def test_encode_table_mixes_numeric_and_categorical():
    cells = np.array([["1.0", "red"], ["3.0", "blue"], ["5.0", "red"]])
    out = data.encode_table(cells)
    assert out.shape == (3, 3)                 # numeric + two categories
    np.testing.assert_allclose(out[:, 0].mean(), 0.0, atol=1e-12)
    np.testing.assert_allclose(out[:, 0].std(), 1.0)
    # categories one-hot before standardization, in sorted order (blue, red)
    raw = np.array([[0, 1], [1, 0], [0, 1]], dtype=float)
    expect = (raw - raw.mean(0)) / raw.std(0)
    np.testing.assert_allclose(out[:, 1:], expect)


def test_encode_table_zeroes_constant_columns():
    out = data.encode_table(np.array([["2", "a"], ["2", "a"]]))
    np.testing.assert_allclose(out, 0.0)


def test_a_negative_seed_is_refused_up_front_naming_the_seed():
    table = binary_table(20, [0, 1], None)
    ds = data.generate_simulated(num_queries=4, docs_per_query=3, seed=0)
    for make in (lambda: data.generate_simulated(num_queries=4, seed=-1),
                 lambda: data.convert_binary_table(*table, seed=-1),
                 lambda: data.split_dataset(ds, 0.5, seed=-1)):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            make()
