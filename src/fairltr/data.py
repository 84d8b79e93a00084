"""Datasets of queries with per-document features, relevance, and groups.

The on-disk format is LETOR-style text: one document per line,

    <relevance> qid:<qid> <fid>:<value> ... [# comment]

with 1-based feature ids that fit the index type (``numpy.intp``);
relevances and feature values must be finite.
Group membership (binary, 0 or 1) lives in a sidecar file holding one 0/1
token per document in dataset order.  Floats are written with 17
significant digits so that parse -> write -> parse is bit exact.

A query holds its documents as arrays: a feature matrix, a relevance
vector and, when labelled, a group vector.  ``parse_letor`` is the one
parser of the text format: it reads the LETOR text and, when given, the
group text next to it, and builds each query once, with its labels;
``load_dataset`` reads both files, which must be ASCII, and calls it.
The LETOR text is read in passes of a few hundred lines, and the
numbers of a pass are parsed by one ``float``/``int`` pass over its
tokens.  Each rule of a line is stated once, as a mask over the documents
or the feature tokens of a pass, and the first line that breaks one is
refused, with the first rule it breaks.  The constructor refuses what the
parsers refuse, a non-finite value or a group label other than 0/1,
naming the query rather than a line.  Datasets are immutable after
construction: a query's arrays are read-only, so what is derived from
them can be kept with the query (``Query.derived``, or
``Query.derived_of_run`` for a run of queries built together), and every
transformation returns a new dataset.

A binary-labeled CSV table is read by ``load_table`` alone, into arrays
of features, labels and groups that ``convert_binary_table`` samples
queries from; a bad cell is refused with its file and CSV row.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import operator
from typing import Callable, Hashable, Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


class DataError(ValueError):
    """Raised for structurally invalid datasets."""


class ParseError(DataError):
    """Raised for malformed input text; message carries the line number."""


class Query:
    """One query: its candidate documents as arrays.

    ``feature_matrix`` is ``(n, d)`` and ``relevances`` ``(n,)``, all
    finite; ``groups`` is ``(n,)`` 0/1 labels or None.  The query keeps
    read-only copies of them.  Because
    the arrays cannot change, anything derived from them, such as a
    metric's ideal DCG or a disparity's hinge rows, is built once and kept
    with the query by ``derived``.
    """

    def __init__(self, qid: str, feature_matrix, relevances, groups=None):
        self.qid = str(qid)
        self.relevances = np.array(relevances, dtype=float)
        n = self.relevances.shape[0] if self.relevances.ndim == 1 else -1
        if n == 0:
            raise DataError(f"query {qid!r} has no documents")
        self.feature_matrix = np.array(feature_matrix, dtype=float)
        if n < 0 or self.feature_matrix.ndim != 2 or len(self.feature_matrix) != n:
            raise DataError(f"query {qid!r} has inconsistent feature shapes")
        for name, values in (("relevance", self.relevances),
                             ("feature", self.feature_matrix)):
            if not np.isfinite(values).all():
                raise DataError(f"query {qid!r} has a non-finite {name} value")
        self.groups = None
        if groups is not None:
            labels = np.asarray(groups)
            if labels.shape != (n,):
                raise DataError(f"query {qid!r} has {labels.size} group "
                                f"labels for {n} documents")
            if not ((labels == 0) | (labels == 1)).all():
                raise DataError(f"query {qid!r} has group labels other than "
                                "0 and 1")
            self.groups = labels.astype(np.intp)
            self.groups.flags.writeable = False
        self.feature_matrix.flags.writeable = False
        self.relevances.flags.writeable = False
        self._derived: dict[Hashable, object] = {}

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """The value ``build()`` made on the first call with ``key``, kept
        with this query and returned on every later call.  An array value is
        made read-only; any other value must not change."""
        value = self._derived.get(key)
        if value is None:
            value = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            self._derived[key] = value
        return value

    @property
    def num_docs(self) -> int:
        return len(self.relevances)

    @staticmethod
    def derived_of_run(queries: Sequence["Query"], key: Hashable,
                       build: Callable[[list["Query"]], Sequence[T]]) -> list[T]:
        """Each query's ``derived`` value under ``key``.  The queries that
        have none yet get theirs from one ``build(missing)`` call, which
        gives one value per query of ``missing``, in order."""
        missing = [query for query in queries if key not in query._derived]
        if missing:
            for query, value in zip(missing, build(missing)):
                query.derived(key, lambda: value)
        return [query._derived[key] for query in queries]

    def __len__(self) -> int:
        return len(self.relevances)

    def __repr__(self) -> str:
        return f"Query(qid={self.qid!r}, num_docs={self.num_docs})"


class Dataset:
    """An ordered collection of queries with a common feature dimension."""

    def __init__(self, queries: Sequence[Query], feature_dim: int):
        if len(queries) == 0:
            raise DataError("dataset has no queries")
        self.queries = tuple(queries)
        self.feature_dim = int(feature_dim)
        grouped = [q.groups is not None for q in self.queries]
        if any(grouped) and not all(grouped):
            raise DataError("dataset mixes grouped and ungrouped queries")
        self.has_groups = all(grouped)
        for q in self.queries:
            if q.feature_matrix.shape[1] != self.feature_dim:
                raise DataError(
                    f"query {q.qid!r} has {q.feature_matrix.shape[1]} features, "
                    f"dataset declares {self.feature_dim}")

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)

    @property
    def num_docs(self) -> int:
        return sum(q.num_docs for q in self.queries)

    def __repr__(self) -> str:
        return (f"Dataset(queries={len(self)}, docs={self.num_docs}, "
                f"feature_dim={self.feature_dim}, has_groups={self.has_groups})")


# Lines one parsing pass tokenizes at once.  The parser holds the token
# strings of one pass only, however long the text.
_PASS_LINES = 256


def _comment_free(lines: list[str]) -> list[str]:
    """``lines`` with their ``#`` comments cut off."""
    if any(map(operator.contains, lines, itertools.repeat("#"))):
        return [line.partition("#")[0] for line in lines]
    return lines


def _lines(source) -> Iterator[str]:
    """The lines of a string, a file object or an iterable of lines.  A
    string ends its lines where a file read in text mode does: at LF, CRLF
    or a lone CR."""
    return iter(io.StringIO(source, newline=None) if isinstance(source, str)
                else source)


def parse_letor(source, groups=None, feature_dim: int | None = None) -> Dataset:
    """Parse LETOR-style text, and with ``groups`` its group text, into a
    dataset.

    ``source`` and ``groups`` may each be a string, a file object, or an
    iterable of lines.  Documents sharing a qid belong to the same query
    regardless of adjacency; query order follows first appearance, and the
    group labels are read one per document in that dataset order.
    Features are densified to ``max(feature_dim or 0, largest feature id
    seen)`` with missing ids as 0: every value lands in one matrix of all
    documents by one scatter, and each query takes its rows and its slice
    of the labels.
    """
    qids, sizes, features, relevances, dim = _read_letor(source, feature_dim)
    labels = None if groups is None else _group_labels(groups, len(relevances))
    queries = []
    start = 0
    for qid, size in zip(qids, sizes.tolist()):
        stop = start + size
        queries.append(Query(qid, features[start:stop], relevances[start:stop],
                             None if labels is None else labels[start:stop]))
        start = stop
    return Dataset(queries, feature_dim=dim)


def _read_letor(source, feature_dim: int | None
                ) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, int]:
    """The qids of LETOR text in first-appearance order, the number of
    documents of each, the feature matrix and relevances of all documents
    in dataset order, and the feature dimension.

    The lines are read in passes of ``_PASS_LINES``, each parsed and
    checked at once by ``_parse_documents``, which refuses the first bad
    line of the pass.  A feature id too large for numpy to hold the
    matrix is refused with the first line that holds the largest id.
    """
    lines = _lines(source)
    code: dict[str, int] = {}
    passes = []
    first_line = 1
    while chunk := _comment_free(list(itertools.islice(lines, _PASS_LINES))):
        split = list(map(str.split, chunk))
        counts = np.fromiter(map(len, split), np.intp, len(split))
        if counts.any():
            passes.append(_parse_documents(
                list(itertools.chain.from_iterable(split)), counts, first_line, code))
        first_line += len(chunk)
    if not passes:
        raise ParseError("no document lines found")
    codes, relevances, per_doc, fids, values, doc_lines = map(np.concatenate, zip(*passes))
    dim = max(feature_dim or 0, int(fids.max()))
    doc_of = np.repeat(np.arange(len(relevances)), per_doc - 2)
    try:
        matrix = np.zeros((len(relevances), dim))
    except ValueError:  # its byte size overflows numpy's index type
        if dim > fids.max():
            raise
        top = int(np.argmax(fids))
        raise ParseError(f"line {doc_lines[doc_of[top]]}: feature id {fids[top]} "
                         f"is too large") from None
    matrix[doc_of, fids - 1] = values
    # Documents grouped by qid, the qids in first-appearance order.
    order = np.argsort(codes, kind="stable")
    return ([qid[4:] for qid in code], np.bincount(codes), matrix[order],
            relevances[order], dim)


# The rules of a LETOR line, in the order they apply: those of the document
# as a whole, then, for each feature token in turn, those of the token.
# Each message is formatted with the line's tokens, or with a feature token
# and its id; ``_parse_documents`` states each rule as a mask, in this order.
_DOCUMENT_RULES = ("expected relevance and qid", "bad relevance {0!r}",
                   "expected qid:<id>, got {1!r}", "document has no features")
_FEATURE_RULES = ("expected fid:value, got {0!r}", "bad feature {0!r}",
                  "feature ids are 1-based, got {1}", "feature id {1} repeated")
# A feature id must fit the index type: |id| <= _MAX_ID.  One that does not
# parse or fit is read as _BAD_ID.
_MAX_ID = int(np.iinfo(np.intp).max)
_BAD_ID = -_MAX_ID - 1


def _parse_documents(tokens: list[str], counts: np.ndarray, first_line: int,
                     code: dict[str, int]):
    """The qid codes, relevances, token counts, feature ids, values and
    line numbers of the documents of ``tokens``, the tokens of
    comment-free lines that hold ``counts`` tokens each, the first being
    line ``first_line``.  ``code`` numbers each qid token in order of first
    appearance and gains the new ones.

    Each rule of ``_DOCUMENT_RULES`` and ``_FEATURE_RULES`` is one mask of
    the documents or feature tokens that keep it.  A ``ParseError`` names
    the first line that breaks a rule, and the first rule it breaks.
    """
    per_doc = counts[counts > 0]
    doc_lines = first_line + np.flatnonzero(counts)
    heads = np.cumsum(per_doc) - per_doc
    # A document of one token has no qid: its "qid" is the next head, or its
    # own at the end, and its first rule fires before the qid rule.
    second = np.minimum(heads + 1, len(tokens) - 1)
    relevances = _floats(list(map(tokens.__getitem__, heads.tolist())))
    qids = list(map(tokens.__getitem__, second.tolist()))
    is_feature = np.ones(len(tokens), dtype=bool)
    is_feature[heads] = is_feature[second] = False
    features = list(itertools.compress(tokens, is_feature.tolist()))
    num_features = len(features)
    colon = np.fromiter(map(operator.contains, features, itertools.repeat(":")),
                        bool, num_features)
    joined = " ".join(features)
    if colon.all() and joined.count(":") == num_features:
        # Each token holds one colon: one split gives id, value, id, ...
        pieces = joined.replace(" ", ":").split(":")
        id_texts, value_texts = pieces[::2], pieces[1::2]
    else:
        id_texts, _, value_texts = map(list, zip(
            *map(operator.methodcaller("partition", ":"), features)))
    ids = {fid: _feature_id(fid) for fid in set(id_texts)}
    fids = np.fromiter(map(ids.__getitem__, id_texts), np.intp, num_features)
    values = _floats(value_texts)
    doc_of = np.repeat(np.arange(len(heads)), np.maximum(per_doc - 2, 0))
    document_rules = (
        per_doc >= 2, np.isfinite(relevances),
        # "qid:<id>": the tokens between "qid:" and "qid;", as ":" < ";".
        _between("qid:", qids, "qid;"),
        per_doc >= 3)
    feature_rules = (colon, np.isfinite(values) & (fids != _BAD_ID), fids >= 1,
                     _first_of_id(doc_of, fids))
    ok = functools.reduce(operator.and_, document_rules)
    ok[doc_of[~functools.reduce(operator.and_, feature_rules)]] = False
    if not ok.all():
        doc = int(np.argmin(ok))
        line = tokens[heads[doc]:heads[doc] + per_doc[doc]]
        broken = itertools.chain(
            (message.format(*line) for kept, message
             in zip(document_rules, _DOCUMENT_RULES) if not kept[doc]),
            (message.format(token, int(fids[i]))
             for token, i in zip(line[2:], np.flatnonzero(doc_of == doc).tolist())
             for kept, message in zip(feature_rules, _FEATURE_RULES) if not kept[i]))
        raise ParseError(f"line {doc_lines[doc]}: {next(broken)}")
    for qid in dict.fromkeys(qids):
        code.setdefault(qid, len(code))
    codes = np.fromiter(map(code.__getitem__, qids), np.intp, len(qids))
    return codes, relevances, per_doc, fids, values, doc_lines


def _between(low: str, texts: list[str], high: str) -> np.ndarray:
    """Which of ``texts`` lie strictly between ``low`` and ``high``."""
    if low < min(texts) and max(texts) < high:
        return np.ones(len(texts), dtype=bool)
    return np.array([low < text < high for text in texts])


def _floats(texts: list[str]) -> np.ndarray:
    """The float of each text, nan for one that does not parse."""
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        return np.array([_parsed(float, text, math.nan) for text in texts])


def _feature_id(text: str) -> int:
    """The feature id ``text`` gives, or ``_BAD_ID`` if it gives none or
    one that does not fit the index type."""
    fid = _parsed(int, text, _BAD_ID)
    return fid if abs(fid) <= _MAX_ID else _BAD_ID


def _parsed(kind: type, text: str, default):
    """``kind(text)``, or ``default`` if ``text`` does not parse."""
    try:
        return kind(text)
    except ValueError:
        return default


def _first_of_id(doc_of: np.ndarray, fids: np.ndarray) -> np.ndarray:
    """Which feature tokens hold an id that no earlier token of their
    document ``doc_of`` holds."""
    # A stable sort by document, then id: doc_of is sorted already, and the
    # tokens of one id keep their order.
    order = np.lexsort((fids, doc_of))
    ids = fids[order]
    kept = np.ones(len(fids), dtype=bool)
    kept[order[1:][(ids[1:] == ids[:-1]) & (doc_of[1:] == doc_of[:-1])]] = False
    return kept


def _f17(x: float) -> str:
    return f"{x:.17g}"


def format_letor(dataset: Dataset) -> str:
    """Serialize a dataset as LETOR text (dense features, 17 significant
    digits)."""
    lines = []
    for q in dataset:
        for rel, row in zip(q.relevances.tolist(), q.feature_matrix.tolist()):
            feats = " ".join(f"{fid}:{_f17(v)}" for fid, v in enumerate(row, start=1))
            lines.append(f"{_f17(rel)} qid:{q.qid} {feats}".rstrip())
    return "\n".join(lines) + "\n"


def format_group_file(dataset: Dataset) -> str:
    if not dataset.has_groups:
        raise DataError("dataset has no group labels to serialize")
    tokens = [str(g) for q in dataset for g in q.groups.tolist()]
    return "\n".join(tokens) + "\n"


def _group_labels(source, num_docs: int) -> np.ndarray:
    """The 0/1 tokens of group-file text, one per document."""
    tokens = "\n".join(_comment_free(list(_lines(source)))).split()
    if len(tokens) != num_docs:
        raise ParseError(
            f"group file has {len(tokens)} labels for {num_docs} documents")
    if not set(tokens) <= {"0", "1"}:
        bad = next(tok for tok in tokens if tok not in ("0", "1"))
        raise ParseError(f"group labels must be 0 or 1, got {bad!r}")
    return np.fromiter(map("1".__eq__, tokens), np.intp, num_docs)


def save_dataset(dataset: Dataset, letor_path, groups_path=None) -> None:
    with open(letor_path, "w", encoding="ascii") as fh:
        fh.write(format_letor(dataset))
    if groups_path is not None and dataset.has_groups:
        with open(groups_path, "w", encoding="ascii") as fh:
            fh.write(format_group_file(dataset))


def load_dataset(letor_path, groups_path=None, feature_dim: int | None = None) -> Dataset:
    """``parse_letor`` of a LETOR file and, with ``groups_path``, of its
    group file.  Both are ASCII text; a byte outside ASCII is a
    ``ParseError`` that names its line."""
    try:
        with open(letor_path, "r", encoding="ascii") as letor:
            if groups_path is None:
                return parse_letor(letor, None, feature_dim)
            with open(groups_path, "r", encoding="ascii") as groups:
                return parse_letor(letor, groups, feature_dim)
    except UnicodeDecodeError:
        _refuse_non_ascii(letor_path, "line")
        _refuse_non_ascii(groups_path, "group file line")
        raise


def _refuse_non_ascii(path, where: str) -> None:
    """Raise a ``ParseError`` naming ``where`` and the line of the first
    byte outside ASCII in the file at ``path``, if it has one; its lines
    end as text mode reads them, at LF, CRLF or a lone CR."""
    if path is None:
        return
    with open(path, "rb") as fh:
        raw = fh.read()
    bad = next((i for i, byte in enumerate(raw) if byte > 0x7F), None)
    if bad is not None:
        before = raw[:bad].decode("ascii").replace("\r\n", "\n").replace("\r", "\n")
        raise ParseError(f"{where} {before.count(chr(10)) + 1}: non-ASCII byte "
                         f"{raw[bad]:#04x}") from None


def require_seed(seed: int) -> None:
    """Refuse a negative seed up front, naming it; numpy would refuse it
    only where the generator is made, as "expected non-negative integer"."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def generate_simulated(num_queries: int = 100, docs_per_query: int = 10,
                       minority_prob: float = 0.2, seed: int = 0) -> Dataset:
    """Two-feature synthetic data with a biased feature for the minority.

    Each document draws group ~ Bernoulli(minority_prob) (1 = minority) and
    features x1, x2 uniform on (0, 3).  True relevance is
    ``clip(x1 + x2, 0, 5)`` computed before corruption; for minority
    documents the stored x2 is replaced by 0, so a scorer that leans on x2
    systematically under-ranks them.
    """
    require_seed(seed)
    if num_queries < 1 or docs_per_query < 1:
        raise DataError("need at least one query and one document per query")
    if not 0.0 <= minority_prob <= 1.0:
        raise DataError("minority_prob must be in [0, 1]")
    rng = np.random.default_rng(seed)
    queries = []
    for qi in range(num_queries):
        features, relevances, groups = [], [], []
        for _ in range(docs_per_query):
            group = 1 if rng.random() < minority_prob else 0
            x1 = rng.uniform(0.0, 3.0)
            x2 = rng.uniform(0.0, 3.0)
            relevances.append(float(np.clip(x1 + x2, 0.0, 5.0)))
            features.append((x1, 0.0 if group == 1 else x2))
            groups.append(group)
        queries.append(Query(str(qi + 1), features, relevances, groups))
    return Dataset(queries, feature_dim=2)


def convert_binary_table(features, labels, groups=None, num_queries: int = 100,
                         candidate_size: int = 10,
                         relevant_fraction: float = 0.2,
                         seed: int = 0) -> Dataset:
    """Build ranking queries from the rows of a binary-labeled table.

    ``features`` is ``(N, d)`` and finite, ``labels`` ``(N,)`` 0/1 and
    ``groups`` ``(N,)`` 0/1 or None, as ``load_table`` returns them; a bad
    value is refused naming its 0-based row.  Each query draws
    ``round(candidate_size * (1 - relevant_fraction))`` label-0 rows and the
    remaining label-1 rows, without replacement within the query and with
    replacement across queries, then shuffles the candidate order.
    """
    require_seed(seed)
    if candidate_size < 2:
        raise DataError("candidate_size must be >= 2")
    if not 0.0 <= relevant_fraction <= 1.0:
        raise DataError("relevant_fraction must be in [0, 1]")
    if num_queries < 1:
        raise DataError("num_queries must be >= 1")
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise DataError(f"features must be an (N, d) matrix, got shape {features.shape}")
    labels = np.asarray(labels)
    groups = None if groups is None else np.asarray(groups)
    for name, values in (("label", labels), ("group", groups)):
        if values is None:
            continue
        if values.shape != features.shape[:1]:
            raise DataError(f"{values.size} {name}s for {len(features)} feature rows")
        ok = (values == 0) | (values == 1)
        if not ok.all():
            row = int(np.argmin(ok))
            raise DataError(f"row {row}: {name} must be 0 or 1, got {values[row]}")
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise DataError(f"row {int(np.argmin(finite))}: feature values must be finite")

    num_neg = int(round(candidate_size * (1.0 - relevant_fraction)))
    pools = [(np.flatnonzero(labels == label), size, label)
             for label, size in ((0, num_neg), (1, candidate_size - num_neg))]
    for pool, size, label in pools:
        if len(pool) < size:
            raise DataError(f"need {size} label-{label} rows per query, have {len(pool)}")

    rng = np.random.default_rng(seed)
    queries = []
    for qi in range(num_queries):
        chosen = np.concatenate([rng.choice(pool, size=size, replace=False)
                                 for pool, size, _ in pools])
        chosen = chosen[rng.permutation(len(chosen))]
        queries.append(Query(str(qi + 1), features[chosen], labels[chosen],
                             None if groups is None else groups[chosen]))
    return Dataset(queries, feature_dim=features.shape[1])


def split_dataset(dataset: Dataset, train_fraction: float, seed: int = 0
                  ) -> tuple[Dataset, Dataset]:
    """Random query-level split; both sides keep dataset query order and at
    least one query each."""
    require_seed(seed)
    n = len(dataset)
    if n < 2:
        raise DataError("need at least two queries to split")
    if not 0.0 < train_fraction < 1.0:
        raise DataError("train_fraction must be strictly between 0 and 1")
    k = min(max(int(round(train_fraction * n)), 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    train_idx = np.sort(perm[:k])
    test_idx = np.sort(perm[k:])
    train = Dataset([dataset.queries[i] for i in train_idx], dataset.feature_dim)
    test = Dataset([dataset.queries[i] for i in test_idx], dataset.feature_dim)
    return train, test


def load_table(path, label_col: str, group_col: str, preprocess: bool
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The ``(N, d)`` features, ``(N,)`` 0/1 labels and, with ``group_col``,
    ``(N,)`` 0/1 groups (else None) of a UTF-8 CSV table with a header row.

    ``label_col`` and ``group_col`` name a column or give its 0-based
    index; every other column is a feature.  A row may have more cells than
    the header, which are ignored, but not fewer.  Without ``preprocess``
    every feature cell must be a number; with it, ``encode_table`` encodes
    the feature columns.  A bad cell is refused as ``{path} row {n}: ...``,
    the header being row 1, before any encoding.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read table {path}: {exc}") from None
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    header, width = rows[0], len(rows[0])
    for rowno, row in enumerate(rows[1:], start=2):
        if len(row) < width:
            raise DataError(f"{path} row {rowno}: {len(row)} cells for {width} columns")
    # Python strings: a fixed-width numpy string array would hold every cell
    # at the length of the longest.
    cells = np.array([row[:width] for row in rows[1:]], dtype=object)

    def index_of(name: str) -> int:
        if name in header:
            return header.index(name)
        index = _parsed(int, name, None)
        if index is None:
            raise DataError(f"{path}: no column named {name!r}")
        if not 0 <= index < width:
            raise DataError(f"{path}: column index {index} out of range")
        return index

    def binary(index: int, what: str) -> np.ndarray:
        text = [cell.strip() for cell in cells[:, index].tolist()]
        ok = np.fromiter(map({"0", "1"}.__contains__, text), bool, len(text))
        if not ok.all():
            row = int(np.argmin(ok))
            raise DataError(f"{path} row {row + 2}: {what} must be 0 or 1, "
                            f"got {text[row]!r}")
        return np.fromiter(map("1".__eq__, text), np.intp, len(text))

    named = [index_of(label_col)] + ([index_of(group_col)] if group_col else [])
    labels = binary(named[0], "label")
    groups = binary(named[1], "group") if group_col else None
    features = np.delete(cells, named, axis=1)
    if features.shape[1] == 0:
        raise DataError(f"{path}: no feature columns")
    numbers = [_numbers(column) for column in features.T]
    if not preprocess and any(column is None for column in numbers):
        raise DataError(f"{path}: non-numeric feature values; rerun with --preprocess")
    values = np.column_stack([np.zeros(len(cells)) if column is None else column
                              for column in numbers])
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DataError(f"{path} row {int(np.argmin(finite)) + 2}: "
                        "feature values must be finite")
    return encode_table(features) if preprocess else values, labels, groups


def _numbers(cells: np.ndarray) -> np.ndarray | None:
    """The float of each text cell, or None if one does not parse."""
    try:
        return np.fromiter(map(float, cells.tolist()), float, len(cells))
    except ValueError:
        return None


def encode_table(cells) -> np.ndarray:
    """A standardized numeric matrix of an ``(N, c)`` matrix of text cells.

    A column whose cells all parse as floats stays one column; any other
    is one-hot encoded over its sorted distinct cells.  Every output column
    is then shifted and scaled to mean 0 and variance 1 (a constant column
    becomes 0).
    """
    columns = []
    for column in np.asarray(cells, dtype=object).T:
        numbers = _numbers(column)
        if numbers is None:
            values, codes = np.unique(column, return_inverse=True)
            columns.append(codes[:, None] == np.arange(len(values)))
        else:
            columns.append(numbers[:, None])
    matrix = np.hstack(columns, dtype=float)
    std = matrix.std(axis=0)
    std[std == 0.0] = 1.0
    return (matrix - matrix.mean(axis=0)) / std
