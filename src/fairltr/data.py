"""Datasets of queries with per-document features, relevance, and groups.

The on-disk format is LETOR-style text: one document per line,

    <relevance> qid:<qid> <fid>:<value> ... [# comment]

with 1-based feature ids that fit the index type (``numpy.intp``);
relevances and feature values must be finite.
Group membership (binary, 0 or 1) lives in a sidecar file holding one 0/1
token per document in dataset order.  Floats are written with 17
significant digits so that parse -> write -> parse is bit exact.

A dataset holds its documents once, as flat arrays in dataset order: an
``(N, d)`` feature matrix, ``(N,)`` relevances and, when labelled,
``(N,)`` groups, with the qid and the number of documents of each query.
``Dataset`` is its one public constructor, and it refuses what the
parsers refuse, a non-finite value or a group label other than 0/1,
naming the query rather than a line.  Data that is checked already is
not checked or copied again: the parser's arrays, which it checked line
by line, and the rows that ``Dataset.subset`` and ``split_dataset`` take
from a dataset are held as they are.  Each run of consecutive queries of
equal size n is a ``Run``: reshaped views of its slice of the flat
arrays, ``(Q, n, d)`` features and ``(Q, n)`` relevances and groups,
which is the layout the metrics, the disparities, the trainer and the
baselines read.  A
``Query`` is a read-only view of one query's rows, made on demand by
indexing or iterating the dataset; neither holds anything else.  The
arrays are read-only, and every transformation returns a new dataset.

``parse_letor`` is the one parser of the text format: it reads the LETOR
text and, when given, the group text next to it, into the flat arrays;
``load_dataset`` reads both files, which must be ASCII, and calls it.
The LETOR text is read in passes of a few hundred lines, and the
numbers of a pass are parsed by one ``float``/``int`` pass over its
tokens.  Each rule of a line is stated once, as a mask over the documents
or the feature tokens of a pass, and the first line that breaks one is
refused, with the first rule it breaks.

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
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


class DataError(ValueError):
    """Raised for structurally invalid datasets."""


class ParseError(DataError):
    """Raised for malformed input text; message carries the line number."""


@dataclass(frozen=True, eq=False)
class Query:
    """One query of a dataset: its qid and read-only views of its rows of
    the dataset's arrays, the ``(n, d)`` feature matrix, the ``(n,)``
    relevances and the ``(n,)`` 0/1 groups or None."""

    qid: str
    feature_matrix: np.ndarray
    relevances: np.ndarray
    groups: np.ndarray | None

    def __len__(self) -> int:
        return len(self.relevances)


@dataclass(frozen=True, eq=False)
class Run:
    """Consecutive queries of a dataset with n documents each, the first
    being query ``start``: views of their rows of the dataset's arrays,
    ``(Q, n, d)`` features, ``(Q, n)`` relevances and ``(Q, n)`` groups or
    None, row q belonging to query ``start + q``."""

    start: int
    features: np.ndarray
    relevances: np.ndarray
    groups: np.ndarray | None

    def __len__(self) -> int:
        return len(self.relevances)


# The rules of a query's documents, in the order they apply; each message
# follows "query <qid> " and is formatted with the query's number of group
# labels and of documents.
_QUERY_RULES = ("has no documents", "has inconsistent feature shapes",
                "has a non-finite relevance value", "has a non-finite feature value",
                "has {0} group labels for {1} documents",
                "has group labels other than 0 and 1")


class Dataset:
    """Queries with a common feature dimension, their documents held once.

    ``qids`` names the queries in order, and ``sizes`` gives each one's
    number of documents, its rows of the ``(N, d)`` ``features``, ``(N,)``
    ``relevances`` and ``(N,)`` ``groups`` (or None) following those of
    the queries before it.  The dataset keeps read-only copies of them;
    the arrays of the parser and of ``subset``, which keep every rule and
    which nothing else holds, are kept read-only without a copy.
    ``runs`` holds each run of consecutive equal-size queries as a ``Run``
    of views; ``dataset[i]``, and iteration, give ``Query`` views.
    """

    def __init__(self, qids: Sequence[str], sizes: Sequence[int], features,
                 relevances, groups=None):
        self.qids = tuple(str(qid) for qid in qids)
        if not self.qids:
            raise DataError("dataset has no queries")
        self.sizes = np.array(sizes, dtype=np.intp).reshape(-1)
        if len(self.sizes) != len(self.qids):
            raise DataError(f"{len(self.qids)} qids for {len(self.sizes)} query sizes")
        self.features = np.array(features, dtype=float)
        self.relevances = np.array(relevances, dtype=float)
        self.groups = None if groups is None else np.asarray(groups)
        _refuse_bad_query(self)
        if self.groups is not None:
            self.groups = self.groups.astype(np.intp)
        self._hold()

    @classmethod
    def _of_checked(cls, qids: tuple[str, ...], sizes: np.ndarray, features: np.ndarray,
                    relevances: np.ndarray, groups: np.ndarray | None) -> "Dataset":
        """The dataset of arrays that keep every rule of ``_QUERY_RULES``
        already and that nothing else holds, the parser's or rows taken
        from a dataset, held as they are: no check and no copy."""
        dataset = cls.__new__(cls)
        dataset.qids, dataset.sizes = qids, sizes
        dataset.features, dataset.relevances, dataset.groups = features, relevances, groups
        dataset._hold()
        return dataset

    def _hold(self) -> None:
        """Make the dataset's arrays read-only and its runs views of them."""
        self.feature_dim = self.features.shape[1]
        self.has_groups = self.groups is not None
        for values in (self.sizes, self.features, self.relevances, self.groups):
            if values is not None:
                values.flags.writeable = False
        # Where each query's documents start, and past the last, the end.
        self._offsets = np.concatenate(([0], np.cumsum(self.sizes)))
        runs, start, first = [], 0, 0
        for n, sizes in itertools.groupby(self.sizes.tolist()):
            count = len(list(sizes))
            docs = slice(first, first + count * n)
            runs.append(Run(start, *(
                None if values is None else values[docs].reshape(count, n, *values.shape[1:])
                for values in (self.features, self.relevances, self.groups))))
            start, first = start + count, docs.stop
        self.runs = tuple(runs)

    def __getitem__(self, index: int) -> Query:
        index = range(len(self))[index]
        docs = slice(self._offsets[index], self._offsets[index + 1])
        return Query(self.qids[index], self.features[docs], self.relevances[docs],
                     None if self.groups is None else self.groups[docs])

    def __iter__(self) -> Iterator[Query]:
        return map(self.__getitem__, range(len(self)))

    def __len__(self) -> int:
        return len(self.qids)

    @property
    def num_docs(self) -> int:
        return len(self.relevances)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """The dataset of the queries at ``indices``, in that order: their
        rows, taken once, are held without a second check or copy."""
        indices = np.asarray(indices, dtype=np.intp)
        if not len(indices):
            raise DataError("dataset has no queries")
        sizes = self.sizes[indices]
        # Document k of the subset is the j-th of its query, at the query's
        # start plus j, that is at k plus the start less the documents before.
        docs = np.repeat(self._offsets[indices] - (np.cumsum(sizes) - sizes), sizes)
        docs += np.arange(len(docs))
        return Dataset._of_checked(
            tuple(self.qids[i] for i in indices.tolist()), sizes, self.features[docs],
            self.relevances[docs], None if self.groups is None else self.groups[docs])

    def __repr__(self) -> str:
        return (f"Dataset(queries={len(self)}, docs={self.num_docs}, "
                f"feature_dim={self.feature_dim}, has_groups={self.has_groups})")


def _refuse_bad_query(dataset: Dataset) -> None:
    """Raise the ``DataError`` of the first query that breaks a rule of
    ``_QUERY_RULES``, naming the first rule it breaks.  Each rule is one
    mask, of the queries or of the documents that keep it; a document's
    query is found only for a dataset that breaks one.  A query's
    documents are those of its rows that both the relevances, a vector,
    and the features, a matrix, hold; the last query also holds any rows
    past the others'."""
    sizes, rels, features = dataset.sizes, dataset.relevances, dataset.features
    count, docs = len(sizes), np.maximum(sizes, 0)
    stops = np.cumsum(docs)
    starts = stops - docs
    shaped = rels.ndim == 1 and features.ndim == 2
    held = min(len(rels), len(features)) if shaped else 0
    consistent = (stops <= held) & shaped
    consistent[-1] &= shaped and len(rels) == len(features) == stops[-1]
    if not shaped:
        rels, features = np.zeros(0), np.zeros((0, 0))
    # (mask, whether it is over the documents rather than the queries)
    rules = [(sizes >= 1, False), (consistent, False),
             (np.isfinite(rels[:held]), True),
             (np.isfinite(features[:held]).all(axis=1), True)]
    labels = None if dataset.groups is None else dataset.groups.reshape(-1)
    if labels is not None:
        given = np.clip(len(labels) - starts, 0, docs)
        given[-1] = max(len(labels) - starts[-1], 0)
        rules += [((given == sizes) & (dataset.groups.ndim == 1), False),
                  (((labels == 0) | (labels == 1))[:held], True)]
    if all(kept.all() for kept, _ in rules):
        return
    owner = np.repeat(np.arange(count), docs)
    rules = [np.bincount(owner[:len(kept)][~kept], minlength=count) == 0 if of_docs
             else kept for kept, of_docs in rules]
    q = int(np.argmin(functools.reduce(operator.and_, rules)))
    message = next(message for kept, message in zip(rules, _QUERY_RULES) if not kept[q])
    raise DataError(f"query {dataset.qids[q]!r} "
                    + message.format(given[q] if labels is not None else 0, sizes[q]))


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
    documents by one scatter.
    """
    qids, sizes, features, relevances = _read_letor(source, feature_dim)
    labels = None if groups is None else _group_labels(groups, len(relevances))
    return Dataset._of_checked(qids, sizes, features, relevances, labels)


def _read_letor(source, feature_dim: int | None
                ) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The qids of LETOR text in first-appearance order, the number of
    documents of each, and the feature matrix and relevances of all
    documents in dataset order.

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
    return (tuple(qid[4:] for qid in code), np.bincount(codes), matrix[order],
            relevances[order])


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
    qids = itertools.chain.from_iterable(map(itertools.repeat, dataset.qids,
                                             dataset.sizes.tolist()))
    for qid, rel, row in zip(qids, dataset.relevances.tolist(),
                             dataset.features.tolist()):
        feats = " ".join(f"{fid}:{_f17(v)}" for fid, v in enumerate(row, start=1))
        lines.append(f"{_f17(rel)} qid:{qid} {feats}".rstrip())
    return "\n".join(lines) + "\n"


def format_group_file(dataset: Dataset) -> str:
    if not dataset.has_groups:
        raise DataError("dataset has no group labels to serialize")
    tokens = [str(g) for g in dataset.groups.tolist()]
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
    features, relevances, groups = [], [], []
    for _ in range(num_queries * docs_per_query):
        group = 1 if rng.random() < minority_prob else 0
        x1 = rng.uniform(0.0, 3.0)
        x2 = rng.uniform(0.0, 3.0)
        relevances.append(float(np.clip(x1 + x2, 0.0, 5.0)))
        features.append((x1, 0.0 if group == 1 else x2))
        groups.append(group)
    return Dataset([str(qi + 1) for qi in range(num_queries)],
                   [docs_per_query] * num_queries, features, relevances, groups)


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
    rows = []
    for _ in range(num_queries):
        chosen = np.concatenate([rng.choice(pool, size=size, replace=False)
                                 for pool, size, _ in pools])
        rows.append(chosen[rng.permutation(len(chosen))])
    rows = np.concatenate(rows)
    return Dataset([str(qi + 1) for qi in range(num_queries)],
                   [candidate_size] * num_queries, features[rows], labels[rows],
                   None if groups is None else groups[rows])


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
    return dataset.subset(train_idx), dataset.subset(test_idx)


def load_table(path, label_col: str, group_col: str, preprocess: bool
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The ``(N, d)`` features, ``(N,)`` 0/1 labels and, with ``group_col``,
    ``(N,)`` 0/1 groups (else None) of a UTF-8 CSV table with a header row.

    ``label_col`` and ``group_col`` name a column or give its 0-based
    index, and must be different columns; every other column is a
    feature.  A row may have more cells than the header, which are
    ignored, but not fewer.  Without ``preprocess`` every feature cell must
    be a number; with it, ``encode_table`` encodes the feature columns.  A
    bad cell is refused as ``{path} row {n}: ...``, the header being row 1,
    before any encoding.
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
    if named[1:] == named[:1]:
        raise DataError(f"{path}: group column {group_col!r} is the label column "
                        f"{header[named[0]]!r}; every group would be the label")
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
