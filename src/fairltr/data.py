"""Datasets of queries with per-document features, relevance, and groups.

The on-disk format is LETOR-style text: one document per line,

    <relevance> qid:<qid> <fid>:<value> ... [# comment]

with 1-based feature ids; relevances and feature values must be finite.
Group membership (binary, 0 or 1) lives in a sidecar file holding one 0/1
token per document in dataset order.  Floats are written with 17
significant digits so that parse -> write -> parse is bit exact.

A query holds its documents as arrays: a feature matrix, a relevance
vector and, when labelled, a group vector.  ``parse_letor`` is the one
parser of the text format: it reads the LETOR text and, when given, the
group text next to it, and builds each query once, with its labels;
``load_dataset`` reads both files, which must be ASCII, and calls it.
The LETOR text is tokenized in passes of a few hundred lines, and the
numbers of a pass are parsed by one ``float``/``int`` pass over its
tokens; every rule is checked on all documents of a pass at once, and
only a refused pass is read again line by line to name its first bad
line.  The constructor refuses what the parsers refuse, a non-finite
value or a group label other than 0/1, naming the query rather than a
line.  Datasets are immutable after construction: a query's arrays are
read-only, so what is derived from them can be kept with the query
(``Query.derived``, or ``Query.derived_of_run`` for a run of queries
built together), and every transformation returns a new dataset.
"""
from __future__ import annotations

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

    The lines are read in passes of ``_PASS_LINES``.  Each pass is
    tokenized once and each rule is checked on all its documents at once;
    the relevances, feature ids and values are parsed by one ``float`` or
    ``int`` pass each.  Only when a check fails are the pass's lines read
    one by one (``_line_error``), to name the first bad line.
    """
    lines = iter(source.splitlines() if isinstance(source, str) else source)
    code: dict[str, int] = {}
    passes = []
    first_line = 1
    while chunk := _comment_free(list(itertools.islice(lines, _PASS_LINES))):
        counts = np.fromiter(map(len, map(str.split, chunk)), np.intp, len(chunk))
        per_doc = counts[counts > 0]
        if len(per_doc):
            parsed = _parse_documents("\n".join(chunk), per_doc, code)
            if parsed is None:
                for lineno, line in enumerate(chunk, start=first_line):
                    message = _line_error(line)
                    if message:
                        raise ParseError(f"line {lineno}: {message}")
            passes.append(parsed)
        first_line += len(chunk)
    if not passes:
        raise ParseError("no document lines found")
    codes, relevances, per_doc, fids, values = map(np.concatenate, zip(*passes))
    dim = max(feature_dim or 0, int(fids.max()))
    matrix = np.zeros((len(relevances), dim))
    matrix[np.repeat(np.arange(len(relevances)), per_doc - 2), fids - 1] = values
    # Documents grouped by qid, the qids in first-appearance order.
    order = np.argsort(codes, kind="stable")
    return list(code), np.bincount(codes), matrix[order], relevances[order], dim


def _parse_documents(text: str, per_doc: np.ndarray, code: dict[str, int]):
    """The qid codes, relevances, token counts, feature ids and values of
    the documents of comment-free text, which hold ``per_doc`` tokens each,
    or None if a rule fails.  ``code`` numbers each qid in order of first
    appearance and gains the new ones.  The token list is dropped before
    the feature tokens are split, so the two do not coexist."""
    if (per_doc < 3).any():
        return None
    tokens = text.split()
    heads = np.cumsum(per_doc) - per_doc
    try:
        relevances = np.fromiter(map(float, map(tokens.__getitem__, heads.tolist())),
                                 float, len(heads))
    except ValueError:
        return None
    # Each qid token starts with "qid:" and has an id: split at " qid:", the
    # joined tokens give one empty piece, then one non-empty id per token.
    qids = (" " + " ".join(map(tokens.__getitem__, (heads + 1).tolist()))
            ).split(" qid:")
    if len(qids) != len(heads) + 1 or qids.pop(0) or not all(qids):
        return None
    is_feature = np.ones(len(tokens), dtype=bool)
    is_feature[heads] = is_feature[heads + 1] = False
    features = list(itertools.compress(tokens, is_feature.tolist()))
    del tokens
    num_features = len(features)
    joined = " ".join(features)
    # Each feature token holds exactly one colon: each holds one, and the
    # tokens hold as many colons as there are tokens.
    if joined.count(":") != num_features or \
            not all(map(operator.contains, features, itertools.repeat(":"))):
        return None
    del features
    pieces = joined.replace(" ", ":").split(":")
    del joined
    try:
        ids = {fid: int(fid) for fid in set(pieces[::2])}
        values = np.fromiter(map(float, pieces[1::2]), float, num_features)
    except ValueError:
        return None
    fids = np.fromiter(map(ids.__getitem__, pieces[::2]), np.intp, num_features)
    if not (np.isfinite(relevances).all() and np.isfinite(values).all()) \
            or (fids < 1).any():
        return None
    seen = np.zeros((len(heads), fids.max()), dtype=bool)
    seen[np.repeat(np.arange(len(heads)), per_doc - 2), fids - 1] = True
    if np.count_nonzero(seen) != num_features:  # an id repeated in a document
        return None
    for qid in dict.fromkeys(qids):
        code.setdefault(qid, len(code))
    codes = np.fromiter(map(code.__getitem__, qids), np.intp, len(qids))
    return codes, relevances, per_doc, fids, values


def _line_error(line: str) -> str | None:
    """What is wrong with one comment-free LETOR line, by the first rule it
    breaks, or None; the rules apply to the relevance, then the qid, then
    each feature token in turn."""
    tokens = line.split()
    if not tokens:
        return None
    if len(tokens) < 2:
        return "expected relevance and qid"
    try:
        rel = float(tokens[0])
    except ValueError:
        rel = math.nan
    if not math.isfinite(rel):
        return f"bad relevance {tokens[0]!r}"
    if not tokens[1].startswith("qid:") or len(tokens[1]) <= 4:
        return f"expected qid:<id>, got {tokens[1]!r}"
    if len(tokens) < 3:
        return "document has no features"
    seen: set[int] = set()
    for tok in tokens[2:]:
        fid_s, sep, val_s = tok.partition(":")
        if not sep:
            return f"expected fid:value, got {tok!r}"
        try:
            fid = int(fid_s)
            val = float(val_s)
        except ValueError:
            val = math.nan
        if not math.isfinite(val):
            return f"bad feature {tok!r}"
        if fid < 1:
            return f"feature ids are 1-based, got {fid}"
        if fid in seen:
            return f"feature id {fid} repeated"
        seen.add(fid)
    return None


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
    lines = source.splitlines() if isinstance(source, str) else list(source)
    tokens = "\n".join(_comment_free(lines)).split()
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


def convert_binary_table(records: Sequence[tuple], num_queries: int = 100,
                         candidate_size: int = 10,
                         relevant_fraction: float = 0.2,
                         seed: int = 0) -> Dataset:
    """Build ranking queries from binary-labeled rows.

    ``records`` holds ``(features, label, group)`` tuples with label 0 or 1
    and group 0/1 or None (uniformly).  Each query draws
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

    feats = []
    labels = []
    groups = []
    for idx, rec in enumerate(records):
        f, label, group = rec
        if label not in (0, 1):
            raise DataError(f"record {idx}: label must be 0 or 1, got {label!r}")
        if group not in (0, 1, None):
            raise DataError(f"record {idx}: group must be 0, 1, or None")
        feats.append(np.asarray(f, dtype=float))
        if not np.isfinite(feats[-1]).all():
            raise DataError(f"record {idx}: feature values must be finite")
        labels.append(int(label))
        groups.append(group)
    if not feats:
        raise DataError("no records provided")
    grouped = [g is not None for g in groups]
    if any(grouped) and not all(grouped):
        raise DataError("records mix grouped and ungrouped rows")
    dims = {f.shape for f in feats}
    if len(dims) != 1:
        raise DataError("records have inconsistent feature dimensions")

    labels_arr = np.array(labels)
    neg_pool = np.nonzero(labels_arr == 0)[0]
    pos_pool = np.nonzero(labels_arr == 1)[0]
    num_neg = int(round(candidate_size * (1.0 - relevant_fraction)))
    num_pos = candidate_size - num_neg
    if len(neg_pool) < num_neg:
        raise DataError(
            f"need {num_neg} label-0 records per query, have {len(neg_pool)}")
    if len(pos_pool) < num_pos:
        raise DataError(
            f"need {num_pos} label-1 records per query, have {len(pos_pool)}")

    rng = np.random.default_rng(seed)
    queries = []
    for qi in range(num_queries):
        chosen = []
        if num_neg:
            chosen.extend(rng.choice(neg_pool, size=num_neg, replace=False))
        if num_pos:
            chosen.extend(rng.choice(pos_pool, size=num_pos, replace=False))
        chosen = [chosen[k] for k in rng.permutation(len(chosen))]
        queries.append(Query(
            str(qi + 1), [feats[i] for i in chosen], [labels[i] for i in chosen],
            [groups[i] for i in chosen] if grouped[0] else None))
    return Dataset(queries, feature_dim=feats[0].shape[0])


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


def encode_table(rows: Sequence[Sequence], standardize: bool = True) -> np.ndarray:
    """Turn mixed-type rows into a dense numeric matrix.

    Columns whose entries all parse as floats stay single columns; other
    columns are one-hot encoded over their sorted distinct values.  With
    ``standardize`` every output column is shifted/scaled to mean 0 and
    variance 1 (constant columns become 0).
    """
    if not rows:
        raise DataError("no rows to encode")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataError("rows have inconsistent lengths")

    columns: list[np.ndarray] = []
    for c in range(width):
        raw = [r[c] for r in rows]
        try:
            col = np.array([float(v) for v in raw])[:, None]
        except (TypeError, ValueError):
            values = sorted({str(v) for v in raw})
            lookup = {v: i for i, v in enumerate(values)}
            col = np.zeros((len(raw), len(values)))
            for ri, v in enumerate(raw):
                col[ri, lookup[str(v)]] = 1.0
        columns.append(col)
    matrix = np.hstack(columns)
    if standardize:
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        std[std == 0.0] = 1.0
        matrix = (matrix - mean) / std
    return matrix
