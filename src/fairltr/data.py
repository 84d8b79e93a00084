"""Datasets of queries with per-document features, relevance, and groups.

The on-disk format is LETOR-style text: one document per line,

    <relevance> qid:<qid> <fid>:<value> ... [# comment]

with 1-based feature ids; relevances and feature values must be finite.
Group membership (binary, 0 or 1) lives in a sidecar file holding one 0/1
token per document in dataset order.  Floats are written with 17
significant digits so that parse -> write -> parse is bit exact.

Datasets are immutable after construction; every transformation returns a
new dataset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


class DataError(ValueError):
    """Raised for structurally invalid datasets."""


class ParseError(DataError):
    """Raised for malformed input text; message carries the line number."""


@dataclass(frozen=True, eq=False)
class Document:
    features: np.ndarray
    relevance: float
    group: int | None = None


class Query:
    """One query: a non-empty list of candidate documents.

    Feature matrix, relevance vector, and group vector are materialized at
    construction and shared by reference afterwards; treat them as
    read-only.
    """

    def __init__(self, qid: str, docs: Sequence[Document]):
        if len(docs) == 0:
            raise DataError(f"query {qid!r} has no documents")
        self.qid = str(qid)
        self.docs = tuple(docs)
        dims = {d.features.shape for d in self.docs}
        if len(dims) != 1 or len(next(iter(dims))) != 1:
            raise DataError(f"query {qid!r} has inconsistent feature shapes")
        self.feature_matrix = np.stack([d.features for d in self.docs]).astype(float)
        self.relevances = np.array([d.relevance for d in self.docs], dtype=float)
        with_group = [d.group is not None for d in self.docs]
        if any(with_group) and not all(with_group):
            raise DataError(f"query {qid!r} mixes grouped and ungrouped documents")
        self.groups = (np.array([d.group for d in self.docs], dtype=np.intp)
                       if all(with_group) else None)

    @property
    def num_docs(self) -> int:
        return len(self.docs)

    def __len__(self) -> int:
        return len(self.docs)

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


def _iter_lines(source) -> Iterator[str]:
    if isinstance(source, str):
        yield from source.splitlines()
    else:
        for line in source:
            yield line.rstrip("\n")


def parse_letor(source, feature_dim: int | None = None) -> Dataset:
    """Parse LETOR-style text into a dataset.

    ``source`` may be a string, a file object, or an iterable of lines.
    Documents sharing a qid belong to the same query regardless of
    adjacency; query order follows first appearance.  Features are
    densified to ``max(feature_dim or 0, largest feature id seen)`` with
    missing ids as 0.
    """
    parsed: list[tuple[str, float, dict[int, float]]] = []
    max_fid = feature_dim or 0
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(f"line {lineno}: expected relevance and qid")
        try:
            rel = float(tokens[0])
        except ValueError:
            rel = math.nan
        if not math.isfinite(rel):
            raise ParseError(f"line {lineno}: bad relevance {tokens[0]!r}")
        if not tokens[1].startswith("qid:") or len(tokens[1]) <= 4:
            raise ParseError(f"line {lineno}: expected qid:<id>, got {tokens[1]!r}")
        qid = tokens[1][4:]
        if len(tokens) < 3:
            raise ParseError(f"line {lineno}: document has no features")
        feats: dict[int, float] = {}
        for tok in tokens[2:]:
            fid_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: expected fid:value, got {tok!r}")
            try:
                fid = int(fid_s)
                val = float(val_s)
            except ValueError:
                val = math.nan
            if not math.isfinite(val):
                raise ParseError(f"line {lineno}: bad feature {tok!r}")
            if fid < 1:
                raise ParseError(f"line {lineno}: feature ids are 1-based, got {fid}")
            if fid in feats:
                raise ParseError(f"line {lineno}: feature id {fid} repeated")
            feats[fid] = val
            max_fid = max(max_fid, fid)
        parsed.append((qid, rel, feats))

    if not parsed:
        raise ParseError("no document lines found")

    by_qid: dict[str, list[Document]] = {}
    for qid, rel, feats in parsed:
        vec = np.zeros(max_fid)
        for fid, val in feats.items():
            vec[fid - 1] = val
        by_qid.setdefault(qid, []).append(Document(features=vec, relevance=rel))
    queries = [Query(qid, docs) for qid, docs in by_qid.items()]
    return Dataset(queries, feature_dim=max_fid)


def _f17(x: float) -> str:
    return f"{x:.17g}"


def format_letor(dataset: Dataset) -> str:
    """Serialize a dataset as LETOR text (dense features, 17 significant
    digits)."""
    lines = []
    for q in dataset:
        for d in q.docs:
            feats = " ".join(f"{fid}:{_f17(v)}"
                             for fid, v in enumerate(d.features, start=1))
            lines.append(f"{_f17(d.relevance)} qid:{q.qid} {feats}".rstrip())
    return "\n".join(lines) + "\n"


def format_group_file(dataset: Dataset) -> str:
    if not dataset.has_groups:
        raise DataError("dataset has no group labels to serialize")
    tokens = [str(d.group) for q in dataset for d in q.docs]
    return "\n".join(tokens) + "\n"


def parse_group_file(source, dataset: Dataset) -> Dataset:
    """Attach binary group labels to a dataset, one 0/1 token per document
    in dataset order; returns a new dataset with ``has_groups`` true."""
    tokens: list[str] = []
    for line in _iter_lines(source):
        tokens.extend(line.split("#", 1)[0].split())
    if len(tokens) != dataset.num_docs:
        raise ParseError(
            f"group file has {len(tokens)} labels for {dataset.num_docs} documents")
    labels: list[int] = []
    for tok in tokens:
        if tok not in ("0", "1"):
            raise ParseError(f"group labels must be 0 or 1, got {tok!r}")
        labels.append(int(tok))
    it = iter(labels)
    queries = []
    for q in dataset:
        docs = [Document(features=d.features, relevance=d.relevance, group=next(it))
                for d in q.docs]
        queries.append(Query(q.qid, docs))
    return Dataset(queries, feature_dim=dataset.feature_dim)


def save_dataset(dataset: Dataset, letor_path, groups_path=None) -> None:
    with open(letor_path, "w", encoding="ascii") as fh:
        fh.write(format_letor(dataset))
    if groups_path is not None and dataset.has_groups:
        with open(groups_path, "w", encoding="ascii") as fh:
            fh.write(format_group_file(dataset))


def load_dataset(letor_path, groups_path=None, feature_dim: int | None = None) -> Dataset:
    with open(letor_path, "r", encoding="ascii") as fh:
        dataset = parse_letor(fh, feature_dim=feature_dim)
    if groups_path is not None:
        with open(groups_path, "r", encoding="ascii") as fh:
            dataset = parse_group_file(fh, dataset)
    return dataset


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Bitwise equality of two datasets (used by round-trip checks)."""
    if (len(a) != len(b) or a.feature_dim != b.feature_dim
            or a.has_groups != b.has_groups):
        return False
    for qa, qb in zip(a, b):
        if qa.qid != qb.qid or qa.num_docs != qb.num_docs:
            return False
        if not np.array_equal(qa.feature_matrix, qb.feature_matrix):
            return False
        if not np.array_equal(qa.relevances, qb.relevances):
            return False
        if (qa.groups is None) != (qb.groups is None):
            return False
        if qa.groups is not None and not np.array_equal(qa.groups, qb.groups):
            return False
    return True


def generate_simulated(num_queries: int = 100, docs_per_query: int = 10,
                       minority_prob: float = 0.2, seed: int = 0) -> Dataset:
    """Two-feature synthetic data with a biased feature for the minority.

    Each document draws group ~ Bernoulli(minority_prob) (1 = minority) and
    features x1, x2 uniform on (0, 3).  True relevance is
    ``clip(x1 + x2, 0, 5)`` computed before corruption; for minority
    documents the stored x2 is replaced by 0, so a scorer that leans on x2
    systematically under-ranks them.
    """
    if num_queries < 1 or docs_per_query < 1:
        raise DataError("need at least one query and one document per query")
    if not 0.0 <= minority_prob <= 1.0:
        raise DataError("minority_prob must be in [0, 1]")
    rng = np.random.default_rng(seed)
    queries = []
    for qi in range(num_queries):
        docs = []
        for _ in range(docs_per_query):
            group = 1 if rng.random() < minority_prob else 0
            x1 = rng.uniform(0.0, 3.0)
            x2 = rng.uniform(0.0, 3.0)
            rel = float(np.clip(x1 + x2, 0.0, 5.0))
            stored = np.array([x1, 0.0 if group == 1 else x2])
            docs.append(Document(features=stored, relevance=rel, group=group))
        queries.append(Query(str(qi + 1), docs))
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
        docs = [Document(features=feats[i], relevance=float(labels[i]),
                         group=groups[i]) for i in chosen]
        queries.append(Query(str(qi + 1), docs))
    return Dataset(queries, feature_dim=feats[0].shape[0])


def split_dataset(dataset: Dataset, train_fraction: float, seed: int = 0
                  ) -> tuple[Dataset, Dataset]:
    """Random query-level split; both sides keep dataset query order and at
    least one query each."""
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
