"""Synthetic long-tail datasets, embedding-file ingestion, and per-class statistics.

Class counts are summarized by decade: ``bins`` 1-4 are the half-open
intervals of ``GROUP_LIMITS``, the top one open-ended.  They group classes
both for binned accuracy and for the grouped classifier heads.
"""
from __future__ import annotations

import hashlib
import logging
import math
import os
import re
import stat
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from typing import IO

import numpy as np

from .schema import read_arrays, read_framed, replacing, write_framed
from .seeding import derive_seed

logger = logging.getLogger(__name__)

# Lower/upper count limits per group, half-open: low <= n < high.
GROUP_LIMITS: tuple[tuple[float, float], ...] = (
    (0.0, 10.0),
    (10.0, 100.0),
    (100.0, 1000.0),
    (1000.0, math.inf),
)

_HEADER_RE = re.compile(r"^C=(\d+) D=(\d+)$")

# Rows the finiteness check of a Dataset reads at once: its temporary is one
# block's flags, not a flag per value of the matrix.
_FINITE_BLOCK_ROWS = 4096


@dataclass(eq=False)
class Dataset:
    """Feature rows with integer class labels.

    features: (N, D) float64, all finite.
    labels: (N,) integers in [0, C) where C = len(class_names).
    background_class: optional index of the class treated as background/empty.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]
    background_class: int | None = None

    def __post_init__(self) -> None:
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        self.class_names = tuple(str(n) for n in self.class_names)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.features.shape[0] < 1 or self.features.shape[1] < 1:
            raise ValueError("dataset needs at least one instance and one feature dimension")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be one per feature row")
        n = self.features.shape[0]
        if not all(np.isfinite(self.features[lo:lo + _FINITE_BLOCK_ROWS]).all()
                   for lo in range(0, n, _FINITE_BLOCK_ROWS)):
            raise ValueError("features contain non-finite values")
        c = len(self.class_names)
        if c < 1:
            raise ValueError("class_names is empty")
        _check_separator(self.class_names)
        if self.labels.min() < 0 or self.labels.max() >= c:
            raise ValueError(f"labels must lie in [0, {c})")
        if self.background_class is not None:
            self.background_class = int(self.background_class)
            if not 0 <= self.background_class < c:
                raise ValueError(f"background_class {self.background_class} out of range [0, {c})")

    @property
    def num_instances(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def digest(self) -> str:
        """Content hash covering features, labels, names, and background flag."""
        h = hashlib.sha256()
        h.update(repr(self.features.shape).encode())
        h.update(np.ascontiguousarray(self.features))
        h.update(np.ascontiguousarray(self.labels))
        h.update("\x1f".join(self.class_names).encode())
        h.update(str(self.background_class).encode())
        return h.hexdigest()

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return replace(self, features=self.features[idx], labels=self.labels[idx])

    def with_background(self, background_class: int | None) -> "Dataset":
        return replace(self, background_class=background_class)


@dataclass(eq=False)
class ClassStats:
    """Per-class training counts; their count-decade bins are derived."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1:
            raise ValueError("counts must have one entry per class")

    @property
    def num_classes(self) -> int:
        return int(self.counts.shape[0])

    @property
    def bins(self) -> np.ndarray:
        return count_decade(self.counts)


def count_decade(n: np.ndarray) -> np.ndarray:
    """Bin index 1-4 per training count: bin k holds the counts of ``GROUP_LIMITS[k - 1]``."""
    lower = [lo for lo, _ in GROUP_LIMITS[1:]]
    return 1 + np.searchsorted(lower, n, side="right").astype(np.int64)


def compute_class_stats(dataset: Dataset) -> ClassStats:
    """Count training instances per class and assign their count bins.

    Every class must appear at least once; classes with zero instances are a
    data error here, not something to drop silently.
    """
    counts = np.bincount(dataset.labels, minlength=dataset.num_classes)
    if (counts == 0).any():
        missing = [dataset.class_names[j] for j in np.flatnonzero(counts == 0)]
        raise ValueError(f"classes with zero training instances: {', '.join(missing)}")
    return ClassStats(counts=counts)


@dataclass(frozen=True)
class SyntheticSpec:
    """Geometric long-tail profile over isotropic Gaussian class clusters.

    head_count instances for class 0 decaying to head_count/imbalance_factor
    for the last class.  Centroids are drawn isotropically and scaled so the
    root-mean-square pairwise centroid distance equals class_separation.
    """

    num_classes: int
    feature_dim: int
    head_count: int
    imbalance_factor: float
    class_separation: float
    noise_sigma: float
    seed: int

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.imbalance_factor <= 1:
            raise ValueError("imbalance_factor must be > 1")
        if self.head_count / self.imbalance_factor < 1:
            raise ValueError("head_count / imbalance_factor must be >= 1")
        if self.class_separation <= 0 or self.noise_sigma <= 0:
            raise ValueError("class_separation and noise_sigma must be > 0")


def synthetic_class_counts(spec: SyntheticSpec) -> np.ndarray:
    """Per-class instance counts: round(head_count * imbalance_factor^(-j/(C-1)))."""
    j = np.arange(spec.num_classes, dtype=np.float64)
    raw = spec.head_count * spec.imbalance_factor ** (-j / (spec.num_classes - 1))
    counts = np.rint(raw).astype(np.int64)
    if counts.min() < 1:
        raise ValueError("count profile rounds to zero for the smallest class")
    return counts


def _class_centroids(spec: SyntheticSpec) -> np.ndarray:
    rng = np.random.default_rng(derive_seed(spec.seed, "centroids"))
    scale = spec.class_separation / math.sqrt(2 * spec.feature_dim)
    return rng.standard_normal((spec.num_classes, spec.feature_dim)) * scale


def generate_synthetic(
    spec: SyntheticSpec,
    counts: np.ndarray | None = None,
    noise_stream: int = 0,
) -> Dataset:
    """Draw a dataset from the spec's class-conditional Gaussians.

    Deterministic in the spec: same spec, same bytes.  ``counts`` overrides
    the per-class instance counts and ``noise_stream`` selects an independent
    noise substream; together they allow drawing extra evaluation sets from
    the same centroids as the training draw.
    """
    if counts is None:
        counts = synthetic_class_counts(spec)
    else:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (spec.num_classes,) or counts.min() < 1:
            raise ValueError("counts override must give every class at least one instance")
    centroids = _class_centroids(spec)
    rng = np.random.default_rng(derive_seed(spec.seed, "noise", noise_stream))
    # Each class's rows are drawn in place, as noise * sigma + centroid.
    features = np.empty((int(counts.sum()), spec.feature_dim))
    ends = np.cumsum(counts)
    for c in range(spec.num_classes):
        block = features[ends[c] - counts[c]:ends[c]]
        rng.standard_normal(out=block)
        block *= spec.noise_sigma
        block += centroids[c]
    width = max(2, len(str(spec.num_classes - 1)))
    return Dataset(
        features=features,
        labels=np.repeat(np.arange(spec.num_classes, dtype=np.int64), counts),
        class_names=tuple(f"class_{c:0{width}d}" for c in range(spec.num_classes)),
    )


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test partition fractions."""

    train_fraction: float = 0.70
    val_fraction: float = 0.15
    test_fraction: float = 0.15
    seed: int = 0
    stratified: bool = True

    def __post_init__(self) -> None:
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if not all(0 < f < 1 for f in fracs):
            raise ValueError("each split fraction must lie in (0, 1)")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")


def _allocate(n: int, spec: SplitSpec) -> tuple[int, int, int]:
    """Partition sizes for one class of n instances.

    Classes with >= 3 instances are guaranteed a slot in every partition;
    with 2 instances train and test get one each, a single instance trains.
    """
    n_val = int(round(n * spec.val_fraction))
    n_test = int(round(n * spec.test_fraction))
    n_train = n - n_val - n_test
    sizes = [n_train, n_val, n_test]
    if n >= 3:
        for part in range(3):
            while sizes[part] == 0:
                donor = int(np.argmax(sizes))
                sizes[donor] -= 1
                sizes[part] += 1
    elif n == 2:
        sizes = [1, 0, 1]
    else:
        sizes = [1, 0, 0]
    return sizes[0], sizes[1], sizes[2]


def split_dataset(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Partition into train/val/test, stratified per class by default."""
    rng = np.random.default_rng(spec.seed)
    if spec.stratified:
        train_idx, val_idx, test_idx = [], [], []
        for c in range(dataset.num_classes):
            members = np.flatnonzero(dataset.labels == c)
            if members.size == 0:
                continue
            perm = rng.permutation(members)
            n_train, n_val, _ = _allocate(members.size, spec)
            train_idx.append(perm[:n_train])
            val_idx.append(perm[n_train:n_train + n_val])
            test_idx.append(perm[n_train + n_val:])
        parts = [np.sort(np.concatenate(p)) if p else np.empty(0, np.int64)
                 for p in (train_idx, val_idx, test_idx)]
    else:
        perm = rng.permutation(dataset.num_instances)
        n = dataset.num_instances
        cut1 = int(round(n * spec.train_fraction))
        cut2 = cut1 + int(round(n * spec.val_fraction))
        parts = [np.sort(perm[:cut1]), np.sort(perm[cut1:cut2]), np.sort(perm[cut2:])]
    for name, idx in zip(("train", "val", "test"), parts):
        if idx.size == 0:
            raise ValueError(f"dataset too small: {name} partition is empty")
    return tuple(dataset.subset(idx) for idx in parts)  # type: ignore[return-value]


def load_embeddings(path: str) -> Dataset:
    """Read a dataset from the plain-text embedding format.

    Line 1: ``C=<int> D=<int>``.  Line 2: C distinct comma-separated class
    names.  Each following line: ``<label>,<f_1>,...,<f_D>`` with an optional
    trailing ``crop=<0|1>`` field (recorded by detector pipelines, ignored
    here).  Data lines are ASCII without ``_``, and the label is plain digits.
    Malformed content raises ValueError naming the path and the 1-based line;
    the file is read line by line, so the first faulty line is the one named.

    A regular file's parse is cached in the sidecar ``<path>.ltlab-cache``,
    keyed by the sha256 of the bytes parsed: a later load of the same bytes
    reads the arrays back instead of parsing.  The cache never changes the
    result and never raises; a sidecar that does not match is a miss.
    """
    sidecar = path + SIDECAR_SUFFIX
    try:
        with open(path, "rb") as fh:
            cacheable = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            if cacheable and os.path.isfile(sidecar):
                cached = _read_sidecar(sidecar, _sha256_of(fh))
                if cached is not None:
                    return cached
                fh.seek(0)
            source = hashlib.sha256()
            dataset = _parse_embeddings(_numbered_lines(fh, source))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if cacheable:
        _write_sidecar(sidecar, dataset, source.hexdigest())
    return dataset


def _numbered_lines(fh: Iterable[bytes], source) -> Iterator[tuple[int, int, bytes]]:
    """Yield (1-based number, byte offset, bytes without the newline) per line,
    feeding every raw line to the hash ``source`` as it is read.

    Empty lines are held back until a later line follows them, so the empty
    lines that end a file are never yielded.
    """
    offset = 0
    held: list[tuple[int, int, bytes]] = []
    for lineno, raw in enumerate(fh, start=1):
        source.update(raw)
        line = raw[:-1] if raw.endswith(b"\n") else raw
        if line:
            yield from held
            held.clear()
            yield lineno, offset, line
        else:
            held.append((lineno, offset, line))
        offset += len(raw)


def _decode(lineno: int, offset: int, line: bytes) -> str:
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"line {lineno}: not UTF-8 text (byte {offset + exc.start})") from None


def _parse_embeddings(lines: Iterator[tuple[int, int, bytes]]) -> Dataset:
    first, second = next(lines, None), next(lines, None)
    if second is None:
        raise ValueError("line 1: missing header or class-name line")
    header = _decode(*first)
    m = _HEADER_RE.match(header)
    if not m:
        raise ValueError(f"line 1: header must be 'C=<int> D=<int>', got {header!r}")
    num_classes, dim = int(m.group(1)), int(m.group(2))
    if num_classes < 1 or dim < 1:
        raise ValueError("line 1: C and D must be >= 1")
    names = _decode(*second).split(",")
    if len(names) != num_classes:
        raise ValueError(f"line 2: expected {num_classes} class names, got {len(names)}")
    try:
        _check_class_names(names)
    except ValueError as exc:
        raise ValueError(f"line 2: {exc}") from None

    # One growing buffer each; the returned arrays are views of them.
    features, labels = array("d"), array("q")
    for lineno, offset, line in lines:
        if not line.isascii() or b"_" in line:
            _decode(lineno, offset, line)
            raise ValueError(f"line {lineno}: numbers must be ASCII, without '_'")
        fields = line.split(b",")
        if fields[-1].startswith(b"crop="):
            crop = fields.pop()
            if crop not in (b"crop=0", b"crop=1"):
                raise ValueError(f"line {lineno}: crop flag must be crop=0 or crop=1")
        if len(fields) != 1 + dim:
            raise ValueError(
                f"line {lineno}: expected label plus {dim} features, got {len(fields)} fields"
            )
        if not fields[0].isdigit():
            raise ValueError(
                f"line {lineno}: label {fields[0].decode()!r} is not a non-negative integer"
            )
        label = int(fields[0])
        if label >= num_classes:
            raise ValueError(f"line {lineno}: label {label} out of range [0, {num_classes})")
        try:
            row = list(map(float, fields[1:]))
        except ValueError:
            raise ValueError(f"line {lineno}: malformed feature value") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"line {lineno}: non-finite feature value")
        labels.append(label)
        features.extend(row)
    if not labels:
        raise ValueError("no instances")
    return Dataset(
        features=np.frombuffer(features, dtype=np.float64).reshape(len(labels), dim),
        labels=np.frombuffer(labels, dtype=np.int64),
        class_names=tuple(names),
    )


def _check_separator(names: list[str] | tuple[str, ...]) -> None:
    """Raise ValueError if a name holds "\x1f", which joins the names a digest covers."""
    for name in names:
        if "\x1f" in name:
            raise ValueError(f"class name {name!r} holds '\\x1f', the digest's separator")


def _check_class_names(names: list[str] | tuple[str, ...]) -> None:
    """Raise ValueError if a name is blank, repeated or holds the digest's separator."""
    if any(not n.strip() for n in names):
        raise ValueError("empty class name")
    if len(set(names)) != len(names):
        duplicate = next(n for i, n in enumerate(names) if n in names[:i])
        raise ValueError(f"duplicate class name {duplicate!r}")
    _check_separator(names)


def save_embeddings(dataset: Dataset, path: str) -> None:
    """Write the embedding text format; floats use repr for exact round-trips.

    Class names ``load_embeddings`` would reject raise ValueError before the
    file is opened, and the file appears whole or not at all.
    """
    if any("," in n or "\n" in n for n in dataset.class_names):
        raise ValueError("class names must not contain commas or newlines")
    _check_class_names(dataset.class_names)
    for name in dataset.class_names:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"class name {name!r} is not UTF-8 text") from None
    with replacing(path, "x", encoding="utf-8", newline="\n") as fh:
        fh.write(f"C={dataset.num_classes} D={dataset.feature_dim}\n")
        fh.write(",".join(dataset.class_names) + "\n")
        # One row is converted at a time, so the text of only one row is held.
        for label, row in zip(dataset.labels.tolist(), dataset.features):
            fh.write(f"{label}," + ",".join(map(repr, row.tolist())) + "\n")


# ---------------------------------------------------------------------------
# Embedding cache: ``<path>.ltlab-cache``, a framed file (see ``schema``) of
# the features as little-endian float64 (rows x dim) and the labels as
# little-endian int64.  ``source_sha256`` hashes the text they were parsed
# from; ``payload_sha256`` is the digest of the dataset they make.
# ---------------------------------------------------------------------------

SIDECAR_SUFFIX = ".ltlab-cache"
_SIDECAR_MAGIC = b"LTLABEMB1\n"
_SIDECAR_TYPES = {"source_sha256": str, "rows": int, "dim": int, "class_names": [str],
                  "payload_sha256": str}
_HASH_CHUNK = 1 << 16


def _sha256_of(fh: IO[bytes]) -> str:
    """sha256 of the rest of ``fh``, read a chunk at a time."""
    h = hashlib.sha256()
    for chunk in iter(lambda: fh.read(_HASH_CHUNK), b""):
        h.update(chunk)
    return h.hexdigest()


def _sidecar_header(dataset: Dataset, source_sha256: str) -> dict:
    """The sidecar header of ``dataset`` parsed from text hashing to ``source_sha256``."""
    return {"format": "longtail-lab-embedding-cache", "version": 1,
            "source_sha256": source_sha256, "rows": dataset.num_instances,
            "dim": dataset.feature_dim, "class_names": list(dataset.class_names),
            "payload_sha256": dataset.digest()}


def _is_sidecar(path: str) -> bool:
    """Whether ``path`` is a regular file that starts with the sidecar magic."""
    if not os.path.isfile(path):
        return False
    with open(path, "rb") as fh:
        return fh.read(len(_SIDECAR_MAGIC)) == _SIDECAR_MAGIC


def _read_sidecar(path: str, source_sha256: str) -> Dataset | None:
    """The dataset the sidecar at ``path`` holds for text hashing to
    ``source_sha256``, or None if it holds no such dataset whole."""
    try:
        return read_framed(path, _SIDECAR_MAGIC, "embedding-cache", _SIDECAR_TYPES,
                           _dataset_from_sidecar, lambda ds: _sidecar_header(ds, source_sha256))
    except (OSError, ValueError, RecursionError):
        return None


def _dataset_from_sidecar(header: dict, fh: IO[bytes]) -> Dataset:
    """The dataset whose arrays follow the header in ``fh``."""
    rows, dim = header["rows"], header["dim"]
    arrays = read_arrays(fh, [("features", (rows, dim), "<f8"), ("labels", (rows,), "<i8")])
    return Dataset(**arrays, class_names=tuple(header["class_names"]))


def _write_sidecar(path: str, dataset: Dataset, source_sha256: str) -> None:
    """Cache ``dataset`` at ``path``, unless a file there is not a sidecar.
    Failing to write only leaves the cache out."""
    try:
        if os.path.lexists(path) and not _is_sidecar(path):
            logger.info("%s: not an embedding cache; left as it is", path)
            return
        write_framed(path, _SIDECAR_MAGIC, _sidecar_header(dataset, source_sha256),
                     (np.ascontiguousarray(dataset.features, dtype="<f8"),
                      np.ascontiguousarray(dataset.labels, dtype="<i8")))
    except OSError as exc:
        logger.info("%s: embedding cache not written: %s", path, exc)
