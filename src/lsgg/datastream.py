"""Task schedules, synthetic embedding datasets, and the LSGG-EMB file format.

A dataset is a flat list of :class:`RelationInstance`; the lifelong protocol
partitions the predicate vocabulary into disjoint per-stage label sets and
routes instances to stages by predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ioutil import format_float
from .rng import SeededRng, _mix64
from .numerics import random_unit_vector

EMB_MAGIC = "LSGG-EMB"
EMB_VERSION = 1


@dataclass
class RelationInstance:
    """One subject-object pair: features, entity labels, predicate label."""

    image_id: int
    f_c: np.ndarray
    f_r: np.ndarray
    f_s: np.ndarray
    f_o: np.ndarray
    subject_class: int
    object_class: int
    predicate: int
    boxes: tuple | None = None  # ((x1,y1,x2,y2) subject, (x1,y1,x2,y2) object)
    confidence: float | None = None

    def validate(self) -> None:
        for name in ("f_c", "f_r", "f_s", "f_o"):
            v = getattr(self, name)
            if not np.all(np.isfinite(v)):
                raise ValueError(f"instance {self.image_id}: {name} has non-finite entries")
        if self.boxes is not None:
            for box in self.boxes:
                x1, y1, x2, y2 = box
                if not (x1 < x2 and y1 < y2):
                    raise ValueError(f"instance {self.image_id}: degenerate box {box}")
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"instance {self.image_id}: confidence {self.confidence} outside [0,1]")


@dataclass
class TaskSchedule:
    """Ordered partition of the predicate vocabulary into per-stage label sets."""

    stages: list  # list of sorted tuples of label ids

    def __post_init__(self):
        seen = set()
        for t, labels in enumerate(self.stages):
            if len(labels) == 0:
                raise ValueError(f"stage {t + 1} is empty")
            overlap = seen.intersection(labels)
            if overlap:
                raise ValueError(f"stage {t + 1} shares labels with an earlier stage: {sorted(overlap)}")
            seen.update(labels)
        self._owner = {label: t for t, labels in enumerate(self.stages) for label in labels}

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def stage_of(self, label: int) -> int:
        if label not in self._owner:
            raise ValueError(f"predicate {label} not covered by the schedule")
        return self._owner[label]

    def arrived_labels(self, t: int) -> list:
        """All labels of stages 0..t, sorted."""
        out = []
        for labels in self.stages[: t + 1]:
            out.extend(labels)
        return sorted(out)


@dataclass
class StageDataset:
    train: list
    val: list
    test: list


def _chunk_sizes(n: int, t: int) -> list:
    base, rem = divmod(n, t)
    return [base + 1 if i < rem else base for i in range(t)]


def split_random(vocab, t: int, rng: SeededRng) -> TaskSchedule:
    """Randomly partition the vocabulary into t near-equal stage label sets."""
    labels = sorted(vocab)
    if t < 1 or t > len(labels):
        raise ValueError(f"cannot split {len(labels)} predicates into {t} stages")
    rng.shuffle(labels)
    stages, pos = [], 0
    for size in _chunk_sizes(len(labels), t):
        stages.append(tuple(sorted(labels[pos : pos + size])))
        pos += size
    return TaskSchedule(stages)


def predicate_counts(dataset, labels) -> dict:
    """Instances per predicate, keyed by ``labels`` in their order (0 for a
    label with no instance); a predicate outside ``labels`` raises KeyError."""
    counts = {label: 0 for label in labels}
    for inst in dataset:
        counts[inst.predicate] += 1
    return counts


def split_by_frequency(vocab, counts: dict, t: int) -> TaskSchedule:
    """Head-to-tail split: stage 1 gets the most frequent predicates.

    Labels are sorted by descending training count (ties by label id) and
    chunked into t near-equal stages.
    """
    labels = sorted(vocab)
    if t < 1 or t > len(labels):
        raise ValueError(f"cannot split {len(labels)} predicates into {t} stages")
    missing = [l for l in labels if l not in counts]
    if missing:
        raise ValueError(f"missing counts for labels {missing}")
    ordered = sorted(labels, key=lambda l: (-counts[l], l))
    stages, pos = [], 0
    for size in _chunk_sizes(len(labels), t):
        stages.append(tuple(sorted(ordered[pos : pos + size])))
        pos += size
    return TaskSchedule(stages)


def _split_hash(image_id: int, occurrence: int) -> int:
    # content-free deterministic key; stable under reordering of whole images
    return _mix64(_mix64(image_id ^ 0xD1B54A32D192ED03) + occurrence)


def make_stage_datasets(dataset, schedule: TaskSchedule, split_fractions=(0.7, 0.1, 0.2)) -> list:
    """Route instances to their predicate's stage and split train/val/test.

    The within-stage split is hash-based on (image_id, occurrence index of the
    instance within its image), with quota boundaries rounded from the
    fractions, so split sizes stay within one instance of exact proportion.
    """
    fr = tuple(float(f) for f in split_fractions)
    if len(fr) != 3 or any(f <= 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must be three positives summing to 1, got {fr}")

    per_stage = [[] for _ in range(schedule.n_stages)]
    occ_counter: dict = {}
    for inst in dataset:
        t = schedule.stage_of(inst.predicate)  # raises for uncovered predicates
        occ = occ_counter.get(inst.image_id, 0)
        occ_counter[inst.image_id] = occ + 1
        per_stage[t].append((_split_hash(inst.image_id, occ), inst.image_id, occ, inst))

    out = []
    for members in per_stage:
        members.sort(key=lambda rec: rec[:3])
        n = len(members)
        b1 = int(np.floor(fr[0] * n + 0.5))
        b2 = int(np.floor((fr[0] + fr[1]) * n + 0.5))
        insts = [rec[3] for rec in members]
        out.append(StageDataset(train=insts[:b1], val=insts[b1:b2], test=insts[b2:]))
    return out


@dataclass
class SynthConfig:
    """Gaussian-mixture generator with Zipf-distributed class counts.

    Every predicate class has a unit-norm relation-space mean and belongs to
    one of ``n_groups`` knowledge groups (class id mod n_groups); each group
    has a unit-norm context-space mean, so the context feature carries the
    group identity that knowledge-keyed retrieval can recover.
    """

    n_pred: int = 50
    n_groups: int = 5
    n_obj: int = 20
    d_c: int = 64
    d_r: int = 64
    d_o: int = 32
    sigma: float = 0.35
    zipf_s: float = 0.8
    total_n: int = 10_000
    pairs_per_image: int = 4

    def validate(self) -> None:
        if self.n_pred < 1 or self.n_groups < 1 or self.n_obj < 1:
            raise ValueError("class counts must be >= 1")
        if min(self.d_c, self.d_r, self.d_o) < 2:
            raise ValueError("feature dimensions must be >= 2")
        if self.sigma < 0 or self.zipf_s < 0:
            raise ValueError("sigma and zipf_s must be >= 0")
        if self.total_n < 1 or self.pairs_per_image < 1:
            raise ValueError("total_n and pairs_per_image must be >= 1")


def zipf_counts(n_classes: int, s: float, total: int) -> list:
    """Integer class counts ~ 1/rank^s summing exactly to total, non-increasing."""
    w = np.array([1.0 / (c + 1) ** s for c in range(n_classes)])
    ideal = total * w / w.sum()
    counts = np.floor(ideal).astype(int)
    shortfall = total - int(counts.sum())
    order = sorted(range(n_classes), key=lambda c: (-(ideal[c] - counts[c]), c))
    for c in order[:shortfall]:
        counts[c] += 1
    # remainder bumps may locally break monotonicity; reassign the multiset in rank order
    return sorted(counts.tolist(), reverse=True)


def synth_generate(config: SynthConfig, rng: SeededRng):
    """Generate a dataset; returns (instances, group_of_class list)."""
    config.validate()
    counts = zipf_counts(config.n_pred, config.zipf_s, config.total_n)
    group_of_class = [c % config.n_groups for c in range(config.n_pred)]

    mean_rng = rng.derive("means")
    rel_means = [random_unit_vector(config.d_r, mean_rng) for _ in range(config.n_pred)]
    ctx_means = [random_unit_vector(config.d_c, mean_rng) for _ in range(config.n_groups)]
    obj_means = [random_unit_vector(config.d_o, mean_rng) for _ in range(config.n_obj)]

    obj_table = np.asarray(obj_means)
    draw_rng = rng.derive("instances")
    instances = []
    for c in range(config.n_pred):
        g = group_of_class[c]
        n = counts[c]
        if n == 0:
            continue
        bounds = np.full(n, config.n_obj)
        subj = draw_rng.randint_block(bounds)
        obj = draw_rng.randint_block(bounds)
        f_c = ctx_means[g] + config.sigma * draw_rng.normal((n, config.d_c))
        f_r = rel_means[c] + config.sigma * draw_rng.normal((n, config.d_r))
        f_s = obj_table[subj] + config.sigma * draw_rng.normal((n, config.d_o))
        f_o = obj_table[obj] + config.sigma * draw_rng.normal((n, config.d_o))
        for i, (s, o) in enumerate(zip(subj.tolist(), obj.tolist())):
            instances.append(
                RelationInstance(
                    image_id=0, f_c=f_c[i], f_r=f_r[i], f_s=f_s[i], f_o=f_o[i],
                    subject_class=s, object_class=o, predicate=c,
                )
            )

    order = rng.derive("image-order").permutation(len(instances))
    shuffled = [instances[i] for i in order]
    for idx, inst in enumerate(shuffled):
        inst.image_id = idx // config.pairs_per_image
    return shuffled, group_of_class


# -- LSGG-EMB v1 text format -------------------------------------------------
#
# header:  LSGG-EMB 1 <d_c> <d_r> <d_o> <n_obj> <n_pred>
# record:  image_id subj_class obj_class pred_class has_boxes[0|1]
#          (8 box floats if 1) confidence f_c... f_r... f_s... f_o...
# confidence is '-' when absent; '#' lines are comments.


def save_embeddings(dataset, path, n_obj: int | None = None, n_pred: int | None = None) -> None:
    """Write a dataset in LSGG-EMB v1; floats at full round-trip precision."""
    if dataset:
        d_c, d_r, d_o = len(dataset[0].f_c), len(dataset[0].f_r), len(dataset[0].f_o)
        if n_obj is None:
            n_obj = max(max(i.subject_class, i.object_class) for i in dataset) + 1
        if n_pred is None:
            n_pred = max(i.predicate for i in dataset) + 1
    else:
        d_c = d_r = d_o = 2
        n_obj = n_obj or 1
        n_pred = n_pred or 1
    with open(path, "w") as fh:
        fh.write(f"{EMB_MAGIC} {EMB_VERSION} {d_c} {d_r} {d_o} {n_obj} {n_pred}\n")
        for inst in dataset:
            parts = [str(inst.image_id), str(inst.subject_class), str(inst.object_class), str(inst.predicate)]
            if inst.boxes is not None:
                parts.append("1")
                for box in inst.boxes:
                    parts.extend(format_float(v) for v in box)
            else:
                parts.append("0")
            parts.append("-" if inst.confidence is None else format_float(inst.confidence))
            for vec in (inst.f_c, inst.f_r, inst.f_s, inst.f_o):
                parts.extend(format_float(v) for v in vec)
            fh.write(" ".join(parts) + "\n")


class EmbeddingFormatError(ValueError):
    pass


def _parse_floats(tokens, n, lineno, what):
    if len(tokens) < n:
        raise EmbeddingFormatError(f"line {lineno}: expected {n} floats for {what}, found {len(tokens)}")
    try:
        vals = np.array([float(tok) for tok in tokens[:n]])
    except ValueError as exc:
        raise EmbeddingFormatError(f"line {lineno}: bad float in {what}: {exc}") from None
    if not np.all(np.isfinite(vals)):
        raise EmbeddingFormatError(f"line {lineno}: non-finite value in {what}")
    return vals, tokens[n:]


def load_embeddings(path) -> list:
    """Parse an LSGG-EMB v1 file; errors carry the offending line number."""
    with open(path) as fh:
        lines = fh.readlines()
    header_idx = None
    for i, line in enumerate(lines):
        if line.strip() and not line.lstrip().startswith("#"):
            header_idx = i
            break
    if header_idx is None:
        raise EmbeddingFormatError("missing header line")
    head = lines[header_idx].split()
    if len(head) != 7 or head[0] != EMB_MAGIC or head[1] != str(EMB_VERSION):
        raise EmbeddingFormatError(f"line {header_idx + 1}: bad header {lines[header_idx].strip()!r}")
    try:
        d_c, d_r, d_o, n_obj, n_pred = (int(tok) for tok in head[2:])
    except ValueError:
        raise EmbeddingFormatError(f"line {header_idx + 1}: header fields must be integers") from None

    out = []
    for lineno, line in enumerate(lines[header_idx + 1 :], start=header_idx + 2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        toks = stripped.split()
        if len(toks) < 5:
            raise EmbeddingFormatError(f"line {lineno}: truncated record")
        try:
            image_id, subj, obj, pred = (int(tok) for tok in toks[:4])
        except ValueError:
            raise EmbeddingFormatError(f"line {lineno}: non-integer id field") from None
        if not 0 <= subj < n_obj or not 0 <= obj < n_obj:
            raise EmbeddingFormatError(f"line {lineno}: object class outside declared range")
        if not 0 <= pred < n_pred:
            raise EmbeddingFormatError(f"line {lineno}: predicate outside declared range")
        has_boxes = toks[4]
        rest = toks[5:]
        boxes = None
        if has_boxes == "1":
            flat, rest = _parse_floats(rest, 8, lineno, "boxes")
            boxes = (tuple(flat[:4]), tuple(flat[4:]))
        elif has_boxes != "0":
            raise EmbeddingFormatError(f"line {lineno}: has_boxes must be 0 or 1, got {has_boxes!r}")
        if not rest:
            raise EmbeddingFormatError(f"line {lineno}: missing confidence field")
        conf_tok, rest = rest[0], rest[1:]
        if conf_tok == "-":
            confidence = None
        else:
            (confidence,), _ = _parse_floats([conf_tok], 1, lineno, "confidence")
            confidence = float(confidence)
        f_c, rest = _parse_floats(rest, d_c, lineno, "f_c")
        f_r, rest = _parse_floats(rest, d_r, lineno, "f_r")
        f_s, rest = _parse_floats(rest, d_o, lineno, "f_s")
        f_o, rest = _parse_floats(rest, d_o, lineno, "f_o")
        if rest:
            raise EmbeddingFormatError(f"line {lineno}: {len(rest)} unexpected trailing fields")
        inst = RelationInstance(
            image_id=image_id, f_c=f_c, f_r=f_r, f_s=f_s, f_o=f_o,
            subject_class=subj, object_class=obj, predicate=pred,
            boxes=boxes, confidence=confidence,
        )
        inst.validate()
        out.append(inst)
    return out
