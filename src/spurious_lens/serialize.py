"""Deterministic report serialization and problem-instance parsing.

JSON output is canonical UTF-8: keys sorted, no whitespace, each float in
the shortest digits that read back as the same float64, a single trailing
newline. One walk refuses non-finite floats (a float64 array by one
isfinite) and non-string keys, and hands every other array and numpy scalar
over as its Python value; one orjson call then writes the document, each
float64 array straight from its buffer. CSV projections are written by the
csv module, which prints floats with Python's repr, the same shortest
round-trip digits.

An instance document is UTF-8 bytes (the CLI reads the file as bytes, with
no newline translation) or text. Each flat list, a [ ... ] with no bracket,
brace or quote inside, stands in a skeleton as a placeholder list, and
json.loads reads that skeleton first. Each flat list is then read by its
own orjson call and put back in its placeholder's place; the rows of an
instance's train.Z, unlabeled.Zu and list-form sigmas instead go, one row
per call, into a float64 array as they are read (_rows), so the value
classes get arrays and no matrix is held whole as Python floats. One
whole-document orjson call would be simpler, but orjson 3.8.3 builds nested
values recursively and crashes the process on a deep document, and its
buffer would hold about 1.7x the document, not one list. The result is
json.loads's, except that an integer beyond 64 bits reads as the nearest
float, as every consumer makes it anyway, and those matrices are arrays of
the values np.asarray gives for json.loads's lists. A document the splicer
cannot take goes through json.loads whole, its matrices as lists. The
cyclic collector is paused while the document is read: the lists hold only
numbers and no cycles, yet every collection that fires while they are
built walks each of their slots again.

Instance parsing checks only the document's layout (which blocks and keys
are present) and passes the raw JSON values (a matrix as the array the
reader filled) to the library's value classes, which own every array check
and keep finite, read-only copies; a number field takes a JSON number
alone, not a string or a bool (_number, _integer). The one
exception is a group's sigma: its document form decides whether it is a
diagonal vector or a d x d matrix, so it is converted first. `_build` is
the one place where a failure on outside input, from a conversion or a
value class, becomes an InstanceError that names its block; the CLI reads
its scenario values through it too. Fits, constructions and scenario runs
never go through it, so their own errors keep their exit codes.
"""

from __future__ import annotations

import csv
import gc
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
import orjson

from .analysis import RobustSpec, TestDistribution
from .estimators import GroundTruth, LabeledData, UnlabeledData
from .exceptions import SpuriousLensError
from .minnorm import DesignMatrix, _as_matrix, _as_vector


# Largest robust.samples an instance may ask for. The robust sampler holds a
# samples x d batch of normals and its squares (l2) or its image under the
# factor (linf), plus the values z'v each group keeps: a traced peak of 89 MB
# (l2) and 85 MB (linf) at d = 40, 10 groups and this bound. An unbounded
# count ends in numpy's "Maximum allowed dimension exceeded" or a MemoryError
# instead of an input error.
MAX_ROBUST_SAMPLES = 100_000

# Largest dimension `construct --mode balanced` may ask for (--d or
# scenario.d). The construction holds and writes three n x d designs, so
# its time and memory grow as n * d: at d = 4096 and n = 200, 0.18 s, a
# 94 MB peak and 12 MB of JSON on a 2-vCPU Xeon. An unbounded d ends in
# numpy's "Maximum allowed dimension exceeded" or a MemoryError instead of
# an input error.
MAX_BALANCED_DIM = 4_096


class InstanceError(ValueError):
    """The instance document is malformed or misses a required block."""


def _checked(obj):
    """obj as orjson is to write it, or a ValueError or TypeError.

    A float64 array stays as it is; any other array, and any numpy scalar,
    becomes its Python value, so a float32 entry is written as the float64
    it equals, not by its own shortest digits.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(x := float(obj)):
            raise ValueError(f"cannot serialize non-finite float {x}")
        return x
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key)}")
        return {key: _checked(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_checked(item) for item in obj]
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64:
        finite = np.isfinite(obj)
        if not finite.all():
            raise ValueError(f"cannot serialize non-finite float {obj[~finite][0]}")
        return obj
    if isinstance(obj, np.ndarray):
        return _checked(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj)}")


def dumps_canonical(obj) -> bytes:
    """Serialize to canonical JSON as UTF-8 bytes (sorted keys, shortest
    round-trip floats, one trailing newline).

    orjson declines a float64 array that is not C-contiguous or has no
    dimension; those go through their nested lists.
    """
    return orjson.dumps(
        _checked(obj),
        option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE,
        default=np.ndarray.tolist,
    )


def _csv_cell(value):
    """value as the csv module is to write it: a bool as true/false, a numpy
    float as the Python float it equals (which csv writes by its repr)."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, np.floating):
        return float(value)
    return value


def rows_to_csv(fieldnames: list[str], rows) -> str:
    """Dict rows as CSV text under a header of fieldnames, keys outside it ignored.

    The csv module writes None and a missing key as an empty cell and a float
    by its repr; bools become true/false, as in the JSON report.
    """
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n", extrasaction="ignore")
    writer.writeheader()
    writer.writerows({key: _csv_cell(value) for key, value in row.items()} for row in rows)
    return buf.getvalue()


@dataclass(frozen=True)
class Instance:
    """Parsed problem instance: whatever blocks the document provided."""

    truth: GroundTruth | None
    data: LabeledData | None
    unlabeled: UnlabeledData | None
    groups: list[TestDistribution]
    robust: RobustSpec | None
    robust_samples: int
    scenario: dict


def _build(name: str, make):
    """make(), with a failure on outside input raised as InstanceError naming the block.

    make converts outside values or builds value classes from them, nothing
    more. Besides the value classes' TypeError, ValueError and
    SpuriousLensError, float() of a huge JSON integer raises OverflowError and
    json.loads of a deeply nested document raises RecursionError.
    """
    try:
        return make()
    except (TypeError, ValueError, OverflowError, RecursionError, SpuriousLensError) as exc:
        raise InstanceError(f"{name} invalid: {exc}") from exc


def _number(value) -> float:
    """float(value) of a JSON number, an int or a float; a string or a bool is refused."""
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _integer(value) -> int:
    """int(value) of a JSON number, as _number takes it, refusing a float with
    a fractional part instead of truncating it."""
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a number")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _utf8(text: str) -> str:
    """text, refusing a lone surrogate (json.loads reads one from an escape
    such as \\ud800), which no UTF-8 report can hold."""
    text.encode("utf-8")
    return text


def _sigma(block):
    """A group's second moment: its diagonal vector for the {"diag": [...]} form,
    else the d x d matrix the list spells out (a flat list is no diagonal)."""
    if isinstance(block, dict):
        if set(block) != {"diag"}:
            raise ValueError('object form must be {"diag": [...]}')
        return _as_vector(block["diag"], "diag")
    return _as_matrix(block, "sigma")


def _slot(node) -> int | None:
    """k for a placeholder, a list of one string "\\0<k>", else None."""
    if type(node) is list and len(node) == 1 and type(node[0]) is str and node[0][:1] == "\0":
        return int(node[0][1:])
    return None


def _splice(node, pieces: list):
    """node with each placeholder for the k-th flat list replaced by orjson's
    read of pieces[k], the list's bytes."""
    if (k := _slot(node)) is not None:
        return orjson.loads(pieces[k])
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            node[key] = _splice(value, pieces)
    return node


def _rows(node, pieces: list):
    """node, a nonempty list of placeholders for nonempty flat rows of one
    length, as a locked float64 array; else node itself.

    Each row is read by its own orjson call, its entries converted into the
    array by one np.fromiter pass as np.asarray converts them, and dropped;
    the equal-size resize gives the array its 2-D shape in place, so it owns
    its buffer and freezing it copies nothing. A ragged row ends the pass
    short, and any failure leaves node to be spliced as lists: json.loads
    whole then reads a row orjson refuses.
    """
    if type(node) is not list or not node or None in (ids := [_slot(row) for row in node]):
        return node
    rows = map(orjson.loads, (pieces[k] for k in ids))
    try:
        if d := len(first := next(rows)):
            rows = itertools.chain([first], itertools.takewhile(lambda row: len(row) == d, rows))
            m = np.fromiter(itertools.chain.from_iterable(rows), float, len(ids) * d)
            m.resize((len(ids), d))
            m.setflags(write=False)
            return m
    except (TypeError, ValueError, OverflowError):
        pass
    return node


def _instance_matrices(doc) -> list[tuple[dict, str]]:
    """(block, key) of each matrix an instance document may spell as rows:
    train.Z, unlabeled.Zu and each group's sigma."""
    if not isinstance(doc, dict):
        return []
    places = [(doc.get("train"), "Z"), (doc.get("unlabeled"), "Zu")]
    if isinstance(groups := doc.get("groups"), list):
        places += [(group, "sigma") for group in groups]
    return [(block, key) for block, key in places if isinstance(block, dict) and key in block]


def _loads_lists(data: bytes, arrays: bool):
    """The document: the skeleton by json.loads, then each flat list by orjson.

    With arrays, the rows of each place _instance_matrices names become a
    float64 array (_rows); every other flat list is spliced in as a list.
    Raises ValueError when a string of the skeleton holds the escape
    \\u0000, which would read like a placeholder.
    """
    view = memoryview(data)
    pieces = []
    skeleton = bytearray()
    pos = done = 0
    while (left := data.find(b"[", pos)) >= 0 and (right := data.find(b"]", left)) >= 0:
        left, pos = data.rfind(b"[", left, right), right + 1
        if any(data.find(c, left, right) >= 0 for c in (b"{", b"}", b'"')):
            continue
        skeleton += data[done:left] + b'["\\u0000%d"]' % len(pieces)
        pieces.append(view[left:pos])
        done = pos
    if not pieces:
        return json.loads(data.decode("utf-8"))
    skeleton += view[done:]
    if skeleton.count(b"\\u0000") != len(pieces):
        raise ValueError("a string holds the escape \\u0000")
    doc = json.loads(skeleton.decode("utf-8"))
    for block, key in _instance_matrices(doc) if arrays else []:
        block[key] = _rows(block[key], pieces)
    return _splice(doc, pieces)


def _loads(data: bytes | str, arrays: bool = False):
    """json.loads of the document, each flat list read by its own orjson call;
    with arrays, an instance's train.Z, unlabeled.Zu and list-form sigmas
    come as float64 arrays filled row by row (_rows) instead.

    A flat list is a [ ... ] with no bracket, brace or quote inside; the scan
    takes the last [ before the first ] after the candidate before, so a deep
    array is one candidate. No nesting reaches orjson 3.8.3's recursive
    builder, which crashes on a deep document, and its buffer holds one
    list, not 1.7x the document. Each flat list becomes a placeholder list
    ["\\u0000<k>"] in the skeleton that json.loads reads first, under json's
    rules on NaN, depth, integer size and surrogates; one inside a string
    closes that string at the placeholder's quote and leaves \\u0000 outside
    it, so that skeleton does not parse. On any failure, encoding a str
    included, json.loads reads it all.

    The cyclic collector is paused throughout and the caller's setting
    restored after: a young-generation collection fires, by default, every
    700 new containers and walks every slot of each list built since,
    though lists of numbers cannot hold a cycle (2-3 collections and 9-20
    ms per pass of the benchmark's construct-dump and analyze-wide, on a
    2-vCPU Xeon).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _loads_lists(data.encode("utf-8") if isinstance(data, str) else data, arrays)
    except (ValueError, RecursionError):
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    finally:
        if enabled:
            gc.enable()


def parse_instance(data: bytes | str) -> Instance:
    """Parse an instance JSON document, UTF-8 bytes or text, into library objects."""
    doc = _build("instance JSON", lambda: _loads(data, arrays=True))
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    known = {"ground_truth", "train", "unlabeled", "groups", "robust", "scenario"}
    unknown = set(doc) - known
    if unknown:
        raise InstanceError(f"unknown instance blocks: {sorted(unknown)}")

    truth = None
    if "ground_truth" in doc:
        block = doc["ground_truth"]
        if not isinstance(block, dict) or "theta_star" not in block:
            raise InstanceError("ground_truth block needs theta_star")
        truth = _build(
            "ground_truth",
            lambda: GroundTruth(theta_star=block["theta_star"], beta_stars=block.get("beta_stars", ())),
        )

    data = None
    if "train" in doc:
        block = doc["train"]
        if not isinstance(block, dict) or "Z" not in block:
            raise InstanceError("train block needs Z")

        def make_train():
            z = DesignMatrix(block["Z"])
            if "S" in block and "Y" in block:
                return LabeledData(Z=z, S=block["S"], Y=block["Y"], truth=truth)
            if truth is None:
                raise ValueError("the block needs S and Y (or a ground_truth block)")
            return LabeledData.from_truth(z, truth)

        data = _build("train", make_train)

    unlabeled = None
    if "unlabeled" in doc:
        block = doc["unlabeled"]
        if not isinstance(block, dict) or "Zu" not in block or "Su" not in block:
            raise InstanceError("unlabeled block needs Zu and Su")
        unlabeled = _build("unlabeled", lambda: UnlabeledData(Zu=block["Zu"], Su=block["Su"]))

    groups = []
    group_blocks = doc.get("groups", [])
    if not isinstance(group_blocks, list):
        raise InstanceError("groups must be a list")
    for i, g in enumerate(group_blocks):
        if not isinstance(g, dict) or "sigma" not in g:
            raise InstanceError(f"groups[{i}] needs a sigma entry")
        label = str(g.get("label", f"group{i}"))
        groups.append(
            _build(f"groups[{i}]", lambda: TestDistribution(sigma=_sigma(g["sigma"]), label=_utf8(label)))
        )

    robust = None
    robust_samples = 4096
    if "robust" in doc:
        block = doc["robust"]
        if not isinstance(block, dict) or "gamma" not in block:
            raise InstanceError("robust block needs gamma")
        robust = _build(
            "robust",
            lambda: RobustSpec(
                gamma=_number(block["gamma"]), norm_kind=str(block.get("norm_kind", "l2"))
            ),
        )
        robust_samples = _build("robust.samples", lambda: _integer(block.get("samples", robust_samples)))
        if not 1 <= robust_samples <= MAX_ROBUST_SAMPLES:
            raise InstanceError(f"robust.samples must be in [1, {MAX_ROBUST_SAMPLES}]")

    scenario = doc.get("scenario", {})
    if not isinstance(scenario, dict):
        raise InstanceError("scenario block must be an object")
    return Instance(
        truth=truth,
        data=data,
        unlabeled=unlabeled,
        groups=groups,
        robust=robust,
        robust_samples=robust_samples,
        scenario=scenario,
    )
