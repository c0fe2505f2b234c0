"""Deterministic report serialization and problem-instance parsing.

JSON output is canonical: keys sorted, floats printed with 17 significant
digits (lossless round-trip), a single trailing newline. CSV projections
print floats with Python's shortest round-trip repr and parse back into the
same row structure.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .analysis import RobustSpec, TestDistribution
from .estimators import GroundTruth, LabeledData, UnlabeledData
from .exceptions import SpuriousLensError
from .minnorm import DesignMatrix


class InstanceError(ValueError):
    """The instance document is malformed or misses a required block."""


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    text = format(float(x), ".17g")
    # Normalize bare integers so the output is unambiguous JSON-wise.
    if "e" not in text and "." not in text and "n" not in text:
        text += ".0"
    return text


def _encode(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key)}")
            if i:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _encode(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _encode(item, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), out)
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def dumps_canonical(obj) -> str:
    """Serialize to deterministic JSON text (sorted keys, 17-digit floats)."""
    out: list[str] = []
    _encode(obj, out)
    return "".join(out) + "\n"


def rows_to_csv(fieldnames: list[str], rows: list[dict]) -> str:
    """Serialize dict rows to CSV with round-trippable scalar formatting."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        encoded = {}
        for key in fieldnames:
            value = row.get(key)
            if value is None:
                encoded[key] = ""
            elif isinstance(value, (bool, np.bool_)):
                encoded[key] = "true" if value else "false"
            elif isinstance(value, (float, np.floating)):
                encoded[key] = repr(float(value))
            elif isinstance(value, (int, np.integer)):
                encoded[key] = str(int(value))
            else:
                encoded[key] = str(value)
        writer.writerow(encoded)
    return buf.getvalue()


def csv_to_rows(text: str) -> list[dict]:
    """Parse CSV produced by rows_to_csv back into typed row dicts."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for raw in reader:
        row = {}
        for key, value in raw.items():
            if value == "" or value is None:
                row[key] = None
            elif value == "true":
                row[key] = True
            elif value == "false":
                row[key] = False
            else:
                try:
                    row[key] = int(value)
                except ValueError:
                    try:
                        row[key] = float(value)
                    except ValueError:
                        row[key] = value
        rows.append(row)
    return rows


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


def _array(block, name: str, ndims: tuple[int, ...], shape_text: str) -> np.ndarray:
    try:
        arr = np.asarray(block, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"{name} is not a numeric array") from exc
    if arr.ndim not in ndims:
        raise InstanceError(f"{name} must be {shape_text}")
    if not np.all(np.isfinite(arr)):
        raise InstanceError(f"{name} contains non-finite entries")
    return arr


def _matrix(block, name: str) -> np.ndarray:
    return _array(block, name, (2,), "a matrix (list of rows)")


def _vector(block, name: str) -> np.ndarray:
    return _array(block, name, (1,), "a flat list of numbers")


def _columns(block, name: str) -> np.ndarray:
    """A list of numbers (one column) or a matrix (list of rows), as n x k."""
    arr = _array(block, name, (1, 2), "a flat list of numbers or a matrix (list of rows)")
    return arr[:, None] if arr.ndim == 1 else arr


def _sigma_matrix(block, name: str) -> np.ndarray:
    if isinstance(block, dict):
        if set(block) != {"diag"}:
            raise InstanceError(f"{name} object form must be {{\"diag\": [...]}}")
        return np.diag(_vector(block["diag"], f"{name}.diag"))
    return _matrix(block, name)


def parse_instance(text: str) -> Instance:
    """Parse an instance JSON document into library objects."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON: {exc}") from exc
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
        betas = tuple(
            _vector(b, f"beta_stars[{i}]") for i, b in enumerate(block.get("beta_stars", []))
        )
        try:
            truth = GroundTruth(theta_star=_vector(block["theta_star"], "theta_star"), beta_stars=betas)
        except SpuriousLensError as exc:
            raise InstanceError(f"ground_truth invalid: {exc}") from exc

    data = None
    if "train" in doc:
        block = doc["train"]
        if not isinstance(block, dict) or "Z" not in block:
            raise InstanceError("train block needs Z")
        try:
            z = DesignMatrix(_matrix(block["Z"], "train.Z"))
        except ValueError as exc:
            raise InstanceError(f"train.Z invalid: {exc}") from exc
        if "S" in block and "Y" in block:
            s = _columns(block["S"], "train.S")
            y = _vector(block["Y"], "train.Y")
        elif truth is not None:
            generated = LabeledData.from_truth(z, truth)
            s, y = generated.S, generated.Y
        else:
            raise InstanceError("train block needs S and Y (or a ground_truth block)")
        try:
            data = LabeledData(Z=z, S=s, Y=y, truth=truth)
        except Exception as exc:
            raise InstanceError(f"train block inconsistent with ground_truth: {exc}") from exc

    unlabeled = None
    if "unlabeled" in doc:
        block = doc["unlabeled"]
        if not isinstance(block, dict) or "Zu" not in block or "Su" not in block:
            raise InstanceError("unlabeled block needs Zu and Su")
        zu = _matrix(block["Zu"], "unlabeled.Zu")
        su = _columns(block["Su"], "unlabeled.Su")
        try:
            unlabeled = UnlabeledData(Zu=zu, Su=su)
        except (ValueError, SpuriousLensError) as exc:
            raise InstanceError(f"unlabeled block invalid: {exc}") from exc

    groups = []
    for i, g in enumerate(doc.get("groups", [])):
        if not isinstance(g, dict) or "sigma" not in g:
            raise InstanceError(f"groups[{i}] needs a sigma entry")
        label = str(g.get("label", f"group{i}"))
        try:
            groups.append(TestDistribution(sigma=_sigma_matrix(g["sigma"], f"groups[{i}].sigma"), label=label))
        except ValueError as exc:
            raise InstanceError(f"groups[{i}].sigma invalid: {exc}") from exc

    robust = None
    robust_samples = 4096
    if "robust" in doc:
        block = doc["robust"]
        if not isinstance(block, dict) or "gamma" not in block:
            raise InstanceError("robust block needs gamma")
        try:
            robust = RobustSpec(
                gamma=float(block["gamma"]), norm_kind=str(block.get("norm_kind", "l2"))
            )
            robust_samples = int(block.get("samples", robust_samples))
        except Exception as exc:
            raise InstanceError(f"robust block invalid: {exc}") from exc
        if robust_samples < 1:
            raise InstanceError("robust.samples must be >= 1")

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
