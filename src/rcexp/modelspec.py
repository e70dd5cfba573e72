"""JSON model specifications consumed by the command-line tools.

Schema (all fields optional; commands validate that what they need is there):

    {
      "source":           [p1, p2, ...],
      "channel":          [[...], ...],          row-stochastic, positive
      "codebook":         [q1, q2, ...],
      "distortion":       [[...], ...],          numeric matrix, or
      "distortion_units": [[...], ...],          coefficients of ln((1-p)/p)
      "p":                0.22,                  scalar parameter for the unit, in (0, 1)
      "d_scale_values":   [...],                 distortion levels in units
      "normalize":        true                   renormalize rounded tables
    }

Decimal literals parse to the nearest double (bit-exact round trip through
``repr``); non-finite literals are rejected.  ``distortion_units`` expresses
matrices whose entries are exact multiples of the log-odds unit
ln((1-p)/p), avoiding decimal truncation of irrational values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelSpecError
from .probability import Channel, Distribution, DistortionModel

_KNOWN_FIELDS = {
    "source", "channel", "codebook", "distortion", "distortion_units",
    "p", "d_scale_values", "normalize", "comment",
}


def _reject_constant(name: str):
    raise ModelSpecError(f"non-finite literal {name!r} in model spec")


@dataclass(frozen=True)
class ModelSpec:
    source: Distribution | None
    channel: Channel | None
    codebook: Distribution | None
    distortion: DistortionModel | None
    p: float | None
    d_scale_values: tuple | None

    @property
    def distortion_unit(self) -> float:
        """ln((1-p)/p); requires the scalar parameter ``p``."""
        if self.p is None:
            raise ModelSpecError("model spec has no 'p'; cannot resolve scaled levels")
        return math.log((1.0 - self.p) / self.p)

    def resolve_level(self, value: float, scaled: bool) -> float:
        return value * self.distortion_unit if scaled else value


def parse_model(data: dict) -> ModelSpec:
    if not isinstance(data, dict):
        raise ModelSpecError("model spec must be a JSON object")
    unknown = set(data) - _KNOWN_FIELDS
    if unknown:
        raise ModelSpecError(f"unknown model spec fields: {sorted(unknown)}")
    normalize = bool(data.get("normalize", False))

    def field(name, convert=lambda value: np.asarray(value, dtype=float)):
        # None when absent; a value that does not convert is a spec error.
        if name not in data:
            return None
        try:
            return convert(data[name])
        except (TypeError, ValueError) as exc:
            raise ModelSpecError(f"invalid {name!r}: {exc}") from exc

    def vector(value):
        arr = np.asarray(value, dtype=float)
        if normalize and arr.ndim == 1 and arr.sum() > 0:
            arr = arr / arr.sum()
        return Distribution(arr)

    def matrix(value):
        arr = np.asarray(value, dtype=float)
        if normalize and arr.ndim == 2:
            arr = arr / arr.sum(axis=1, keepdims=True)
        return Channel(arr)

    source, codebook = field("source", vector), field("codebook", vector)
    channel = field("channel", matrix)
    p = field("p", float)
    if p is not None and not 0.0 < p < 1.0:
        raise ModelSpecError(f"'p' must lie strictly between 0 and 1, got {p!r}")

    distortion = None
    if "distortion" in data and "distortion_units" in data:
        raise ModelSpecError("give either 'distortion' or 'distortion_units', not both")
    if "distortion" in data:
        distortion = DistortionModel(field("distortion"))
    elif "distortion_units" in data:
        if p is None:
            raise ModelSpecError("'distortion_units' requires the scalar 'p'")
        distortion = DistortionModel(field("distortion_units") * math.log((1.0 - p) / p))

    scales = field("d_scale_values", lambda values: tuple(float(v) for v in values))
    if scales is not None and not all(map(math.isfinite, scales)):
        raise ModelSpecError(f"'d_scale_values' must be finite, got {list(scales)}")
    return ModelSpec(source, channel, codebook, distortion, p, scales)


def load_model(path: str) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ModelSpecError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    return parse_model(data)


def dump_model(spec: ModelSpec) -> dict:
    """Serializable dict that re-parses to an identical model.

    Floats serialize through ``repr`` (the shortest round-trip decimal), so a
    dump/load cycle reproduces every value bit-exactly.
    """
    out: dict = {}
    if spec.source is not None:
        out["source"] = [float(v) for v in spec.source.probs]
    if spec.channel is not None:
        out["channel"] = [[float(v) for v in row] for row in spec.channel.probs]
    if spec.codebook is not None:
        out["codebook"] = [float(v) for v in spec.codebook.probs]
    if spec.distortion is not None:
        out["distortion"] = [[float(v) for v in row] for row in spec.distortion.values]
    if spec.p is not None:
        out["p"] = spec.p
    if spec.d_scale_values is not None:
        out["d_scale_values"] = list(spec.d_scale_values)
    return out
