"""JSON and CSV serialization for shapes, states, hypergraphs, and reports.

Formats are deliberately plain.  A shape is ``{"sizes": [...], "kinds": [...]}``.
A state carries its shape plus either a ``"probabilities"`` list (all-classical
shapes serialize the diagonal) or a ``"matrix"`` given row-major as
``[[re, im], ...]`` pairs.  A hypergraph is ``{"N": n, "generators": [[...]]}``
or ``{"N": n, "sets": [[...]]}`` with 1-based unit labels, exactly one of the
two keys present.
"""

import csv
import json
import math

import numpy as np

from .algebra import ShapeError, State, SystemShape
from .hierarchy import Hypergraph, validate_hypergraph


def shape_to_dict(shape: SystemShape) -> dict:
    return {"sizes": list(shape.sizes), "kinds": list(shape.kinds)}


def shape_from_dict(data: dict) -> SystemShape:
    if not isinstance(data, dict) or "sizes" not in data:
        raise ShapeError("shape record needs a 'sizes' key")
    sizes = data["sizes"]
    kinds = data.get("kinds")
    if kinds is None:
        # bare sizes default to classical units
        kinds = ["classical"] * len(sizes)
    return SystemShape(tuple(sizes), tuple(kinds))


def matrix_to_pairs(mat: np.ndarray) -> list:
    """Complex matrix as a row-major nested list of [re, im] pairs."""
    mat = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def pairs_to_matrix(rows) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"expected a square matrix of [re, im] pairs, got array shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def state_to_dict(state: State) -> dict:
    out = {"shape": shape_to_dict(state.shape)}
    if state.shape.all_classical:
        out["probabilities"] = [float(p) for p in state.probabilities()]
    else:
        out["matrix"] = matrix_to_pairs(state.matrix)
    return out


def state_from_dict(data: dict) -> State:
    if not isinstance(data, dict) or "shape" not in data:
        raise ShapeError("state record needs a 'shape' key")
    shape = shape_from_dict(data["shape"])
    has_p = "probabilities" in data
    has_m = "matrix" in data
    if has_p == has_m:
        raise ShapeError("state record needs exactly one of 'probabilities' or 'matrix'")
    if has_p:
        if not shape.all_classical:
            raise ShapeError("'probabilities' is only valid for all-classical shapes")
        return State.from_probabilities(shape, np.asarray(data["probabilities"], dtype=float))
    return State(shape, pairs_to_matrix(data["matrix"]))


def hypergraph_to_dict(hg: Hypergraph) -> dict:
    return {"N": hg.N, "generators": [list(v) for v in hg.maximal_sets]}


def hypergraph_from_dict(data: dict) -> Hypergraph:
    if not isinstance(data, dict) or "N" not in data:
        raise ShapeError("hypergraph record needs an 'N' key")
    has_gen = "generators" in data
    has_sets = "sets" in data
    if has_gen == has_sets:
        raise ShapeError("hypergraph record needs exactly one of 'generators' or 'sets'")
    key = "generators" if has_gen else "sets"
    return validate_hypergraph(int(data["N"]), data[key], generators=has_gen)


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ShapeError(f"cannot read {what} file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ShapeError(f"{what} file {path!r} is not valid JSON: {exc}") from exc


def load_state(path: str) -> State:
    return state_from_dict(_load_json(path, "state"))


def load_hypergraph(path: str) -> Hypergraph:
    return hypergraph_from_dict(_load_json(path, "hypergraph"))


def write_csv(path: str, rows: list) -> None:
    """Write dict rows to CSV, columns from the first row.  None and NaN
    become empty cells."""
    fieldnames = list(rows[0].keys()) if rows else []

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float) and math.isnan(v):
            return ""
        return v

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: cell(row.get(k)) for k in fieldnames})


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (frozenset, set)):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, default=_json_default)
