"""In-memory span recording around the library's layer boundaries.

The tracer wraps public functions of each spurious_lens module, the
`__post_init__` validation of its value classes, and the LAPACK-backed
entry points of `numpy.linalg`, all from outside the library: every module
namespace that bound one of these names at import gets the wrapper, so
`cli.projection`, `constructions.row_space_projection` and
`minnorm.projection` all record. A span is (name, start, end, parent, pass);
spans live in flat arrays and are written out once, at the end of a run.

`numpy.linalg.norm` is not wrapped: it is a BLAS-1 reduction, not a
factorization, and the scenario loops call it several times per trial.
"""

from __future__ import annotations

import functools
import math
import time
from array import array

import numpy as np

LAYER_FUNCTIONS = {
    "serialize": ("parse_instance", "dumps_canonical"),
    "minnorm": ("projection", "row_space_projection", "min_norm_solve"),
    "estimators": ("fit_core", "fit_full", "fit_multi", "fit_rst"),
    "analysis": ("removal_verdict", "robust_error"),
    "constructions": ("construct_disjoint", "construct_balanced"),
    "ovb": ("estimate_group_losses",),
    "scenarios": (
        "example1_simulate",
        "example2_simulate",
        "ovb_simple_scenario",
        "reference_tables",
    ),
    "cli": ("main",),
}

# Value classes whose __post_init__ validates (SVDs, eigenvalue checks).
LAYER_CLASSES = {
    "minnorm": ("DesignMatrix", "Projection"),
    "estimators": ("LabeledData",),
    "analysis": ("TestDistribution",),
}

LINALG_GROUPS = {
    "svd": ("svd",),
    "eig": ("eig", "eigh", "eigvals", "eigvalsh"),
    "solve": ("solve",),
    "lstsq": ("lstsq",),
    "qr": ("qr",),
    "pinv": ("pinv",),
    "other": ("inv", "det", "slogdet", "cholesky", "matrix_rank"),
}


def _shape(a) -> tuple[int, ...]:
    return tuple(np.shape(a))


def _batch_mn(shape) -> tuple[int, int, int]:
    if len(shape) < 2:
        return 1, max(shape[0] if shape else 1, 1), 1
    return math.prod(shape[:-2]), shape[-2], shape[-1]


def _svd_flops(m: int, n: int, vectors: bool, full: bool) -> float:
    # Golub & Van Loan, Matrix Computations, table in section 8.6.
    long, short = max(m, n), min(m, n)
    if not vectors:
        return 4.0 * long * short**2 - 4.0 * short**3 / 3.0
    if full:
        return 4.0 * long**2 * short + 8.0 * long * short**2 + 9.0 * short**3
    return 6.0 * long * short**2 + 20.0 * short**3


def linalg_flops(func: str, args, kwargs) -> float:
    """Floating-point operations of one numpy.linalg call, computed from the
    argument shapes with textbook operation counts (not measured)."""
    if not args:
        return 0.0
    batch, m, n = _batch_mn(_shape(args[0]))
    if func == "svd":
        vectors = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        return batch * _svd_flops(m, n, bool(vectors), bool(full))
    if func in ("eigvalsh", "eigvals"):
        return batch * (4.0 / 3.0 if func == "eigvalsh" else 10.0) * n**3
    if func in ("eigh", "eig"):
        return batch * (9.0 if func == "eigh" else 25.0) * n**3
    if func == "solve":
        rhs = _shape(args[1]) if len(args) > 1 else ()
        k = rhs[-1] if len(rhs) == len(_shape(args[0])) else 1
        return batch * (2.0 * n**3 / 3.0 + 2.0 * n * n * k)
    if func == "lstsq":
        rhs = _shape(args[1]) if len(args) > 1 else ()
        k = rhs[-1] if len(rhs) == 2 else 1
        return _svd_flops(m, n, False, False) + 2.0 * m * n * k
    if func == "qr":
        long, short = max(m, n), min(m, n)
        r_only = 2.0 * long * short**2 - 2.0 * short**3 / 3.0
        return batch * (r_only if kwargs.get("mode") == "r" else 2.0 * r_only)
    if func == "pinv":
        return batch * (_svd_flops(m, n, True, False) + 2.0 * m * n * min(m, n))
    if func == "inv":
        return batch * 2.0 * n**3
    if func in ("det", "slogdet"):
        return batch * 2.0 * n**3 / 3.0
    if func == "cholesky":
        return batch * n**3 / 3.0
    if func == "matrix_rank":
        return batch * _svd_flops(m, n, False, False)
    return 0.0


class Tracer:
    """Records spans while `active`; otherwise wrappers call straight through."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        # Computed work per span: flops for linalg, characters for serialize.
        self.value = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = False
        self.pass_no = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, measure=None):
        """Return fn wrapped in a span called `name`; `measure(args, kwargs,
        result)` gives the span's computed work."""
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.pass_id.append(self.pass_no)
            self.value.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if measure is not None:
                self.value[idx] = measure(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the layer functions of `package` (spurious_lens) and numpy.linalg."""
        import importlib

        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYER_FUNCTIONS}
        namespaces = [package, *modules.values()]
        measures = {
            "parse_instance": lambda args, kwargs, result: float(len(args[0])),
            "dumps_canonical": lambda args, kwargs, result: float(len(result)),
        }
        for mod_name, funcs in LAYER_FUNCTIONS.items():
            for func in funcs:
                original = getattr(modules[mod_name], func)
                wrapper = self.wrap(f"{mod_name}.{func}", original, measures.get(func))
                for ns in namespaces:
                    for attr, obj in list(vars(ns).items()):
                        if obj is original:
                            self._patch(ns, attr, wrapper)
        for mod_name, classes in LAYER_CLASSES.items():
            for cls_name in classes:
                cls = getattr(modules[mod_name], cls_name)
                wrapper = self.wrap(f"{mod_name}.{cls_name}", cls.__post_init__)
                self._patch(cls, "__post_init__", wrapper)
        for group, funcs in LINALG_GROUPS.items():
            for func in funcs:
                def measure(args, kwargs, result, func=func):
                    return linalg_flops(func, args, kwargs)

                self._patch(
                    np.linalg, func, self.wrap(f"linalg.{group}", getattr(np.linalg, func), measure)
                )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap one another: the covered time is the sum of their durations.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def per_pass_totals(spans: dict[str, np.ndarray]) -> dict[str, dict[str, np.ndarray]]:
    """For every span name: self ms, inclusive ms, calls and computed work,
    summed within each pass (arrays indexed like sorted unique pass ids)."""
    names = spans["names"]
    passes, pass_idx = np.unique(spans["pass_id"], return_inverse=True)
    n_names, n_passes = len(names), len(passes)
    key = pass_idx * n_names + spans["name_id"]
    size = n_names * n_passes
    own = self_times(spans["start"], spans["end"], spans["parent"])

    def total(weights):
        return np.bincount(key, weights=weights, minlength=size).reshape(n_passes, n_names)

    self_ms = total(own * 1e3)
    incl_ms = total((spans["end"] - spans["start"]) * 1e3)
    calls = total(None)
    value = total(spans["value"])
    return {
        str(name): {
            "self_ms": self_ms[:, i],
            "incl_ms": incl_ms[:, i],
            "calls": calls[:, i],
            "value": value[:, i],
        }
        for i, name in enumerate(names)
    }


def children_per_pass(
    spans: dict[str, np.ndarray], child: set[str], parents: set[str]
) -> np.ndarray:
    """Per pass, the number of `child` spans whose direct parent is one of `parents`."""
    names = spans["names"]
    passes, pass_idx = np.unique(spans["pass_id"], return_inverse=True)
    child_ids = [i for i, n in enumerate(names) if n in child]
    parent_ids = [i for i, n in enumerate(names) if n in parents]
    parent = spans["parent"]
    has_parent = parent >= 0
    parent_name = np.full(parent.shape, -1)
    parent_name[has_parent] = spans["name_id"][parent[has_parent]]
    hit = np.isin(spans["name_id"], child_ids) & np.isin(parent_name, parent_ids)
    return np.bincount(pass_idx[hit], minlength=len(passes)).astype(float)
