"""Span tracing around the public functions of ``cantorqc``, from outside the package.

``Tracer.install()`` replaces each traced function, wherever a ``cantorqc``
module holds a reference to it, with a wrapper that records a span
``[name, start, end, parent, counts]``; ``uninstall()`` puts the originals
back.  Spans stay in memory; :func:`layer_metrics` turns one traced round's
spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

MODULES = ("cantorqc", "cantorqc.geometry", "cantorqc.qcmap", "cantorqc.verify",
           "cantorqc.nonremovable", "cantorqc.cli")


def _count_points(args, kwargs, result):
    return {"pts": int(np.size(args[1] if len(args) > 1 else kwargs["pts"]))}


def _count_map(args, kwargs, result):
    _, depth, err = result
    return {"pts": int(depth.size), "levels": int(depth.sum()), "unresolved": int((err > 0).sum())}


def _count_jacobian(args, kwargs, result):
    return {"pts": int(result.size), "undefined": int(np.isnan(result).sum())}


def _count_holder(args, kwargs, result):
    return {"pairs": int(result.pair_count), "excluded": int(result.excluded_pairs)}


def _count_cauchy(args, kwargs, result):
    measure = args[0] if args else kwargs["measure"]
    _, flagged = result
    return {"pts": int(flagged.size), "atoms": int(measure.count), "flagged": int(flagged.sum())}


#: (module, class or None, attribute, span name, count hook)
TARGETS = (
    ("cantorqc.geometry", "DiskPacking", "nearest_center", "geometry.nearest_center", _count_points),
    ("cantorqc.geometry", None, "build_packing", "geometry.layout", None),
    ("cantorqc.geometry", None, "derive_params", "geometry.layout", None),
    ("cantorqc.geometry", None, "generation_centers", "geometry.generation_centers", None),
    ("cantorqc.qcmap", None, "phi_batch", "qcmap.phi_batch", _count_map),
    ("cantorqc.qcmap", None, "phi_inverse_batch", "qcmap.phi_inverse_batch", _count_map),
    ("cantorqc.qcmap", None, "jacobian_batch", "qcmap.jacobian_batch", _count_jacobian),
    ("cantorqc.qcmap", None, "phi", "qcmap.scalar", None),
    ("cantorqc.qcmap", None, "phi_inverse", "qcmap.scalar", None),
    ("cantorqc.qcmap", None, "jacobian", "qcmap.scalar", None),
    ("cantorqc.qcmap", None, "lp_mass_monte_carlo", "qcmap.lp_mass_monte_carlo", None),
    ("cantorqc.verify", None, "box_dimension", "verify.box_dimension", None),
    ("cantorqc.verify", None, "holder_estimate", "verify.holder_estimate", _count_holder),
    ("cantorqc.verify", None, "packing_condition_check", "verify.packing_condition_check", None),
    ("cantorqc.verify", None, "integral_growth_check", "verify.integral_growth_check", None),
    ("cantorqc.nonremovable", None, "cauchy_transform_batch", "nonremovable.cauchy_transform_batch",
     _count_cauchy),
    ("cantorqc.nonremovable", "DiscreteMeasure", "nearest_atom_distance",
     "nonremovable.nearest_atom_distance", None),
    ("cantorqc.nonremovable", None, "frostman_measure", "nonremovable.frostman_measure", None),
    ("cantorqc.nonremovable", None, "dbar_max", "nonremovable.dbar_max", None),
    ("cantorqc.nonremovable", None, "residue_error", "nonremovable.residue_error", None),
    ("cantorqc.cli", None, "main", "cli.main", None),
)


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                spans[idx][4] = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for mod_name, cls_name, attr, name, hook in TARGETS:
            owner = importlib.import_module(mod_name)
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()


def setup_layout_s(build, trace: bool):
    """Run the workload's set-up builds; also return their ``geometry.layout`` time when tracing."""
    if not trace:
        return build(), 0.0
    tracer = Tracer()
    tracer.install()
    try:
        result = build()
    finally:
        tracer.uninstall()
    return result, layer_metrics(tracer.spans)["geometry.layout.s"]


# ---------------------------------------------------------------------------
# per-layer metrics from one traced round


def _durations(spans):
    """Per-span duration and self time (duration minus direct children)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return dur, [d - c for d, c in zip(dur, child)]


def _inside(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of every module except ``cli`` (0 where a layer did no work).

    A span nested inside a span of the same name (a scalar map called by
    another scalar map) adds no time of its own.
    """
    dur, self_t = _durations(spans)
    time_of: dict[str, float] = {}
    self_of: dict[str, float] = {}
    counts: dict[tuple[str, str], int] = {}
    lp_pts = lp_undefined = 0
    for i, s in enumerate(spans):
        name = s[0]
        if not _inside(spans, i, name):
            time_of[name] = time_of.get(name, 0.0) + dur[i]
        self_of[name] = self_of.get(name, 0.0) + self_t[i]
        for key, value in (s[4] or {}).items():
            counts[name, key] = counts.get((name, key), 0) + value
        if name == "qcmap.jacobian_batch" and _inside(spans, i, "qcmap.lp_mass_monte_carlo"):
            lp_pts += s[4]["pts"]
            lp_undefined += s[4]["undefined"]

    t = lambda name: time_of.get(name, 0.0)  # noqa: E731
    c = lambda name, key: counts.get((name, key), 0)  # noqa: E731
    nc_pts, nc_s = c("geometry.nearest_center", "pts"), t("geometry.nearest_center")
    map_pts = c("qcmap.phi_batch", "pts") + c("qcmap.phi_inverse_batch", "pts")
    levels = c("qcmap.phi_batch", "levels") + c("qcmap.phi_inverse_batch", "levels")
    unresolved = c("qcmap.phi_batch", "unresolved") + c("qcmap.phi_inverse_batch", "unresolved")
    cauchy = "nonremovable.cauchy_transform_batch"
    atom_pairs = 0
    for s in spans:
        if s[0] == cauchy and s[4]:
            atom_pairs += s[4]["pts"] * s[4]["atoms"]
    return {
        "geometry.nearest_center.s": nc_s,
        "geometry.nearest_center.calls": float(sum(1 for s in spans if s[0] == "geometry.nearest_center")),
        "geometry.nearest_center.pts": float(nc_pts),
        "geometry.nearest_center.mpts_s": _ratio(nc_pts, nc_s) / 1e6,
        "geometry.layout.s": t("geometry.layout"),
        "geometry.generation_centers.s": t("geometry.generation_centers"),
        "qcmap.phi_batch.s": t("qcmap.phi_batch"),
        "qcmap.phi_inverse_batch.s": t("qcmap.phi_inverse_batch"),
        "qcmap.jacobian_batch.s": t("qcmap.jacobian_batch"),
        "qcmap.kernel_self.s": sum(
            self_of.get(n, 0.0)
            for n in ("qcmap.phi_batch", "qcmap.phi_inverse_batch", "qcmap.jacobian_batch")
        ),
        "qcmap.levels": float(levels),
        "qcmap.levels_per_pt": _ratio(levels, map_pts),
        "qcmap.unresolved_frac": _ratio(unresolved, map_pts),
        "qcmap.scalar.s": t("qcmap.scalar"),
        "qcmap.lp_mass_monte_carlo.s": t("qcmap.lp_mass_monte_carlo"),
        "qcmap.lp_mass.jacobian_pts": float(lp_pts),
        "qcmap.lp_mass.undefined_frac": _ratio(lp_undefined, lp_pts),
        "verify.box_dimension.s": t("verify.box_dimension"),
        "verify.holder_estimate.self_s": self_of.get("verify.holder_estimate", 0.0),
        "verify.holder.pairs": float(c("verify.holder_estimate", "pairs")),
        "verify.holder.excluded_pairs": float(c("verify.holder_estimate", "excluded")),
        "verify.packing_condition_check.s": t("verify.packing_condition_check"),
        "verify.integral_growth_check.s": t("verify.integral_growth_check"),
        "nonremovable.cauchy_transform_batch.s": t(cauchy),
        "nonremovable.cauchy_transform_batch.pts": float(c(cauchy, "pts")),
        "nonremovable.cauchy_transform_batch.atom_pairs": float(atom_pairs),
        "nonremovable.cauchy_transform_batch.gpairs_s": _ratio(atom_pairs, t(cauchy)) / 1e9,
        "nonremovable.nearest_atom_distance.s": t("nonremovable.nearest_atom_distance"),
        "nonremovable.frostman_measure.s": t("nonremovable.frostman_measure"),
        "nonremovable.dbar_max.s": t("nonremovable.dbar_max"),
        "nonremovable.residue_error.s": t("nonremovable.residue_error"),
        "nonremovable.flagged_frac": _ratio(c(cauchy, "flagged"), c(cauchy, "pts")),
    }


def batch_time_inside(spans, idx) -> float:
    """Time spent in qcmap batch kernels below span ``idx`` (outermost ones only)."""
    kernels = ("qcmap.phi_batch", "qcmap.phi_inverse_batch", "qcmap.jacobian_batch")
    total = 0.0
    for i, s in enumerate(spans):
        if s[0] not in kernels or any(_inside(spans, i, k) for k in kernels):
            continue
        parent = s[3]
        while parent >= 0 and parent != idx:
            parent = spans[parent][3]
        if parent == idx:
            total += s[2] - s[1]
    return total
