"""Per-layer metrics, read from the summary of one traced pass.

``.s`` is self time in seconds (a span's duration minus its traced
children), ``.calls`` a call count, ``<module>.errors`` the exceptions that
crossed into that module from outside it.  README.md says which end-to-end
metric each one should move, and on which workload.
"""

from __future__ import annotations

from tracing import LAYERS, VERIFY_CHECKS

ARITH = (
    "cyclotomic.add", "cyclotomic.sub", "cyclotomic.mul", "cyclotomic.conjugate", "cyclotomic.eq",
)
RENDER = ("characters.to_csv", "characters.to_json")
TIMED = (
    "core.coact_left", "linalg.echelon", "linalg.solve", "clusters.invariants_of",
    "clusters.cluster_elements", "clusters.coadjoint_template",
    "characters.inner_product", "characters.char_value_sum",
    "tensor.tensor_rewrite", "tensor.tensor_by_counting", "discrete.delta_value",
    "oracle.orbit_partition", "oracle.bfs_double_orbit", "oracle.bfs_left_orbit",
    "oracle.brute_table", "oracle.brute_tensor", "oracle.brute_delta_value",
)
SELF_ONLY = (
    "gf.field_make", "clusters.enumerate_templates", "characters.build_table",
    "characters.verify_axioms", "util.parallel_map", "tensor.fold_by_counting",
    "discrete.delta_decompose", "oracle.brute_inner", "verify.run_verify", "cli.main",
)
CALLS_ONLY = ("core.evaluate",)
REPEATS = ("clusters.cluster_elements", "clusters.coadjoint_template")


def names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""
    out = [(f"{n}.s", "s") for n in SELF_ONLY]
    for n in TIMED:
        out += [(f"{n}.calls", "count"), (f"{n}.s", "s")]
    out += [(f"{n}.calls", "count") for n in CALLS_ONLY]
    out += [(f"{n}.repeat_ratio", "ratio") for n in REPEATS]
    out += [
        ("cyclotomic.new.calls", "count"),
        ("cyclotomic.arith.calls", "count"),
        ("cyclotomic.arith.s", "s"),
        ("characters.render.s", "s"),
        ("characters.cells", "count"),
        ("characters.cells_per_s", "1/s"),
        ("util.parallel_map.items", "count"),
        ("util.parallel_map.pooled_ratio", "ratio"),
        ("tensor.result_terms", "count"),
    ]
    out += [(f"verify.{key}.s", "s") for key in VERIFY_CHECKS.values()]
    out += [(f"{m}.errors", "count") for m in LAYERS]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def values(summary: dict) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_ratio, from a Tracer summary."""
    stats = summary["names"]
    counters = summary["counters"]

    def get(name, field):
        return stats.get(name, {}).get(field, 0)

    def total(group, field):
        return sum(get(n, field) for n in group)

    out = {f"{n}.s": get(n, "self_s") for n in SELF_ONLY}
    for n in TIMED:
        out[f"{n}.calls"] = get(n, "calls")
        out[f"{n}.s"] = get(n, "self_s")
    for n in CALLS_ONLY:
        out[f"{n}.calls"] = get(n, "calls")
    for n in REPEATS:
        calls = get(n, "calls")
        out[f"{n}.repeat_ratio"] = get(n, "repeats") / calls if calls else 0.0
    build_s = get("characters.build_table", "total_s")
    items = counters["util.parallel_map.items"]
    out.update({
        "cyclotomic.new.calls": get("cyclotomic.new", "calls"),
        "cyclotomic.arith.calls": total(ARITH, "calls"),
        "cyclotomic.arith.s": total(ARITH, "self_s"),
        "characters.render.s": total(RENDER, "self_s"),
        "characters.cells": counters["characters.cells"],
        "characters.cells_per_s": counters["characters.cells"] / build_s if build_s else 0.0,
        "util.parallel_map.items": items,
        "util.parallel_map.pooled_ratio": (
            counters["util.parallel_map.pooled_items"] / items if items else 0.0
        ),
        "tensor.result_terms": counters["tensor.result_terms"],
    })
    for key in VERIFY_CHECKS.values():
        out[f"verify.{key}.s"] = get(f"verify.{key}", "self_s")
    for module in LAYERS:
        out[f"{module}.errors"] = summary["layers"].get(module, {}).get("errors", 0)
    return out
