"""Per-layer metrics of one traced pass, computed from its spans.

The layers are the package's modules: ``oracle``, ``trs``, ``measures``,
``scaling``, ``driver``, ``sharpness`` and ``cli``; a span's layer is the
part of its name before the first dot.  "Per iteration" divides by the
pass's operations, its solver iterations.
Fractions divide self time by the pass's wall time.
"""

from __future__ import annotations

from pathlib import Path

from probes import LANCZOS_SPANS, Recorder, SpanStats, span_stats

LAYERS = ("oracle", "trs", "measures", "scaling", "driver", "sharpness", "cli")

LAYER_UNITS = {
    "driver.q_share": "ratio",
    "trs.eigh_full.calls_per_iter": "count",
    "trs.eigh_full.us_per_iter": "us",
    "trs.eigh_small.calls_per_iter": "count",
    "trs.eigh.self_frac": "ratio",
    "trs.measure_solve.us_per_iter": "us",
    "trs.step_solve.us_per_iter": "us",
    "trs.step_solve.calls_per_iter": "count",
    "measures.phi2.us_per_iter": "us",
    "measures.phi2_subspace.us_per_iter": "us",
    "oracle.gradient.calls_per_iter": "count",
    "oracle.hessian.calls_per_iter": "count",
    "oracle.hvp.calls_per_iter": "count",
    "oracle.hvp.us_per_iter": "us",
    "oracle.self_us_per_iter": "us",
    "trs.krylov_dim_mean": "count",
    "trs.lanczos.self_us_per_iter": "us",
    "driver.self_us_per_iter": "us",
    "scaling.weights.us_per_iter": "us",
    "sharpness.zeta.ms": "ms",
    "sharpness.generate.self_ms": "ms",
    "sharpness.interpolate.ms": "ms",
    "sharpness.replay.us_per_iter": "us",
    "cli.self_ms": "ms",
    "cli.bytes_written": "bytes",
    **{f"{layer}.self_frac": "ratio" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}


def layer_metrics(wall_s: float, rec: Recorder, out) -> dict[str, float]:
    """Every per-layer metric of one traced pass but ``trace.overhead_frac``.

    Call it right after the pass, while the files it wrote are still there.
    """
    stats = span_stats(rec.spans)
    ops = out.ops
    wall_ns = wall_s * 1e9

    def get(*names: str) -> SpanStats:
        total = SpanStats()
        for name in names:
            s = stats.get(name)
            if s is not None:
                total.calls += s.calls
                total.total_ns += s.total_ns
                total.self_ns += s.self_ns
        return total

    def layer(prefix: str) -> SpanStats:
        return get(*(name for name in stats if name.split(".", 1)[0] == prefix))

    records = [r for trace in rec.traces for r in trace]
    lanczos = get(*LANCZOS_SPANS)
    measure = get("trs.measure_solve", "trs.measure_solve_krylov")
    step = get("trs.step_solve", "trs.step_solve_krylov")
    eigh_full, eigh_small = get("trs.eigh_full"), get("trs.eigh_small")
    oracle, hvp = layer("oracle"), get("oracle.hvp")
    bytes_written = sum(len(text.encode()) for text in out.stdout)
    bytes_written += sum(path.stat().st_size for path in out.files)
    metrics = {
        "driver.q_share": sum(r.branch == "Q" for r in records) / len(records) if records else 0.0,
        "trs.eigh_full.calls_per_iter": eigh_full.calls / ops,
        "trs.eigh_full.us_per_iter": eigh_full.total_ns / 1e3 / ops,
        "trs.eigh_small.calls_per_iter": eigh_small.calls / ops,
        "trs.eigh.self_frac": (eigh_full.self_ns + eigh_small.self_ns) / wall_ns,
        "trs.measure_solve.us_per_iter": measure.total_ns / 1e3 / ops,
        "trs.step_solve.us_per_iter": step.total_ns / 1e3 / ops,
        "trs.step_solve.calls_per_iter": step.calls / ops,
        "measures.phi2.us_per_iter": get("measures.phi2").total_ns / 1e3 / ops,
        "measures.phi2_subspace.us_per_iter": get("measures.phi2_subspace").total_ns / 1e3 / ops,
        "oracle.gradient.calls_per_iter": get("oracle.gradient").calls / ops,
        "oracle.hessian.calls_per_iter": get("oracle.hessian").calls / ops,
        "oracle.hvp.calls_per_iter": hvp.calls / ops,
        "oracle.hvp.us_per_iter": hvp.total_ns / 1e3 / ops,
        "oracle.self_us_per_iter": oracle.self_ns / 1e3 / ops,
        "trs.krylov_dim_mean": sum(rec.krylov_dims) / len(rec.krylov_dims) if rec.krylov_dims else 0.0,
        "trs.lanczos.self_us_per_iter": lanczos.self_ns / 1e3 / ops,
        "driver.self_us_per_iter": get("driver.run").self_ns / 1e3 / ops,
        "scaling.weights.us_per_iter": get("scaling.weights").total_ns / 1e3 / ops,
        "sharpness.zeta.ms": get("sharpness.zeta").total_ns / 1e6,
        "sharpness.generate.self_ms": get("sharpness.generate").self_ns / 1e6,
        "sharpness.interpolate.ms": get("sharpness.interpolate").total_ns / 1e6,
        "sharpness.replay.us_per_iter": get("sharpness.replay").total_ns / 1e3 / ops,
        "cli.self_ms": get("cli.main").self_ns / 1e6,
        "cli.bytes_written": float(bytes_written),
    }
    for name in LAYERS:
        metrics[f"{name}.self_frac"] = layer(name).self_ns / wall_ns
    return metrics


def top_self(rec: Recorder, count: int) -> dict[str, int]:
    """The ``count`` span names with the largest self time, in nanoseconds."""
    stats = span_stats(rec.spans)
    ranked = sorted(stats.items(), key=lambda item: item[1].self_ns, reverse=True)
    return {name: s.self_ns for name, s in ranked[:count]}


def write_spans(path: Path, spans) -> None:
    """Spans as CSV: index, name, start and end in ns, parent index (-1: none)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["index,name,start_ns,end_ns,parent"]
    lines += [f"{i},{name},{start},{end},{parent}" for i, (name, start, end, parent) in enumerate(spans)]
    path.write_text("\n".join(lines) + "\n")
