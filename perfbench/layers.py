"""Which flagsheaf functions the traced run wraps, and the per-layer
metrics derived from what the wrappers record.

Every per-layer metric of BENCHMARK.json is reported by every traced
run, as zero where the workload never reaches the function.
"""

from __future__ import annotations

import inspect

from tracer import Tracer


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _sizes(prefix: str, size_name: str, size_attr: str):
    """Add the result's basis (or generator) and entry counts."""

    def after(tr: Tracer, args, kwargs, result, token):
        tr.add(f"{prefix}.{size_name}", len(getattr(result, size_attr)))
        tr.add(f"{prefix}.entries", len(result.entries))

    return after


def _rank_after(tr: Tracer, args, kwargs, result, token):
    nrows = _arg(args, kwargs, 1, "nrows")
    ncols = _arg(args, kwargs, 2, "ncols")
    tr.add("linalg.rank_triplets.cells", nrows * ncols)
    tr.maximum("linalg.rank_triplets.max_dim", max(nrows, ncols))


def _components_after(tr: Tracer, args, kwargs, result, token):
    tr.add("linalg.connected_components.components", len(result))


def _module_terms_after(module_terms):
    """Count distinct (params, I, windows) keys per request: the calls a
    per-request cache of module_terms would still have to make."""
    signature = inspect.signature(module_terms)
    seen = set()

    def after(tr: Tracer, args, kwargs, result, token):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (
            tr.request,
            bound.arguments["params"],
            result.indices,
            tuple(bound.arguments["degree_window"]),
            tuple(bound.arguments["action_window"]),
        )
        tr.add("pipeline.module_terms.elements", len(result.elements))
        if key not in seen:
            seen.add(key)
            tr.add("pipeline.module_terms.distinct")

    return after


def _betti_before(tr: Tracer):
    return lambda args, kwargs: tr.stats["flag_schubert.betti.calls"]


def _betti_cached_after(tr: Tracer, args, kwargs, result, token):
    if tr.stats["flag_schubert.betti.calls"] == token:
        tr.add("pipeline.betti_cached.hits")


def _jacobi_after(tr: Tracer, args, kwargs, result, token):
    tr.add("lie_numerics.jacobi_eigh.dim_sum", len(result[0]))


def _run_trials_after(tr: Tracer, args, kwargs, result, token):
    for s in result:
        tr.add("lie_numerics.run_trials.rejected", s.rejected)
        tr.add("lie_numerics.run_trials.samples", s.trials + s.rejected)
        tr.add("lie_numerics.run_trials.accepted", s.trials)


def install(tr: Tracer) -> None:
    """Wrap every traced function; call with flagsheaf already imported."""
    from flagsheaf import pipeline

    spans = [
        ("sheaf_complex", "FiniteComplex.cohomology", None, None),
        ("sheaf_complex", "stalk_complex",
         _sizes("sheaf_complex.stalk_complex", "basis", "degrees"), None),
        ("sheaf_complex", "jump_complex",
         _sizes("sheaf_complex.jump_complex", "basis", "degrees"), None),
        ("linalg", "rank_triplets", _rank_after, None),
        ("linalg", "connected_components", _components_after, None),
        ("pipeline", "build_cone_model",
         _sizes("pipeline.build_cone_model", "generators", "generators"), None),
        ("pipeline", "module_terms",
         _module_terms_after(pipeline.module_terms), None),
        ("pipeline", "h_graded", None, None),
        ("pipeline", "structure_map_nonzero", None, None),
        ("pipeline", "certificate", None, None),
        ("pipeline", "pair_hom", None, None),
        ("pipeline", "jump_spectrum", None, None),
        ("pipeline", "stalk_flag_sum", None, None),
        ("pipeline", "betti_cached", _betti_cached_after, _betti_before(tr)),
        ("flag_schubert", "betti", None, None),
        ("flag_schubert", "g_space", None, None),
        ("graded", "GradedDims.tensor", None, None),
        ("cli", "main", None, None),
        ("lie_numerics", "jacobi_eigh", _jacobi_after, None),
        ("lie_numerics", "hermitian_eigs", None, None),
        ("lie_numerics", "eig_unitary", None, None),
        ("lie_numerics", "check_triangle", None, None),
        ("lie_numerics", "check_pairing_bound", None, None),
        ("lie_numerics", "check_klyachko", None, None),
        ("lie_numerics", "check_interval_product", None, None),
        ("lie_numerics", "random_skew_hermitian", None, None),
        ("lie_numerics", "sample_unitary_in_window", None, None),
        ("lie_numerics", "rescaled_to_bound", None, None),
        ("lie_numerics", "run_trials", _run_trials_after, None),
    ]
    for module, qualname, after, before in spans:
        tr.wrap_span(module, qualname, after=after, before=before)
    # cheap and hot: a span per call would cost more than the call
    counters = [
        ("sheaf_complex", "region_contains"),
        ("root_system", "cartan"),
        ("root_system", "e_profile"),
        ("root_system", "pair_e"),
        ("root_system", "pair_f"),
        ("root_system", "center_class"),
        ("root_system", "d_degree"),
    ]
    for module, qualname in counters:
        tr.wrap_count(module, qualname)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per-layer metrics that are not read straight from the tracer's stats;
# the metric names and units are those of BENCHMARK.json's per_layer
DERIVED = {
    "pipeline.module_terms.useful_ratio": lambda s: _ratio(
        s["pipeline.module_terms.distinct"], s["pipeline.module_terms.calls"]
    ),
    "pipeline.betti_cached.hit_ratio": lambda s: _ratio(
        s["pipeline.betti_cached.hits"], s["pipeline.betti_cached.calls"]
    ),
    "lie_numerics.run_trials.useful_ratio": lambda s: _ratio(
        s["lie_numerics.run_trials.accepted"],
        s["lie_numerics.run_trials.samples"],
    ),
}
