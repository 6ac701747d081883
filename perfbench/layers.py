"""Per-layer tracing of one CLI command, and the per-layer metrics.

``Tracer.install`` replaces the public functions that the CLI reaches in
each buckettrees module with wrappers defined here, in every module that
imported them, so calls made inside the package (sampler_gof calling
sample_tree, the exact DP calling encode_tree) are traced too.  Each
wrapper records a span (calls, time including nested calls, self time) and
the work counts of that layer.  Nothing in the package changes; spans are
aggregated in memory and written out when the command ends.

``probe`` measures the layer micro rows (RNG draw rates and the encoding of
one seeded 1,000-label tree), which do not depend on the workload.
``layer_metrics`` turns the reports of one traced pass into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import random
import statistics
import sys
from collections import defaultdict
from time import perf_counter

_MASK = (1 << 64) - 1
# SplitMix64 advances its counter by the golden-ratio constant per word, so
# (counter delta) * GOLDEN^-1 mod 2^64 is the number of words drawn.
_GOLDEN_INV = pow(0x9E3779B97F4A7C15, -1, 1 << 64)

TRACED = {
    "trees": ("encode_tree", "decode_tree", "tree_weight"),
    "weights": ("weights_of",),
    "enumeration": ("enumerate_shapes", "total_weight", "closed_form_total_weight",
                    "check_ode_recurrence"),
    "evolve": ("sample_tree", "exact_distribution", "pushforward_strip"),
    "verify": ("check_balance", "check_affine_ratio", "check_scaling", "classify_family"),
    "urn": ("urn_run", "urn_distribution_exact", "insertion_load_law",
            "descendants_direct", "descendants_via_urn", "descendants_law_from_urn"),
    "stats": ("sampler_gof", "chi_square_gof", "check_beta_convergence",
              "second_order_diagnostic"),
}

# Position of the SplitMix64 argument of the functions that draw from one.
_RNG_ARG = {"evolve.sample_tree": 2, "urn.urn_run": 2,
            "urn.descendants_direct": 3, "urn.descendants_via_urn": 3}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counts of the calls into each layer during one command."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}   # name -> [calls, inclusive s, self s]
        self.counts: dict[str, float] = defaultdict(float)
        self.covered_s = 0.0               # time inside outermost spans
        self._stack: list[list] = []       # open spans: [name, child s]
        self._depth: dict[str, int] = defaultdict(int)
        self._rng_depth = 0
        self._shapes_seen: set = set()
        self._laws: set = set()
        self._exact_distribution = None

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "buckettrees" or name.startswith("buckettrees.")]
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"buckettrees.{module_name}")
            for name in names:
                original = getattr(module, name)
                if name == "exact_distribution":
                    self._exact_distribution = original
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapper)

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)
        rng_index = _RNG_ARG.get(name)

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            self._depth[name] += 1
            rng, words_before = None, None
            if rng_index is not None:
                if self._rng_depth == 0:
                    rng = _arg(args, kwargs, rng_index, "rng")
                    words_before = getattr(rng, "_counter", None)
                self._rng_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._close(frame, elapsed)
                if rng_index is not None:
                    self._rng_depth -= 1
            if words_before is not None:
                delta = (rng._counter - words_before) & _MASK
                self.counts["rng.words"] += delta * _GOLDEN_INV & _MASK
            if observe is not None:
                observe(args, kwargs, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: list, elapsed: float) -> None:
        name, child_s = frame
        self._stack.pop()
        self._depth[name] -= 1
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        span[0] += 1
        span[2] += elapsed - child_s
        if self._depth[name] == 0:   # recursion counts once
            span[1] += elapsed
        if self._stack:
            parent = self._stack[-1]
            parent[1] += elapsed
            if parent[0] == "enumeration.total_weight" and name == "enumeration.enumerate_shapes":
                self.counts["enumeration.total_weight_shapes_s"] += elapsed
        else:
            self.covered_s += elapsed

    # ── work counts, one hook per traced function that has any ──

    def _on_trees_encode_tree(self, args, kwargs, result, elapsed):
        self.counts["trees.encoded_bytes"] += len(result)

    def _on_evolve_sample_tree(self, args, kwargs, result, elapsed):
        self.counts["evolve.labels"] += _arg(args, kwargs, 1, "n")

    def _on_evolve_exact_distribution(self, args, kwargs, result, elapsed):
        self._laws.add((_arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "n")))

    def _on_enumeration_enumerate_shapes(self, args, kwargs, result, elapsed):
        key = (_arg(args, kwargs, 0, "b"), _arg(args, kwargs, 1, "n"))
        if key not in self._shapes_seen:   # cold call; later ones hit the cache
            self._shapes_seen.add(key)
            self.counts["enumeration.shapes"] += len(result)
            self.counts["enumeration.shapes_s"] += elapsed

    def _on_urn_urn_distribution_exact(self, args, kwargs, result, elapsed):
        self.counts["urn.exact_law_draws"] += _arg(args, kwargs, 1, "draws")

    def _on_urn_urn_run(self, args, kwargs, result, elapsed):
        self.counts["urn.draws"] += _arg(args, kwargs, 1, "draws")

    def _on_stats_chi_square_gof(self, args, kwargs, result, elapsed):
        self.counts["stats.gof_bins"] += result.bins

    def _on_stats_check_beta_convergence(self, args, kwargs, result, elapsed):
        self.counts["stats.beta_samples"] += result.samples
        rate = getattr(result, "acceptance_rate", None)
        if rate:   # the report field goes away with the rejection loop
            self.counts["stats.load_attempts"] += round(result.samples / rate)

    def _on_stats_second_order_diagnostic(self, args, kwargs, result, elapsed):
        if not result.degenerate:
            j = _arg(args, kwargs, 1, "j")
            self.counts["stats.batch_draws"] += result.trajectories * (result.horizon - j)

    def report(self) -> dict:
        """The aggregated spans and counts; runs after the command's timing."""
        states = {}
        for spec, n in self._laws:
            for size in range(1, n + 1):
                # Every smaller law is a step of the same DP (cached by now).
                states[(spec, size)] = len(self._exact_distribution(spec, size, n).probs)
        self.counts["evolve.dp_states"] = sum(states.values())
        return {"spans": self.spans, "counts": dict(self.counts),
                "covered_s": self.covered_s}


def seeded_tree(seed: int, n: int = 1000, b: int = 2):
    """A labelled bucket-recursive tree grown with Python's own RNG.

    Built here on arrays, not by the package's sampler, so the micro rows of
    the trees layer do not move when growth does.
    """
    from buckettrees.trees import BucketNode, BucketTree

    draw = random.Random(seed)
    buckets, children, owner = [[1]], [[]], [0]
    for label in range(2, n + 1):
        node = owner[draw.randrange(label - 1)]   # weight = bucket load
        if len(buckets[node]) < b:
            buckets[node].append(label)
        else:
            kids = children[node]
            kids.insert(draw.randrange(len(kids) + 1), len(buckets))
            node = len(buckets)
            buckets.append([label])
            children.append([])
        owner.append(node)
    nodes: list = [None] * len(buckets)
    for i in reversed(range(len(buckets))):   # children are created after parents
        nodes[i] = BucketNode(len(buckets[i]), tuple(buckets[i]),
                              tuple(nodes[k] for k in children[i]))
    return BucketTree(nodes[0], b)


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def probe(seed: int) -> dict:
    """Workload-independent micro rows of the rng and trees layers."""
    from buckettrees.rng import SplitMix64
    from buckettrees.trees import decode_tree, encode_tree

    rng = SplitMix64(seed)
    calls = 20000
    out = {}
    for name, bound in (("rng.randbelow64_per_s", 10**18 + 9),
                        ("rng.randbelow128_per_s", 10**36 + 7)):
        def draws(bound=bound):
            for _ in range(calls):
                rng.randbelow(bound)
        out[name] = calls / _median_time(draws, 5)
    tree = seeded_tree(seed)
    data = encode_tree(tree)
    out["trees.encode_1000_s"] = _median_time(lambda: encode_tree(tree), 21)
    out["trees.decode_1000_s"] = _median_time(lambda: decode_tree(data, 2), 21)
    return out


def at_nominal_speed(report: dict, run_scale: float, setup_scale: float) -> dict:
    """A command's report with its times scaled to the nominal CPU speed."""
    return {
        "spans": {name: [calls, inclusive * run_scale, own * run_scale]
                  for name, (calls, inclusive, own) in report["spans"].items()},
        "counts": {name: value * run_scale if name.endswith("_s") else value
                   for name, value in report["counts"].items()},
        "covered_s": report["covered_s"] * run_scale,
        "main_s": report["main_s"] * run_scale,
        "import_s": report["import_s"] * setup_scale,
        "stdout_bytes": report["stdout_bytes"],
    }


def probe_at_nominal_speed(rows: dict, scale: float) -> dict:
    return {name: value / scale if name.endswith("_per_s") else value * scale
            for name, value in rows.items()}


def layer_metrics(reports: list[dict], probe_rows: dict, traced_run_s: float,
                  untraced_run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``reports`` holds each command's child report: its tracer report plus
    ``import_s``, ``main_s`` and ``stdout_bytes``.  A ``*_s`` row is the time
    inside calls of that public function, nested calls included, so rows
    nest (stats.sampler_gof_s contains evolve.sample_tree_s).  A row of a
    layer the workload does not call is 0.
    """
    spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: dict[str, float] = defaultdict(float)
    for report in reports:
        for name, (calls, inclusive, own) in report["spans"].items():
            span = spans[name]
            span[0] += calls
            span[1] += inclusive
            span[2] += own
        for name, value in report["counts"].items():
            counts[name] += value

    def time_in(name: str) -> float:
        return spans[name][1] if name in spans else 0.0

    def calls(name: str) -> int:
        return spans[name][0] if name in spans else 0

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    main_s = sum(r["main_s"] for r in reports)
    m = {
        "rng.words": counts["rng.words"],
        "rng.randbelow64_per_s": probe_rows["rng.randbelow64_per_s"],
        "rng.randbelow128_per_s": probe_rows["rng.randbelow128_per_s"],
        "evolve.sample_tree_s": time_in("evolve.sample_tree"),
        "evolve.trees": calls("evolve.sample_tree"),
        "evolve.labels": counts["evolve.labels"],
        "evolve.exact_distribution_s": time_in("evolve.exact_distribution"),
        "evolve.dp_states": counts["evolve.dp_states"],
        "evolve.pushforward_strip_s": time_in("evolve.pushforward_strip"),
        "trees.encode_s": time_in("trees.encode_tree"),
        "trees.encode_calls": calls("trees.encode_tree"),
        "trees.encoded_bytes": counts["trees.encoded_bytes"],
        "trees.decode_s": time_in("trees.decode_tree"),
        "trees.decode_calls": calls("trees.decode_tree"),
        "trees.tree_weight_s": time_in("trees.tree_weight"),
        "trees.encode_1000_s": probe_rows["trees.encode_1000_s"],
        "trees.decode_1000_s": probe_rows["trees.decode_1000_s"],
        "enumeration.shapes_s": counts["enumeration.shapes_s"],
        "enumeration.shapes": counts["enumeration.shapes"],
        # The weighting alone: total_weight minus its cold shape enumeration.
        "enumeration.total_weight_s": (time_in("enumeration.total_weight")
                                       - counts["enumeration.total_weight_shapes_s"]),
        "verify.check_balance_s": time_in("verify.check_balance"),
        "verify.check_affine_ratio_s": time_in("verify.check_affine_ratio"),
        "verify.check_scaling_s": time_in("verify.check_scaling"),
        "urn.exact_law_s": time_in("urn.urn_distribution_exact"),
        "urn.exact_law_draws": counts["urn.exact_law_draws"],
        "urn.urn_run_s": time_in("urn.urn_run"),
        "urn.draws": counts["urn.draws"],
        "urn.insertion_load_law_s": time_in("urn.insertion_load_law"),
        "stats.beta_check_s": time_in("stats.check_beta_convergence"),
        "stats.acceptance_rate": rate(counts["stats.beta_samples"],
                                      counts["stats.load_attempts"]),
        "stats.load_attempts": counts["stats.load_attempts"],
        "stats.second_order_s": time_in("stats.second_order_diagnostic"),
        "stats.batch_draws": counts["stats.batch_draws"],
        "stats.sampler_gof_s": time_in("stats.sampler_gof"),
        "stats.chi_square_gof_s": time_in("stats.chi_square_gof"),
        "stats.gof_bins": counts["stats.gof_bins"],
        "cli.import_s": statistics.median(r["import_s"] for r in reports),
        "cli.main_s": main_s,
        "cli.stdout_bytes": sum(r["stdout_bytes"] for r in reports),
        "trace.other_s": main_s - sum(r["covered_s"] for r in reports),
        "trace.overhead_frac": traced_run_s / untraced_run_s - 1,
    }
    m["evolve.labels_per_s"] = rate(m["evolve.labels"], m["evolve.sample_tree_s"])
    m["evolve.dp_states_per_s"] = rate(m["evolve.dp_states"], m["evolve.exact_distribution_s"])
    m["enumeration.shapes_per_s"] = rate(m["enumeration.shapes"], m["enumeration.shapes_s"])
    m["urn.draws_per_s"] = rate(m["urn.draws"], m["urn.urn_run_s"])
    m["stats.batch_draws_per_s"] = rate(m["stats.batch_draws"], m["stats.second_order_s"])
    return m
