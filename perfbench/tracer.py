"""Span tracing of heckelab from outside the library.

`Tracer.install()` wraps the public functions and methods of each layer
(coxeter, laurentq, hecke, parabolic, symfunc, chromatic, cli) and
rebinds every import site: each heckelab module namespace that holds the
original function gets the wrapper, and methods are replaced on their
class.  The library source is not touched.  A listed name the library no
longer has is skipped, so the benchmark keeps working when a later change
removes or renames a helper; its metrics then read 0.  The counters use
only public results (never library internals) for the same reason.

A span records name, start, end and parent span; op ids are filled in
from the op boundaries the pass marks, since ops run one after another.
Spans stay in typed arrays in memory and are written once, by `dump()`.
A span's self time is its duration minus the durations of its children
(children of one span never overlap: everything is single-threaded).

Some wrappers also update counters (elements built, trace-table work,
word-scan paths, colorings, cache bytes), inside timed ops only, like the
tallies; `layer_metrics()` turns spans and counters into the per-layer
metrics of BENCHMARK.json.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import sys
import time
from array import array
from collections import Counter

# layer -> module-level functions to wrap (names in the module namespace)
FUNCTIONS = {
    "coxeter": (
        "identity", "check_permutation", "multiply", "inverse", "length",
        "apply_s_right", "apply_s_left", "apply_transposition_left",
        "left_inversions", "left_descents", "right_descents",
        "right_inversions", "bruhat_leq", "rank_matrix", "weak_left_leq",
        "reduced_word", "evaluate_word", "is_reduced", "avoids_patterns",
        "cycle_type", "check_hessenberg", "codominant_from_hessenberg",
        "hessenberg_from_skew", "all_hessenberg_functions",
        "all_permutations", "transpositions", "perm_table"),
    "laurentq": ("poly_gcd", "q_power", "v_power", "from_q_coefficients"),
    "hecke": ("bott_samelson_product", "springer_decomposition",
              "kl_context"),
    "parabolic": (
        "min_coset_rep", "parabolic_quotient", "dot_action",
        "hecke_dot_matrix", "induced_character", "trace_table",
        "_build_trace_table", "bott_samelson_character", "phi", "bin_set",
        "good_words", "good_word_character", "good_word_characters_all_j",
        "kappa", "young_subgroup_generators", "all_parabolic_subsets"),
    "symfunc": (
        "partitions", "character_table", "murnaghan_nakayama", "omega",
        "hall_inner_product", "frobenius_character", "multiply",
        "plethysm_scale", "immanant", "jacobi_trudi"),
    "chromatic": ("csf_q", "llt_direct", "llt_plethysm", "chss_check",
                  "conjecture_scan"),
    "cli": ("main", "_render_poly", "_render_symfunc", "_render_element",
            "_render_expansion", "_emit_json", "_load_kl_cache",
            "_save_kl_cache"),
}

# (layer, class name, method) to wrap on the class
METHODS = (
    ("laurentq", "LaurentQ", "__mul__"), ("laurentq", "LaurentQ", "__rmul__"),
    ("laurentq", "LaurentQ", "__add__"), ("laurentq", "LaurentQ", "__radd__"),
    ("laurentq", "LaurentQ", "exact_div"),
    ("laurentq", "LaurentFrac", "__init__"),
    ("hecke", "HeckeElement", "__add__"), ("hecke", "HeckeElement", "__sub__"),
    ("hecke", "HeckeElement", "scale"),
    ("hecke", "HeckeElement", "mul_ts_right"),
    ("hecke", "HeckeElement", "mul_ts_left"), ("hecke", "HeckeElement", "mul"),
    ("hecke", "HeckeElement", "bar_involution"),
    ("hecke", "HeckeElement", "to_json"),
    ("hecke", "HeckeElement", "from_json"),
    ("hecke", "KLContext", "__init__"), ("hecke", "KLContext", "element"),
    ("hecke", "KLContext", "polynomial"),
    ("hecke", "KLContext", "expand_cprime"),
    ("hecke", "KLContext", "to_json"), ("hecke", "KLContext", "load_json"),
    ("symfunc", "SymFunc", "to_basis"), ("symfunc", "SymFunc", "map_coeffs"),
)

WORD_COUNT = ("parabolic.bott_samelson_character",
              "parabolic.good_word_character",
              "parabolic.good_word_characters_all_j")
WORD_ENUM = ("parabolic.good_words", "parabolic.bin_set", "parabolic.kappa")
RENDER = ("cli._render_poly", "cli._render_symfunc", "cli._render_element",
          "cli._render_expansion", "cli._emit_json")


def _modules():
    import heckelab.chromatic
    import heckelab.config
    import heckelab.coxeter
    import heckelab.hecke
    import heckelab.laurentq
    import heckelab.parabolic
    import heckelab.symfunc
    mods = {"coxeter": heckelab.coxeter, "laurentq": heckelab.laurentq,
            "hecke": heckelab.hecke, "parabolic": heckelab.parabolic,
            "symfunc": heckelab.symfunc, "chromatic": heckelab.chromatic,
            "config": heckelab.config}
    if "heckelab.cli" in sys.modules:   # traced only where the CLI runs
        mods["cli"] = sys.modules["heckelab.cli"]
    return mods


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.names = array("l")
        self.stack: list = []
        self.name_ids: dict = {}
        self.counters: Counter = Counter()
        self.ops: list = []          # (first span, end span) per op
        self._op_first = None
        # (id(context), w) -> terms of the element returned by the first
        # element(w) call on that context; the contexts are kept alive so
        # their ids stay unique
        self.element_terms: dict = {}
        self._contexts: dict = {}

    # -- op boundaries ---------------------------------------------------

    def begin_op(self) -> None:
        self._op_first = len(self.names)

    def end_op(self) -> None:
        self.ops.append((self._op_first, len(self.names)))
        self._op_first = None

    # -- wrapping ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def wrap(self, name: str, fn, post=None):
        nid = self._intern(name)
        starts, ends, parents, names = (self.starts, self.ends, self.parents,
                                        self.names)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t
                stack.pop()
            if post is not None and self._op_first is not None:
                post(args, out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        mods = _modules()
        hooks = self._hooks(mods)
        everywhere = list(mods.values())
        for layer, fnames in FUNCTIONS.items():
            mod = mods.get(layer)
            if mod is None:
                continue
            for fname in fnames:
                orig = getattr(mod, fname, None)
                if orig is None:
                    continue
                wrapped = self.wrap(f"{layer}.{fname}", orig,
                                    hooks.get(f"{layer}.{fname}"))
                for m in everywhere:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        setattr(m, attr, wrapped)
        for layer, cname, meth in METHODS:
            cls = getattr(mods[layer], cname, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                continue
            name = f"{layer}.{cname}.{meth}"
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(
                    self.wrap(name, raw.__func__, hooks.get(name))))
            else:
                setattr(cls, meth, self.wrap(name, raw, hooks.get(name)))
        # element(): the first call per context and w is a build
        klc = mods["hecke"].KLContext
        traced_element = klc.element

        def element(ctx, w):
            out = traced_element(ctx, w)
            key = (id(ctx), tuple(w))
            if self._op_first is not None and key not in self.element_terms:
                self.counters["hecke.element.builds"] += 1
                self.element_terms[key] = len(out.terms)
                self._contexts[id(ctx)] = ctx
            return out

        klc.element = element

    def _hooks(self, mods) -> dict:
        c = self.counters

        def trace_build(args, out):
            n, J = args
            c["parabolic.trace_table.work"] += (
                math.factorial(n) * quotient_size(n, J))

        def fixed(poly):
            return sum(poly.c.values())

        def bs_count(args, out):
            sigma, J, n = args
            c["parabolic.word_count.paths"] += (
                quotient_size(n, J) * 2 ** len(sigma))
            c["parabolic.word_count.fixed"] += fixed(out)

        def gw_count(args, out):
            sigma, _J, n = args
            c["parabolic.word_count.paths"] += math.factorial(n) * 2 ** len(sigma)
            c["parabolic.word_count.fixed"] += fixed(out)

        def allj_count(args, out):
            sigma, n = args
            c["parabolic.word_count.paths"] += math.factorial(n) * 2 ** len(sigma)
            c["parabolic.word_count.fixed"] += fixed(out[frozenset()])

        def enum_words(args, out):
            c["parabolic.word_enum.words"] += len(out)

        def csf_colorings(args, out):
            c["chromatic.colorings"] += proper_colorings(out)

        def llt_colorings(args, out):
            c["chromatic.colorings"] += out.degree ** out.degree

        def cache_size(args, out):
            cache_dir, n = args
            if cache_dir:
                path = os.path.join(cache_dir, f"kl_n{n}.json")
                if os.path.exists(path):
                    c["hecke.cache_bytes"] += os.path.getsize(path)

        return {
            "parabolic._build_trace_table": trace_build,
            "parabolic.bott_samelson_character": bs_count,
            "parabolic.good_word_character": gw_count,
            "parabolic.good_word_characters_all_j": allj_count,
            "parabolic.good_words": enum_words,
            "parabolic.bin_set": enum_words,
            "chromatic.csf_q": csf_colorings,
            "chromatic.llt_direct": llt_colorings,
            "cli._load_kl_cache": cache_size,
            "cli._save_kl_cache": cache_size,
        }

    # -- results -------------------------------------------------------------

    def tallies(self) -> dict:
        """name -> [calls, total seconds, self seconds] over the spans that
        lie inside timed ops (spans of the benchmark's checks are left out)."""
        n = len(self.names)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        inside = bytearray(n)
        for first, end in self.ops:
            inside[first:end] = b"\x01" * (end - first)
        names = {v: k for k, v in self.name_ids.items()}
        out: dict = {}
        for i in range(n):
            if inside[i]:
                row = out.setdefault(names[self.names[i]], [0, 0.0, 0.0])
                row[0] += 1
                row[1] += dur[i]
                row[2] += dur[i] - child[i]
        return out

    def summary(self) -> dict:
        """Sum-able per-process data: tallies, counters, table terms."""
        return {"tallies": self.tallies(), "counters": dict(self.counters),
                "table_terms": sum(self.element_terms.values())}

    def dump(self, path) -> None:
        """Write every span once: a JSON header line, then the raw arrays
        (start, end as float64; parent, name id, op id as int64)."""
        op_ids = array("l", [-1]) * len(self.names)
        for k, (first, end) in enumerate(self.ops):
            for i in range(first, end):
                op_ids[i] = k
        header = {"names": {v: k for k, v in self.name_ids.items()},
                  "spans": len(self.names),
                  "arrays": ["start", "end", "parent", "name", "op"]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.starts, self.ends, self.parents, self.names,
                        op_ids):
                fh.write(arr.tobytes())


def quotient_size(n: int, J) -> int:
    """|JW| = n! / |W_J|, where W_J is the Young subgroup whose blocks are
    the runs of consecutive generators in J."""
    order, run = 1, 1
    for i in range(1, n):
        run = run + 1 if i in J else 1
        order *= run
    return math.factorial(n) // order


def proper_colorings(f) -> int:
    """Number of colorings behind a monomial-basis coloring sum with
    palette n: each m_lam coefficient, at q=1, times the orbit size of lam
    among exponent vectors of length n."""
    n = f.degree
    total = 0
    for lam, c in f.coeffs.items():
        mult = Counter(lam)
        mult[0] = n - len(lam)
        orbit = math.factorial(n)
        for m in mult.values():
            orbit //= math.factorial(m)
        total += orbit * sum(c.c.values())
    return total


def merge(summaries) -> dict:
    """Combine the summaries of several traced processes (one CLI command
    each): calls, seconds and counters add; table terms take the maximum."""
    tallies: dict = {}
    counters: Counter = Counter()
    terms = 0
    for s in summaries:
        for name, (calls, total, self_s) in s["tallies"].items():
            row = tallies.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        counters.update(s["counters"])
        terms = max(terms, s["table_terms"])
    return {"tallies": tallies, "counters": dict(counters),
            "table_terms": terms}


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json, all but trace.overhead_s,
    from a summary."""
    t, c = summary["tallies"], summary["counters"]

    def calls(*names):
        return sum(t.get(n, (0, 0, 0))[0] for n in names)

    def total(*names):
        return sum(t.get(n, (0, 0, 0))[1] for n in names)

    def self_s(*names):
        return sum(t.get(n, (0, 0, 0))[2] for n in names)

    def layer(prefix):
        return [n for n in t if n.split(".", 1)[0] == prefix]

    paths = c.get("parabolic.word_count.paths", 0)
    return {
        "coxeter.calls": calls(*layer("coxeter")),
        "coxeter.self_s": self_s(*layer("coxeter")),
        "coxeter.length.calls": calls("coxeter.length"),
        "laurentq.mul.calls": calls("laurentq.LaurentQ.__mul__",
                                    "laurentq.LaurentQ.__rmul__"),
        "laurentq.add.calls": calls("laurentq.LaurentQ.__add__",
                                    "laurentq.LaurentQ.__radd__"),
        "laurentq.self_s": self_s(*layer("laurentq")),
        "laurentq.frac.calls": calls("laurentq.LaurentFrac.__init__",
                                     "laurentq.poly_gcd"),
        "hecke.element.calls": calls("hecke.KLContext.element"),
        "hecke.element.builds": c.get("hecke.element.builds", 0),
        "hecke.self_s": self_s(*layer("hecke")),
        "hecke.table_terms": summary["table_terms"],
        "hecke.cache_read_s": total("cli._load_kl_cache"),
        "hecke.cache_write_s": total("cli._save_kl_cache"),
        "hecke.cache_bytes": c.get("hecke.cache_bytes", 0),
        "parabolic.trace_table.builds": calls("parabolic._build_trace_table"),
        "parabolic.trace_table.self_s": self_s("parabolic._build_trace_table"),
        "parabolic.trace_table.work": c.get("parabolic.trace_table.work", 0),
        "parabolic.word_count.self_s": self_s(*WORD_COUNT),
        "parabolic.word_count.paths": paths,
        "parabolic.word_count.yield": (
            c.get("parabolic.word_count.fixed", 0) / paths if paths else 0.0),
        "parabolic.word_enum.self_s": self_s(*WORD_ENUM),
        "parabolic.word_enum.words": c.get("parabolic.word_enum.words", 0),
        "symfunc.frobenius.self_s": self_s("symfunc.frobenius_character"),
        "symfunc.to_basis.self_s": self_s("symfunc.SymFunc.to_basis"),
        "symfunc.plethysm.self_s": self_s("symfunc.plethysm_scale"),
        "chromatic.csf.self_s": self_s("chromatic.csf_q"),
        "chromatic.llt_direct.self_s": self_s("chromatic.llt_direct"),
        "chromatic.colorings": c.get("chromatic.colorings", 0),
        "cli.startup_s": c.get("cli.startup_s", 0.0),
        "cli.render.self_s": self_s(*RENDER),
        "cli.stdout_bytes": c.get("cli.stdout_bytes", 0),
    }
