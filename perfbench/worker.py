"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload kl_table --seed 1 [--trace]

The process imports heckelab, generates its inputs from the seed, stamps
the moment it is ready (set-up ends there), then runs every op of the
workload, timing each op and verifying every result.  It prints one JSON
object on stdout: the stamps, per-op latencies, failures, peak RSS and,
when traced, the per-layer summary.  `run.py` starts it and reads that.

Stamps that another process compares use time.monotonic() (on Linux the
system-wide CLOCK_MONOTONIC); latencies use time.perf_counter().
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import heckelab  # noqa: E402,F401  (set-up cost: interpreter and import)
import inputs as gen  # noqa: E402
import speed  # noqa: E402

OUT = HERE / "out"
PROBE_EVERY = 0.1  # seconds of ops between two speed probes

# pinned values, as in tests/test_acceptance.py (q-coefficient lists or
# v-exponent dicts)
B_3412_TABLE = {
    (1, 2, 3, 4): [1, 1], (1, 3, 2, 4): [1, 1],
    (2, 1, 3, 4): [1], (1, 2, 4, 3): [1], (1, 3, 4, 2): [1],
    (1, 4, 2, 3): [1], (2, 1, 4, 3): [1], (3, 1, 2, 4): [1],
    (2, 3, 1, 4): [1], (1, 4, 3, 2): [1], (3, 1, 4, 2): [1],
    (2, 4, 1, 3): [1], (3, 2, 1, 4): [1], (3, 4, 1, 2): [1],
}
TWISTED_3412_H = {(4,): [1, 2, 2, 2, 1], (3, 1): [0, 1, 2, 1],
                  (2, 2): [0, 1, 2, 1]}
LLT_3412_S = {(1, 1, 1, 1): {8: 1, 6: 1}, (2, 1, 1): {6: 3, 4: 3},
              (2, 2): {6: 1, 4: 2, 2: 1}, (3, 1): {4: 3, 2: 3},
              (4,): {2: 1, 0: 1}}
LOSEVMANIN_E = {(4,): [1, 1, 1, 1], (3, 1): [0, 1, 1], (2, 2): [0, 1, 1]}
KL_TABLE_TERMS_N6 = 98407


def vdict(qcoeffs) -> dict:
    """q-coefficient list -> v-exponent dict (q = v^2)."""
    return {2 * i: c for i, c in enumerate(qcoeffs) if c}


def coeff_dicts(f) -> dict:
    """A SymFunc or HeckeElement's coefficients as plain dicts."""
    items = f.coeffs if hasattr(f, "coeffs") else f.terms
    return {k: dict(c.c) for k, c in items.items()}


def is_int_qpoly(c: dict) -> bool:
    return all(e >= 0 and e % 2 == 0 and isinstance(x, int)
               for e, x in c.items())


def qlist(c: dict) -> list:
    top = max(c) // 2 if c else -1
    return [c.get(2 * k, 0) for k in range(top + 1)]


class Pass:
    """Latencies, speed probes and verdicts of one pass.

    Besides each op's latency it records the pass cut into segments, one
    per op: from the start of the op to the start of the next one (or to
    the end of the pass), so an op's checks fall in its segment and the
    segments add up to the pass's wall time.  With probe set, between
    ops, at least every PROBE_EVERY seconds and once at the end, it runs
    a speed probe (speed.py); probe time falls in no segment."""

    def __init__(self, tracer=None, probe=True):
        self.tracer = tracer
        self.probe = probe
        self.lat_ms: list = []
        self.seg_ms: list = []
        self.op_t: list = []
        self.probes: list = []
        self.kinds: list = []
        self.failed = 0
        self.failures: list = []
        self.t_last = None
        self.t_probe = float("-inf")

    def _between_ops(self) -> None:
        """Close the running segment and probe the speed when due."""
        now = time.perf_counter()
        if self.t_last is not None:
            self.seg_ms.append((now - self.t_last) * 1e3)
        if self.probe and now - self.t_probe >= PROBE_EVERY:
            ms = speed.probe_ms()
            self.t_probe = time.perf_counter()
            self.probes.append([self.t_probe - ms / 2e3, ms])

    def op(self, kind: str, fn, *args):
        """Time one op; an exception counts as a failed op."""
        self._between_ops()
        if self.tracer:
            self.tracer.begin_op()
        t = self.t_last = time.perf_counter()
        self.op_t.append(t)
        try:
            out = fn(*args)
        except Exception as exc:  # a failing op is a result, not a crash
            out = exc
        self.lat_ms.append((time.perf_counter() - t) * 1e3)
        if self.tracer:
            self.tracer.end_op()
        self.kinds.append(kind)
        return out

    def finish(self) -> None:
        """Close the last segment at the end of the pass."""
        self.t_probe = float("-inf")
        self._between_ops()

    def check(self, ok: bool, what: str) -> None:
        """Record the verdict of the op just run."""
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def verify(self, out, fn, what: str) -> None:
        """check(fn(out)), where an exception or an exception result
        counts as a failure."""
        if isinstance(out, Exception):
            self.check(False, f"{what}: {out!r}")
            return
        try:
            ok = bool(fn(out))
        except Exception as exc:  # a malformed result fails its check
            self.check(False, f"{what}: check raised {exc!r}")
            return
        self.check(ok, what)


# -- kl_table ---------------------------------------------------------------------


def setup_kl_table(inp, corrupt):
    from heckelab import hecke
    order = [tuple(w) for w in inp["order"]]
    n = inp["n"]
    pinned = {z + tuple(range(5, n + 1)): vdict(cs)
              for z, cs in B_3412_TABLE.items()}
    expected_terms = KL_TABLE_TERMS_N6 + (1 if corrupt else 0)
    return hecke, order, n, pinned, expected_terms


def run_kl_table(p: Pass, state):
    hecke, order, n, pinned, expected_terms = state
    ctx = hecke.KLContext(n)
    e = tuple(range(1, n + 1))
    w3412 = (3, 4, 1, 2) + tuple(range(5, n + 1))
    terms = 0
    for w in order:
        B = p.op("element", ctx.element, w)
        smooth = gen.avoids(w, (3, 4, 1, 2)) and gen.avoids(w, (4, 2, 3, 1))
        p.verify(B, lambda B: (B.terms[e].c == {0: 1}) == smooth
                 and (w != w3412 or coeff_dicts(B) == pinned),
                 f"B_{gen.lit(w)}")
        if not isinstance(B, Exception):
            terms += len(B.terms)
    p.check(terms == expected_terms, f"table terms {terms}")


# -- characters -------------------------------------------------------------------


def fixed_cosets(cycles, lam) -> int:
    """Number of cosets of S_lam fixed by a permutation with these cycle
    lengths: ways to put each cycle into one block, block i summing to
    lam_i.  Equals the m_lam coefficient of ch(T_w) at q = 1."""
    def rec(i, room):
        if i == len(cycles):
            return 1 if not any(room) else 0
        total = 0
        for b, r in enumerate(room):
            if r >= cycles[i]:
                total += rec(i + 1, room[:b] + (r - cycles[i],) + room[b + 1:])
        return total
    return rec(0, tuple(lam))


def cycle_lengths(w) -> list:
    seen, out = set(), []
    for s in range(len(w)):
        size, i = 0, s
        while i not in seen:
            seen.add(i)
            i = w[i] - 1
            size += 1
        if size:
            out.append(size)
    return out


def partitions_of(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, cap), 0, -1)
            for rest in partitions_of(n - k, k)]


def schur_shape_ok(c: dict, lw: int) -> bool:
    """Nonnegative integer q-polynomial, palindromic about q^(lw/2),
    unimodal."""
    if not is_int_qpoly(c) or any(x < 0 for x in c.values()):
        return False
    if any(c.get(2 * lw - e, 0) != x for e, x in c.items()):
        return False
    cs = qlist(c)
    while cs and cs[0] == 0:
        cs.pop(0)
    peak = cs.index(max(cs))
    return (all(a <= b for a, b in zip(cs[:peak], cs[1:peak + 1]))
            and all(a >= b for a, b in zip(cs[peak:], cs[peak + 1:])))


def setup_characters(inp, corrupt):
    from heckelab import chromatic, hecke, symfunc
    losevmanin = {lam: vdict(cs) for lam, cs in LOSEVMANIN_E.items()}
    if corrupt:
        losevmanin[(4,)] = vdict([1, 1, 1, 2])
    return hecke, symfunc, chromatic, inp["ops"], inp["n"], losevmanin


def run_characters(p: Pass, state):
    hecke, symfunc, chromatic, ops, n, losevmanin = state
    lams = partitions_of(n)

    def frob_kl(w):
        ch = symfunc.frobenius_character(hecke.kl_context(n).element(w))
        return ch.to_basis("s"), ch.to_basis("h")

    def frob_t(w):
        return symfunc.frobenius_character(hecke.HeckeElement.t_basis(n, w))

    def llt_pair(m, w):
        return (chromatic.llt_plethysm(w),
                chromatic.llt_direct(m).to_basis("s"))

    def shifted_e(w):
        f = chromatic.llt_plethysm(w).to_basis("e")
        return f, f.map_coeffs(lambda c: c.substitute_q_shift())

    def shifted_ok(out):
        f, sh = (coeff_dicts(x) for x in out)
        return (all(is_int_qpoly(c) for c in f.values())
                and all(is_int_qpoly(c) for c in sh.values())
                and all(sh.get(lam, {}).get(0, 0) == sum(c.values())
                        for lam, c in f.items()))

    def at_one_ok(ch, w):
        cyc = cycle_lengths(w)
        got = {lam: sum(c.values()) for lam, c in coeff_dicts(ch).items()}
        return all(got.get(lam, 0) == fixed_cosets(cyc, lam) for lam in lams)

    for op in ops:
        kind = op[0]
        if kind == "frob_kl":
            w = tuple(op[1])
            out = p.op(kind, frob_kl, w)
            lw = gen.inversions(w)
            p.verify(out, lambda sh: all(schur_shape_ok(c, lw) for c in
                                         coeff_dicts(sh[0]).values()),
                     f"ch(B_{gen.lit(w)}) Schur shape")
        elif kind == "frob_t":
            w = tuple(op[1])
            out = p.op(kind, frob_t, w)
            p.verify(out, lambda ch: at_one_ok(ch, w),
                     f"ch(T_{gen.lit(w)}) at q=1")
        elif kind == "chss":
            m = tuple(op[1])
            out = p.op(kind, chromatic.chss_check, m)
            p.verify(out, lambda r: r[0] and coeff_dicts(r[1]) ==
                     coeff_dicts(r[2]), f"chss {m}")
        elif kind == "llt":
            m, w = tuple(op[1]), tuple(op[2])
            out = p.op(kind, llt_pair, m, w)
            p.verify(out, lambda r: coeff_dicts(r[0]) == coeff_dicts(r[1]),
                     f"llt plethysm vs direct {m}")
        elif kind == "shifted_e":
            w = tuple(op[1])
            out = p.op(kind, shifted_e, w)
            p.verify(out, shifted_ok, f"shifted-e {gen.lit(w)}")
        elif kind == "pin_b3412_h":
            out = p.op(kind, lambda: symfunc.frobenius_character(
                hecke.kl_context(4).element((3, 4, 1, 2))).to_basis("h"))
            p.verify(out, lambda h: coeff_dicts(h) == {
                lam: vdict(cs) for lam, cs in TWISTED_3412_H.items()},
                "pinned h-expansion of B_3412")
        elif kind == "pin_llt_3412":
            out = p.op(kind, chromatic.llt_plethysm, (3, 4, 1, 2))
            p.verify(out, lambda f: coeff_dicts(f) == LLT_3412_S,
                     "pinned LLT_3412")
        elif kind == "pin_losevmanin_e":
            out = p.op(kind, lambda: chromatic.csf_q((2, 3, 4, 4))
                       .to_basis("e"))
            p.verify(out, lambda f: coeff_dicts(f) == losevmanin,
                     "pinned csf e-expansion of 2344")
        else:
            raise ValueError(kind)


# -- words -------------------------------------------------------------------------


def in_quotient(w, J) -> bool:
    """w is a minimal coset rep of W_J\\W: no left descent in J (a left
    descent i means i+1 stands left of i)."""
    pos = {x: i for i, x in enumerate(w)}
    return all(pos[j] < pos[j + 1] for j in J)


def subsets(gens):
    return [tuple(g for i, g in enumerate(gens) if b >> i & 1)
            for b in range(1 << len(gens))]


def setup_words(inp, corrupt):
    from heckelab import hecke, parabolic
    n = inp["n"]
    s_n = gen.perms_by_length(n)
    pairs = [(tuple(p["sigma"]), frozenset(p["J"])) for p in inp["pairs"]]
    return hecke, parabolic, n, s_n, pairs, inp["ops"], corrupt


def run_words(p: Pass, state):
    hecke, parabolic, n, s_n, pairs, ops, corrupt = state
    traces: dict = {}
    good: dict = {}

    def trace(i, J):
        sigma = pairs[i][0]
        key = (sigma, J)
        if key not in traces:
            traces[key] = dict(parabolic.induced_character(
                hecke.bott_samelson_product(sigma, n), J).c)
            if corrupt and i == 0:
                traces[key][0] = traces[key].get(0, 0) + 1
        return traces[key]

    def good_words_all(sigma, J):
        return {w: parabolic.good_words(w, sigma, J) for w in s_n}

    def kappa_all(sigma, J, words):
        return [parabolic.kappa(w, b, sigma, J)
                for w, bs in words.items() for b in bs]

    def enum_weight(words):
        total: dict = {}
        for bs in words.values():
            for b in bs:
                e = 2 * sum(b)
                total[e] = total.get(e, 0) + 1
        return total

    for kind, i in ops:
        sigma, J = pairs[i]
        label = f"{kind} sigma={gen.csv(sigma)} J={sorted(J)}"
        if kind == "bs":
            out = p.op(kind, parabolic.bott_samelson_character, sigma, J, n)
            p.verify(out, lambda r: r.c == trace(i, J), label)
        elif kind == "gw":
            out = p.op(kind, parabolic.good_word_character, sigma, J, n)
            p.verify(out, lambda r: r.c == trace(i, J), label)
        elif kind == "allj":
            out = p.op(kind, parabolic.good_word_characters_all_j, sigma, n)
            p.verify(out, lambda r: all(
                r[frozenset(K)].c == trace(i, frozenset(K))
                for K in subsets(range(1, n))), label)
        elif kind == "good_words":
            out = p.op(kind, good_words_all, sigma, J)
            p.verify(out, lambda r: enum_weight(r) == trace(i, J), label)
            good[i] = out if isinstance(out, dict) else {}
        elif kind == "kappa":
            # the pair's words are not needed after this op: free them, so
            # peak RSS does not add up the word sets of every pair
            out = p.op(kind, kappa_all, sigma, J, good.pop(i, {}))

            def bijective(image):
                fixed = {(w, b) for w in s_n if in_quotient(w, J)
                         for b in parabolic.bin_set(w, sigma, J, n)}
                return len(set(image)) == len(image) and set(image) == fixed
            p.verify(out, bijective, label)
        else:
            raise ValueError(kind)


# -- cli_session ------------------------------------------------------------------


def kl_basis_json_ok(stdout: str, w: str) -> bool:
    """B_w in the T-basis: leading term 1 at w, and every P_{z,w} is an
    integer q-polynomial with constant term 1."""
    data = json.loads(stdout)
    top = None
    for term in data["terms"]:
        c = {int(e): int(x) for e, x in term["coeff"]["v"].items()}
        if c.get(0) != 1 or not is_int_qpoly(c):
            return False
        if "".join(map(str, term["perm"])) == w:
            top = c
    return top == {0: 1}


def cli_check(cmd, stdout: str, reference) -> bool:
    check = cmd["check"]
    if check in ("pinned", "exact"):
        return stdout == reference
    if check == "kl_poly":
        return stdout.strip() == "1" or stdout.startswith("1+")
    if check == "kl_basis_json":
        return kl_basis_json_ok(stdout, cmd["w"])
    raise ValueError(check)


def setup_cli_session(inp, corrupt, refs_path, limit):
    cmds = inp["commands"]
    if limit is not None:
        others = [c for c in cmds if c["check"] != "pinned"][:limit]
        cmds = [c for c in cmds if c["check"] == "pinned" or c in others]
    refs = json.loads(Path(refs_path).read_text()) if refs_path else {}
    expected = []
    for c in cmds:
        if c["check"] == "pinned":
            ref = c["expect"]
            if corrupt and c["argv"][0] == "kl-poly":
                ref = "1+2q\n"
        elif c["check"] == "exact":
            ref = refs.get(json.dumps(c["reference"]))
        else:
            ref = None
        expected.append(ref)
    env = {k: v for k, v in os.environ.items() if k != "HECKE_LAB_MAX_N"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return cmds, expected, env


def run_cli_session(p: Pass, state, traced: bool):
    cmds, expected, base_env = state
    cache = OUT / "work" / f"cache-{os.getpid()}"
    spans = OUT / "spans" / "cli_session"
    shutil.rmtree(cache, ignore_errors=True)
    if traced:
        shutil.rmtree(spans, ignore_errors=True)
        spans.mkdir(parents=True)
    summaries = []
    for k, cmd in enumerate(cmds):
        argv = [str(cache) if a == gen.CACHE_SLOT else a for a in cmd["argv"]]
        if traced:
            summary = spans / f"cmd-{k:03d}.json"
            prog = [sys.executable, str(HERE / "cli_shim.py")]
            env = dict(base_env, HECKEBENCH_SPAWN=repr(time.monotonic()),
                       HECKEBENCH_OUT=str(summary))
        else:
            prog = [sys.executable, "-m", "heckelab.cli"]
            env = base_env

        def invoke():
            return subprocess.run(prog + argv, capture_output=True, env=env,
                                  cwd=str(ROOT), timeout=150)
        out = p.op(argv[0] if argv[0] != "--cache-dir" else argv[2], invoke)
        p.verify(out, lambda r: r.returncode == 0 and cli_check(
            cmd, r.stdout.decode(), expected[k]), " ".join(cmd["argv"]))
        if traced and not isinstance(out, Exception) and summary.exists():
            s = json.loads(summary.read_text())
            s["counters"]["cli.stdout_bytes"] = len(out.stdout)
            summaries.append(s)
    shutil.rmtree(cache, ignore_errors=True)
    return summaries


# -- main ----------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", action="store_true",
                    help="use one deliberately wrong expected value")
    ap.add_argument("--refs", default=None,
                    help="cli_session: JSON file of reference outputs")
    ap.add_argument("--limit", type=int, default=None,
                    help="cli_session: keep the pinned commands and this "
                         "many others")
    args = ap.parse_args()

    inp = gen.make_inputs(args.workload, args.seed)
    if args.workload == "cli_session":
        state = setup_cli_session(inp, args.corrupt, args.refs, args.limit)
    else:
        state = {"kl_table": setup_kl_table, "characters": setup_characters,
                 "words": setup_words}[args.workload](inp, args.corrupt)
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    tracer = None
    if args.trace and args.workload != "cli_session":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    # a cli_session op is a child process, mostly process start and
    # import, which the speed probe does not follow: no probes, no scaling
    p = Pass(tracer, probe=args.workload != "cli_session")
    summaries = None
    if args.workload == "kl_table":
        run_kl_table(p, state)
    elif args.workload == "characters":
        run_characters(p, state)
    elif args.workload == "words":
        run_words(p, state)
    else:
        summaries = run_cli_session(p, state, args.trace)
    p.finish()

    if args.workload == "cli_session":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"t_ready": t_ready,
              "lat_ms": p.lat_ms, "seg_ms": p.seg_ms, "op_t": p.op_t,
              "probes": p.probes, "kinds": p.kinds,
              "attempted": len(p.lat_ms),
              # a whole-table check adds a failure but no op: cap at ops
              "failed": min(p.failed, len(p.lat_ms)),
              "failures": p.failures, "maxrss_kb": rss_kb}
    if args.trace:
        from tracer import merge
        if tracer is not None:
            result["layers"] = tracer.summary()
            (OUT / "spans").mkdir(parents=True, exist_ok=True)
            tracer.dump(OUT / "spans" / f"{args.workload}.bin.gz")
        else:
            result["layers"] = merge(summaries)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
