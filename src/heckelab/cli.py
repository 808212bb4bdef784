"""
Batch command surface: every computation as a reproducible command.

Output conventions: results go to stdout, diagnostics to stderr; output
bytes are a pure function of the arguments and the chosen format.  Exit
codes: 0 success, 1 domain error (e.g. incomparable permutations), 2
usage error (bad literals, unknown verbs, size guard).  A verb checks
n, J and its word in one call (`_check_args`).  `--cache-dir` is still
accepted, so older command lines run unchanged, but it reads and writes
nothing: recomputing a Kazhdan-Lusztig table costs less than reading it.

Permutation literals are contiguous digits for n <= 9 ("3412") and
comma-separated entries for larger n ("10,3,2,...").  Partitions, words
and generator sets are comma-separated.  Every expansion is printed by
one rule (`laurentq.Terms.render`): terms in basis order, coefficient 1
dropped, others parenthesized unless a single monomial.  LaTeX output
prints q-powers in ascending order and partition subscripts as comma
lists, so displays are directly comparable with the usual conventions
in the literature.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import config
from .coxeter import (
    check_hessenberg, check_permutation, evaluate_word, length, perm_table,
)
from .hecke import (
    HeckeElement, bott_samelson_product, kl_context, springer_decomposition,
)
from .laurentq import v_power
from .parabolic import (
    bott_samelson_character, good_words, induced_character,
)
from .symfunc import frobenius_character
from .chromatic import chss_check, conjecture_scan, csf_q, llt_direct, \
    llt_plethysm

__all__ = ["main", "build_parser"]


# -- literals -----------------------------------------------------------------

def parse_permutation(text: str) -> tuple:
    try:
        if "," in text:
            entries = tuple(int(x) for x in text.split(","))
        else:
            entries = tuple(int(ch) for ch in text.strip())
        return check_permutation(entries)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad permutation literal {text!r}: {exc}") from None


def _int_list(kind: str, build):
    """The parser of a comma-separated integer literal, possibly empty,
    into build(ints)."""
    def parse(text: str):
        if text.strip() == "":
            return build(())
        try:
            return build(int(x) for x in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad {kind} literal {text!r}") from None
    return parse


parse_word = _int_list("word", tuple)
parse_generators = _int_list("generator set", frozenset)


def parse_values(text: str) -> tuple:
    try:
        return check_hessenberg(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad Hessenberg literal {text!r}: {exc}") from None


def _read_json(text: str):
    """The JSON value of text; an object that repeats a key is refused
    (json.loads would keep the last value)."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def _unique_keys(pairs: list) -> dict:
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r} in a JSON object")
        out[key] = value
    return out


# -- shared rendering -----------------------------------------------------------

def _emit_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "))


def _render(x, fmt: str, **name) -> str:
    """A LaurentQ, HeckeElement or SymFunc in the chosen format; ``name``
    (label="B" or "C") names the basis of a Hecke expansion."""
    if fmt == "json":
        return _emit_json(x.to_json())
    return x.render(fmt == "latex", **name)


# -- verb handlers --------------------------------------------------------------

def _element_from_args(args, parser) -> HeckeElement:
    sources = [s for s in ("w", "kl", "json_elem", "file")
               if getattr(args, s, None)]
    if len(sources) != 1:
        parser.error("provide exactly one of --w, --kl, --json, --file")
    if args.w:
        return HeckeElement.t_basis(len(args.w), args.w)
    if args.kl:
        return kl_context(len(args.kl)).element(args.kl)
    if args.json_elem:
        return HeckeElement.from_json(_read_json(args.json_elem))
    with open(args.file, "r", encoding="utf-8") as fh:
        return HeckeElement.from_json(_read_json(fh.read()))


def run_kl_poly(args, parser) -> str:
    u, w = args.u, args.w
    if len(u) != len(w):
        parser.error(f"size mismatch: |u|={len(u)} but |w|={len(w)}")
    if args.n is not None and args.n != len(w):
        parser.error(f"--n {args.n} does not match the literals (n={len(w)})")
    p = kl_context(len(w)).polynomial(u, w)
    return _render(p, args.format)


def run_kl_basis(args, parser) -> str:
    elem = kl_context(len(args.w)).element(args.w)
    return _render(elem, args.format)


def run_cprime_expand(args, parser) -> str:
    if args.word is not None:
        if args.json_elem or args.file:
            parser.error("--word excludes --json/--file")
        if args.n is None:
            parser.error("--word needs --n")
        _check_args(args, parser, args.n)
        elem = bott_samelson_product(args.word, args.n)
    else:
        elem = _element_from_args(args, parser)
        _check_args(args, parser, elem.n)
    expansion = kl_context(elem.n).expand_cprime(elem)
    return _render(HeckeElement(elem.n, expansion), args.format, label="B")


def run_induced_char(args, parser) -> str:
    elem = _element_from_args(args, parser)
    _check_args(args, parser, elem.n, args.J)
    return _render(induced_character(elem, args.J), args.format)


def run_bs_char(args, parser) -> str:
    _check_args(args, parser, args.n, args.J)
    return _render(bott_samelson_character(args.word, args.J, args.n),
                   args.format)


def run_good_words(args, parser) -> str:
    _check_args(args, parser, args.n, args.J)
    if args.w is not None:
        if len(args.w) != args.n:
            parser.error("--w does not match --n")
        perms = [args.w]
    else:
        perms = perm_table(args.n).perms
    sets = []
    for w in perms:
        good = sorted(good_words(w, args.word, args.J))
        if good or args.w is not None:
            sets.append({"w": list(w), "good": [list(b) for b in good]})
    if args.format == "json":
        return _emit_json({"n": args.n, "J": sorted(args.J),
                           "word": list(args.word), "sets": sets})
    lines = []
    for entry in sets:
        ws = ",".join(map(str, entry["w"]))
        gs = " ".join("".join(map(str, b)) for b in entry["good"]) or "-"
        lines.append(f"{ws}: {gs}")
    return "\n".join(lines) if lines else "(no good words)"


def run_frobenius(args, parser) -> str:
    n = len(args.w)
    if args.of == "kl":
        elem = kl_context(n).element(args.w)
    else:
        elem = HeckeElement.t_basis(n, args.w)
    return _render(frobenius_character(elem, args.basis), args.format)


def run_csf(args, parser) -> str:
    f = csf_q(args.m).to_basis(args.basis)
    return _render(f, args.format)


def run_chss_check(args, parser) -> str:
    ok, lhs, rhs = chss_check(args.m)
    if args.format == "json":
        return _emit_json({"ok": ok, "m": list(args.m),
                           "kl_side": lhs.to_json(), "coloring_side": rhs.to_json()})
    lines = [f"m = {','.join(map(str, args.m))}: {'EQUAL' if ok else 'DIFFER'}"]
    lines.append(f"  kl side:       {lhs}")
    lines.append(f"  coloring side: {rhs}")
    return "\n".join(lines)


def run_llt(args, parser) -> str:
    if (args.w is None) == (args.m is None):
        parser.error("provide exactly one of --w (plethysm route) or "
                     "--m (direct coloring route)")
    if args.w is not None:
        f = llt_plethysm(args.w)
    else:
        f = llt_direct(args.m)
    return _render(f.to_basis(args.basis), args.format)


def run_springer(args, parser) -> str:
    _check_args(args, parser, args.n)
    expansion = springer_decomposition(args.word, args.n)
    if args.normalization == "classical":
        # divide out v^(len(top) - len(u)): the multiplicity series P_u(v)
        top = evaluate_word(args.word, args.n)
        expansion = {u: c * v_power(length(u) - length(top))
                     for u, c in expansion.items()}
    return _render(HeckeElement(args.n, expansion), args.format,
                   label="B" if args.normalization == "integral" else "C")


def run_ih_poincare(args, parser) -> str:
    n = len(args.w)
    J = args.J if args.J is not None else frozenset(range(1, n))
    _check_args(args, parser, n, J)
    elem = kl_context(n).element(args.w)
    return _render(induced_character(elem, J), args.format)


def run_scan(args, parser) -> str:
    rows = conjecture_scan(args.kind, args.n)
    note = ("shifted-e convention: e-expansion of the plethystic LLT "
            "after q -> q+1" if args.kind == "shifted-e" else None)
    if args.format == "json":
        return _emit_json({
            "kind": args.kind, "n": args.n,
            **({"convention": note} if note else {}),
            "rows": [{"w": list(r.w), "ok": r.ok, "detail": r.detail}
                     for r in rows]})
    lines = [f"scan {args.kind} over S_{args.n}"
             + (f" ({note})" if note else "")]
    for r in rows:
        mark = "ok " if r.ok else "FAIL"
        lines.append(f"  {mark} {''.join(map(str, r.w)) if args.n <= 9 else r.w}"
                     f"  {r.detail}")
    good = sum(1 for r in rows if r.ok)
    lines.append(f"verdict: {good}/{len(rows)} hold")
    return "\n".join(lines)


def _check_args(args, parser, n: int, J=()) -> None:
    """The rank guard on n, then the generator set J, then the letters of
    args.word if the verb has one."""
    config.check_n(n)
    if any(not 1 <= j <= n - 1 for j in J):
        parser.error(f"generator set {sorted(J)} invalid for n={n}")
    word = getattr(args, "word", None) or ()
    if any(not 1 <= s <= n - 1 for s in word):
        parser.error(f"word {list(word)} has letters outside 1..{n - 1}")


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckelab",
        description="Exact Hecke-algebra computations: Kazhdan-Lusztig "
                    "elements, induced characters, Frobenius characters, "
                    "chromatic quasisymmetric and LLT polynomials.")
    parser.add_argument("--max-n", type=int, default=None,
                        help="raise/lower the global size guard "
                             "(overrides HECKE_LAB_MAX_N)")
    parser.add_argument("--cache-dir", default=None,
                        help="ignored: Kazhdan-Lusztig tables are recomputed "
                             "on every run")
    parser.add_argument("--seed", type=int, default=None,
                        help="reserved for the randomized test harness; "
                             "never affects computation results")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def add(verb, func, **kwargs):
        p = sub.add_parser(verb, **kwargs)
        p.add_argument("--format", choices=("plain", "json", "latex"),
                       default="plain")
        p.set_defaults(func=func)
        return p

    p = add("kl-poly", run_kl_poly, help="Kazhdan-Lusztig polynomial P_{u,w}")
    p.add_argument("--u", type=parse_permutation, required=True)
    p.add_argument("--w", type=parse_permutation, required=True)
    p.add_argument("--n", type=int, default=None)

    p = add("kl-basis", run_kl_basis,
            help="T-expansion of q^(l(w)/2) C'_w")
    p.add_argument("--w", type=parse_permutation, required=True)

    p = add("cprime-expand", run_cprime_expand,
            help="expand an element in the Kazhdan-Lusztig basis")
    p.add_argument("--json", dest="json_elem", default=None,
                   help="element as JSON text")
    p.add_argument("--file", default=None, help="element as a JSON file")
    p.add_argument("--word", type=parse_word, default=None,
                   help="expand the product prod (1+T_s) over this word")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(w=None, kl=None)

    p = add("induced-char", run_induced_char,
            help="trace of an element on a parabolic quotient module")
    p.add_argument("--J", type=parse_generators, required=True)
    p.add_argument("--w", type=parse_permutation, default=None,
                   help="use T_w")
    p.add_argument("--kl", type=parse_permutation, default=None,
                   help="use q^(l(w)/2) C'_w")
    p.add_argument("--json", dest="json_elem", default=None)
    p.add_argument("--file", default=None)

    for verb in ("bs-char", "bs-poincare"):
        p = add(verb, run_bs_char,
                help="character of prod (1+T_s) on a parabolic quotient")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--J", type=parse_generators, required=True)
        p.add_argument("--word", type=parse_word, required=True)

    p = add("good-words", run_good_words,
            help="good binary words per permutation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--J", type=parse_generators, required=True)
    p.add_argument("--word", type=parse_word, required=True)
    p.add_argument("--w", type=parse_permutation, default=None)

    p = add("frobenius", run_frobenius,
            help="Frobenius character of T_w or of the KL element of w")
    p.add_argument("--w", type=parse_permutation, required=True)
    p.add_argument("--basis", choices=("e", "h", "p", "m", "s"), default="m")
    p.add_argument("--of", choices=("kl", "t"), default="kl")

    p = add("csf", run_csf,
            help="chromatic quasisymmetric function of an indifference graph")
    p.add_argument("--m", type=parse_values, required=True,
                   help="Hessenberg values, e.g. 2,3,4,4")
    p.add_argument("--basis", choices=("e", "h", "p", "m", "s"), default="m")

    p = add("chss-check", run_chss_check,
            help="compare the KL-character and coloring pipelines")
    p.add_argument("--m", type=parse_values, required=True)

    p = add("llt", run_llt, help="unicellular LLT polynomial")
    p.add_argument("--w", type=parse_permutation, default=None)
    p.add_argument("--m", type=parse_values, default=None)
    p.add_argument("--basis", choices=("e", "h", "p", "m", "s"), default="s")

    p = add("springer", run_springer,
            help="KL-basis decomposition of prod (1+T_s) over a reduced word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", type=parse_word, required=True)
    p.add_argument("--normalization", choices=("integral", "classical"),
                   default="integral",
                   help="integral: v-polynomial coefficients of B_u; "
                        "classical: the palindromic multiplicity series")

    p = add("ih-poincare", run_ih_poincare,
            help="induced character of the KL element of w (default J: all)")
    p.add_argument("--w", type=parse_permutation, required=True)
    p.add_argument("--J", type=parse_generators, default=None)

    p = add("scan", run_scan, help="conjecture scans (report-only)")
    p.add_argument("--kind", required=True,
                   choices=("h-positivity", "log-concavity", "shifted-e"))
    p.add_argument("--n", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cache_dir is not None:
        print("heckelab: ignoring --cache-dir: Kazhdan-Lusztig tables are "
              "recomputed, never read from or written to disk",
              file=sys.stderr)
    previous_guard = config._override
    if args.max_n is not None:
        config.set_max_n(args.max_n)
    try:
        out = args.func(args, parser)
    except config.BudgetError as exc:
        print(f"heckelab: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"heckelab: {exc}", file=sys.stderr)
        return 1
    finally:
        config.set_max_n(previous_guard)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
