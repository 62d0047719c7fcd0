"""Command-line front end: `milnor-forge`.

One verb per exposed operation, plus the orchestrated `gersten-check` and
the named invariant suites.  This module only parses arguments, dispatches
and renders: the sampled checks and the suites live in `checks`, and each
(ok, counterexample, fields) triple they give becomes one record.  All
randomness flows from the single --seed; machine-readable output (--format
records) is line-delimited with stable field names and is byte-identical
for identical (inputs, seed, config).  Exit status is 0 only when every
check in the run passed.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from .arith.finite_field import ff_ctx_q
from .arith.local import LOCAL_CTXS, LocalFieldCtx
from .arith.poly import Poly
from .bass_tate import bt_section, norm, residue_vector
from .checks import (SUITES, base_change_checks, kgroup_fields,
                     projection_checks, reciprocity_checks, tower_checks)
from .errors import BadInput, MilnorForgeError
from .localk import (INT_RE, divisibility_witness, gersten_check, hilbert,
                     lift_mod_m, parse_certificate, qf_oracle, read_int,
                     reduce_mod_m, serialize_certificate, tame,
                     verify_certificate)
from .ratfunc import QuotCtx, QuotElem, RatFuncCtx, RatFuncElem
from .rational_ring import (MultiPoly, RationalRingElem,
                            check_base_change_cost, delta_kernel_check,
                            is_unit, residue_map, s_member)
from .symbols import MilnorClass

DEFAULT_PRECISION = 8
MAX_POLY_DEGREE = 32  # parsers build no larger polynomial; timings in README
DEFAULT_BOUNDS = {"oracleprec": 8}


def read_bounds() -> dict:
    """Bounds from MILNOR_FORGE_BOUNDS (`oracleprec=...`)."""
    out = dict(DEFAULT_BOUNDS)
    raw = os.environ.get("MILNOR_FORGE_BOUNDS", "")
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, _, val = piece.partition("=")
        if key not in out:
            raise BadInput(f"unknown bound {key!r} in MILNOR_FORGE_BOUNDS")
        out[key] = parse_int(val, f"bound {key!r}")
    return out


# --------------------------------------------------------------------------
# field specs and input parsing
# --------------------------------------------------------------------------


def parse_int(s: str, what: str) -> int:
    """The integer an ASCII `-?[0-9]+` string spells (localk.read_int, the
    rule certificate numbers follow too), else a BadInput naming `what`."""
    n = read_int(s)
    if n is None:
        raise BadInput(f"{what} needs an integer, got {s!r}")
    return n


def _option_int(s: str) -> int:
    """argparse type of the integer options: parse_int's digits, so a
    malformed one is a usage error."""
    try:
        return parse_int(s, "option")
    except BadInput as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def make_field(spec: str, precision: int):
    """`padic:P`, `laurent:Q` or `ratfunc:Q`."""
    kind, _, arg = spec.partition(":")
    if not arg:
        raise BadInput(f"field spec {spec!r} needs `kind:q`")
    q = parse_int(arg, f"field spec {spec!r}")
    if kind in LOCAL_CTXS:
        if precision < 1:
            raise BadInput(f"--precision must be at least 1, got {precision}")
        return LOCAL_CTXS[kind](q, precision)
    if kind == "ratfunc":
        return RatFuncCtx(ff_ctx_q(q), "t")
    raise BadInput(f"unknown field kind {kind!r}")


def _split_commas(s: str):
    """Split on commas at parenthesis depth 0.  A blank string has no
    parts (the degree-0 symbol {}); an empty part beside a comma is
    BadInput, never dropped."""
    if not s.strip():
        return []
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    parts = [p.strip() for p in parts]
    if not all(parts):
        raise BadInput(f"empty entry in {{{s}}}")
    return parts


def parse_local_element(ctx: LocalFieldCtx, s: str):
    """`pi`, a serialized element of ctx, or else an integer."""
    s = s.strip()
    if s == "pi":
        return ctx.uniformizer()
    if s.partition("(")[0] in LOCAL_CTXS:
        return ctx.parse(s)
    return ctx.from_int(parse_int(s, "local element"))


def parse_class(ctx, s: str, parse_entry) -> MilnorClass:
    """`deg:n k*{e1,e2} + {..} - {..}` (the serialize format); the degree
    prefix is optional when at least one term is present."""
    tokens = s.split()
    degree = None
    terms = []
    sign = 1
    for tok in tokens:
        if tok.startswith("deg:"):
            degree = parse_int(tok[4:], "class degree")
            continue
        if tok == "+":
            sign = 1
            continue
        if tok == "-":
            sign = -1
            continue
        if tok == "0":
            continue
        coeff = sign
        if tok.startswith("-"):
            coeff = -coeff
            tok = tok[1:]
        body = tok
        if "*{" in tok:
            head, _, body = tok.partition("*")
            coeff *= parse_int(head, f"symbol term {tok!r}")
        if not (body.startswith("{") and body.endswith("}")):
            raise BadInput(f"cannot parse symbol term {tok!r}")
        entries = [parse_entry(e) for e in _split_commas(body[1:-1])]
        terms.append((coeff, entries))
        sign = 1
    if degree is None:
        if not terms:
            raise BadInput("class needs a deg:n prefix or at least one term")
        degree = len(terms[0][1])
    return MilnorClass(ctx, degree, terms)


def parse_sparse_poly(from_int, s: str, names) -> dict:
    """Sparse `c*t^k` / `c*t1^a*t2^b` sums with integer coefficients;
    returns {exponent tuple: coefficient}.  An exponent above
    MAX_POLY_DEGREE is BadInput before any coefficient list is built."""
    s = s.replace("-", "+-").replace("++-", "+-")
    out = {}
    for term in s.split("+"):
        term = term.strip()
        if not term:
            continue
        coeff = 1
        exps = [0] * len(names)
        for factor in term.split("*"):
            factor = factor.strip()
            var, caret, exp = factor.partition("^")
            if var in names:
                i = names.index(var)
                exps[i] += (parse_int(exp, f"exponent in {term!r}")
                            if caret else 1)
                if exps[i] > MAX_POLY_DEGREE:
                    raise BadInput(f"degree {exps[i]} of {var} in {term!r} "
                                   f"exceeds bound {MAX_POLY_DEGREE}")
            else:
                coeff *= parse_int(factor, f"coefficient in {term!r}")
        key = tuple(exps)
        c = from_int(coeff)
        out[key] = out[key] + c if key in out else c
    return out


def _split_fraction(s: str) -> tuple[str, str]:
    """`(num)/(den)`, `num/den` or `num` -> (num, den); den defaults to 1."""
    s = s.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        return tuple(s[1:-1].split(")/(", 1))
    if "/" in s:
        return tuple(s.split("/", 1))
    return s, "1"


def parse_ratfunc(F: RatFuncCtx, s: str):
    """`num/den` with sparse `c*t^k` polynomials (den optional)."""
    num_s, den_s = _split_fraction(s)

    def to_poly(text):
        d = parse_sparse_poly(F.base.from_int, text, [F.var])
        deg = max((e[0] for e in d), default=0)
        return Poly(F.base, [d.get((i,), F.base.zero())
                             for i in range(deg + 1)])

    return RatFuncElem(F, to_poly(num_s), to_poly(den_s))


def parse_multipoly(A, k: int, s: str) -> MultiPoly:
    names = ["t"] if k == 1 else ["t1", "t2"]
    return MultiPoly(A, k, parse_sparse_poly(A.from_int, s, names))


def parse_ratring(A, k: int, s: str) -> RationalRingElem:
    num_s, den_s = _split_fraction(s)
    return RationalRingElem(A, k, parse_multipoly(A, k, num_s),
                            parse_multipoly(A, k, den_s))


def parse_x_poly(F: RatFuncCtx, s: str) -> Poly:
    """Polynomial in X over F_q(t): `;`-separated coefficients, low first."""
    if s.count(";") > MAX_POLY_DEGREE:
        raise BadInput(f"degree {s.count(';')} in X exceeds bound "
                       f"{MAX_POLY_DEGREE}")
    return Poly(F, [parse_ratfunc(F, c) for c in s.split(";")])


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------


class Report:
    """Ordered pass/fail records for one command invocation."""

    def __init__(self, command: str, seed: int):
        self.command = command
        self.seed = seed
        self.records = []
        self.started = time.monotonic()

    def add(self, ok: bool, **fields):
        self.records.append((bool(ok), fields))

    def check(self, triples):
        """One record per (ok, counterexample, fields) triple; a failed one
        ends with counterexample=repr(counterexample()), built only then."""
        for ok, counterexample, fields in triples:
            if not ok:
                fields = dict(fields, counterexample=repr(counterexample()))
            self.add(ok, **fields)

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.records)

    def render(self, fmt: str) -> str:
        lines = []
        if fmt == "records":
            for ok, fields in self.records:
                body = " ".join(f"{k}={v}" for k, v in fields.items())
                lines.append(f"record cmd={self.command} seed={self.seed} "
                             f"{body} ok={'true' if ok else 'false'}")
            lines.append(f"summary cmd={self.command} seed={self.seed} "
                         f"checks={len(self.records)} "
                         f"ok={'true' if self.ok else 'false'}")
        else:
            for ok, fields in self.records:
                body = "  ".join(f"{k}={v}" for k, v in fields.items())
                lines.append(f"[{'PASS' if ok else 'FAIL'}] {body}")
            elapsed = time.monotonic() - self.started
            lines.append(f"{self.command}: {len(self.records)} checks, "
                         f"{'all passed' if self.ok else 'FAILURES'} "
                         f"(seed={self.seed}, {elapsed:.2f}s)")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# local-field verbs
# --------------------------------------------------------------------------


def _local_ctx(args) -> LocalFieldCtx:
    ctx = make_field(args.field, args.precision)
    if not isinstance(ctx, LocalFieldCtx):
        raise BadInput(f"verb {args.verb!r} needs a padic/laurent field")
    return ctx


def cmd_ff_kgroup(args, rep: Report):
    rep.add(True, **kgroup_fields(args.q, args.n)[1])


def cmd_tame(args, rep: Report):
    ctx = _local_ctx(args)
    a = parse_class(ctx, args.symbol, lambda e: parse_local_element(ctx, e))
    rep.add(True, op="tame", input=repr(args.symbol),
            output=repr(tame(ctx, a).serialize()))


def cmd_reduce(args, rep: Report):
    ctx = _local_ctx(args)
    a = parse_class(ctx, args.symbol, lambda e: parse_local_element(ctx, e))
    rep.add(True, op="reduce_mod_m", m=args.m,
            output=repr(reduce_mod_m(ctx, a, args.m).serialize()))


def cmd_lift(args, rep: Report):
    ctx = _local_ctx(args)
    kappa = ctx.residue_field
    a = parse_class(kappa, args.symbol, lambda e: _parse_ff(kappa, e))
    rep.add(True, op="lift_mod_m", m=args.m,
            output=repr(lift_mod_m(ctx, a, args.m).serialize()))


def _parse_ff(kappa, s: str):
    s = s.strip()
    if INT_RE.fullmatch(s):
        return kappa.from_int(parse_int(s, "residue-field element"))
    head = f"ff({kappa.p},{kappa.f}):"
    if s == head + "0":
        return kappa.zero()
    if s.startswith(head + "g^"):
        return kappa.from_exp(parse_int(s[len(head) + 2:], f"element {s!r}"))
    raise BadInput(f"cannot parse residue-field element {s!r}")


def cmd_divide(args, rep: Report):
    ctx = _local_ctx(args)
    a = parse_class(ctx, args.symbol, lambda e: parse_local_element(ctx, e))
    cert = divisibility_witness(ctx, a, args.ell)  # replayed before it returns
    text = serialize_certificate(cert)
    if args.out:
        write_out(args.out, text)
    where = {"cert": args.out} if args.out else {"steps": len(cert.steps)}
    rep.add(True, op="divisibility_witness", ell=args.ell, **where,
            verified="true")
    if not args.out and args.format == "text":
        sys.stdout.write(text)


def write_out(path: str, text: str):
    """Write an --out file; a path that cannot be written is BadInput."""
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise BadInput(f"cannot write {path!r}: {e}") from None


def cmd_verify_cert(args, rep: Report):
    try:
        with open(args.file) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise BadInput(f"cannot read certificate {args.file!r}: {e}") from None
    cert = parse_certificate(text)
    result = verify_certificate(cert)
    rep.check([(result.ok, lambda: result.failure,
                dict(op="verify_certificate", file=args.file, ell=cert.ell,
                     steps=len(cert.steps)))])


def cmd_hilbert(args, rep: Report):
    ctx = _local_ctx(args)
    a = parse_local_element(ctx, args.a)
    b = parse_local_element(ctx, args.b)
    rep.add(True, op="hilbert", a=args.a, b=args.b,
            value=hilbert(ctx, a, b))


def cmd_qf_oracle(args, rep: Report):
    ctx = _local_ctx(args)
    a = parse_local_element(ctx, args.a)
    b = parse_local_element(ctx, args.b)
    solvable = qf_oracle(ctx, a, b, search_precision=args.bounds["oracleprec"])
    rep.add(True, op="qf_oracle", a=args.a, b=args.b,
            solvable=str(solvable).lower())


# --------------------------------------------------------------------------
# function-field verbs
# --------------------------------------------------------------------------


def _ratfunc_ctx(args) -> RatFuncCtx:
    ctx = make_field(args.field, args.precision)
    if not isinstance(ctx, RatFuncCtx):
        raise BadInput(f"verb {args.verb!r} needs a ratfunc:q field")
    return ctx


def cmd_residues(args, rep: Report):
    F = _ratfunc_ctx(args)
    a = parse_class(F, args.symbol, lambda e: parse_ratfunc(F, e))
    rep.add(True, op="residue_vector",
            output=repr(residue_vector(a).serialize()))


def cmd_section(args, rep: Report):
    F = _ratfunc_ctx(args)
    a = parse_class(F, args.symbol, lambda e: parse_ratfunc(F, e))
    v = residue_vector(a)
    s = bt_section(v)
    round_trip = residue_vector(s).same_finite(v)
    rep.check([(round_trip, a.serialize, dict(
        op="bt_section", output=repr(s.serialize()),
        finite_round_trip=str(round_trip).lower()))])


def cmd_norm(args, rep: Report):
    F = _ratfunc_ctx(args)
    pi = parse_x_poly(F, args.pi)
    B = QuotCtx(F, pi)
    a = parse_class(B, args.symbol,
                    lambda e: QuotElem(B, parse_x_poly(F, e)))
    rep.add(True, op="norm", pi=repr(args.pi),
            output=repr(norm(a).serialize()))


def cmd_check(args, rep: Report):
    """check-reciprocity, check-projection and check-tower."""
    rep.check(args.check(_ratfunc_ctx(args), args.rng, args.samples))


# --------------------------------------------------------------------------
# rational-ring verbs
# --------------------------------------------------------------------------


def cmd_s_member(args, rep: Report):
    A = _local_ctx(args)
    f = parse_multipoly(A, args.vars, args.poly)
    rep.add(True, op="s_member", input=repr(args.poly),
            member=str(s_member(f)).lower())


def cmd_ratring_unit(args, rep: Report):
    A = _local_ctx(args)
    x = parse_ratring(A, args.vars, args.elem)
    rep.add(True, op="is_unit", input=repr(args.elem),
            unit=str(is_unit(x)).lower())


def cmd_ratring_residue(args, rep: Report):
    A = _local_ctx(args)
    x = parse_ratring(A, 1, args.elem)
    rep.add(True, op="residue_map", input=repr(args.elem),
            output=repr(residue_map(x).serialize()))


def cmd_delta_check(args, rep: Report):
    A = _local_ctx(args)
    a = parse_class(A, args.symbol, lambda e: parse_ratring(A, 1, e))
    rep.add(True, op="delta_kernel_check", input=repr(args.symbol),
            in_kernel=str(delta_kernel_check(a)).lower())


def cmd_base_change_check(args, rep: Report):
    A = _local_ctx(args)
    parts = args.pi.split(";") if args.pi else None
    # the sampler draws degree <= 3
    check_base_change_cost(A.model, len(parts) - 1 if parts else 3, A.prec)
    pi = (Poly(A, [A.from_int(parse_int(c, "--pi")) for c in parts])
          if parts else None)
    rep.check(base_change_checks(A, args.rng, args.samples, pi))


def cmd_gersten_check(args, rep: Report):
    rep.check(gersten_check(_local_ctx(args), args.n, args.m, args.samples,
                            args.rng))


def cmd_suite(args, rep: Report):
    rep.check(SUITES[args.name](args.rng, args.bounds["oracleprec"]))


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="milnor-forge",
        description="Exact Milnor K-theory calculators for local and "
                    "global function fields at desk scale.")
    p.add_argument("--field", default="padic:5",
                   help="padic:P | laurent:Q | ratfunc:Q")
    p.add_argument("--precision", type=_option_int, default=DEFAULT_PRECISION)
    p.add_argument("--seed", type=_option_int, default=0)
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.add_argument("--out", default="",
                   help="write the report (or certificate) to this file")
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, func, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(func=func)
        return sp

    sp = verb("ff-kgroup", cmd_ff_kgroup, help="invariant factors of K^M_n(F_q)")
    sp.add_argument("--q", type=_option_int, required=True)
    sp.add_argument("--n", type=_option_int, required=True)

    for name, func, hlp in (
            ("tame", cmd_tame, "tame symbol of a class"),
            ("reduce", cmd_reduce, "entrywise residue of a unit class mod m"),
            ("lift", cmd_lift, "Teichmuller lift of a residue class mod m"),
            ("divide", cmd_divide, "divisibility witness for ell | class"),
            ("delta-check", cmd_delta_check,
             "delta-kernel membership over A(t)")):
        sp = verb(name, func, help=hlp)
        sp.add_argument("symbol", help="e.g. '{2,3}' or 'deg:2 {pi,2}'")
        if name == "reduce" or name == "lift":
            sp.add_argument("--m", type=_option_int, required=True)
        if name == "divide":
            sp.add_argument("--ell", type=_option_int, required=True)

    sp = verb("verify-cert", cmd_verify_cert, help="replay a certificate file")
    sp.add_argument("file")

    for name, func in (("hilbert", cmd_hilbert), ("qf-oracle", cmd_qf_oracle)):
        sp = verb(name, func)
        sp.add_argument("a")
        sp.add_argument("b")

    for name, func, hlp in (
            ("residues", cmd_residues, "residue vector of a K_2 class"),
            ("section", cmd_section, "Bass-Tate section of the residue vector")):
        sp = verb(name, func, help=hlp)
        sp.add_argument("symbol", help="e.g. '{t,t+-1}' over ratfunc:q")

    sp = verb("norm", cmd_norm, help="norm along a simple extension")
    sp.add_argument("--pi", required=True,
                    help="monic poly in X: `;`-separated coefficients, "
                         "low first, e.g. '-1*t;0;1' for X^2 - t")
    sp.add_argument("symbol",
                    help="entries are X-polys: '{0;1}' is {theta}")

    for name, check in (("check-reciprocity", reciprocity_checks),
                        ("check-projection", projection_checks),
                        ("check-tower", tower_checks)):
        sp = verb(name, cmd_check)
        sp.set_defaults(check=check)
        sp.add_argument("--samples", type=_option_int, default=20)

    sp = verb("s-member", cmd_s_member, help="S-membership of a polynomial")
    sp.add_argument("poly")
    sp.add_argument("--vars", type=_option_int, default=1, choices=(1, 2))
    sp = verb("ratring-unit", cmd_ratring_unit, help="unit test in A(t...)")
    sp.add_argument("elem")
    sp.add_argument("--vars", type=_option_int, default=1, choices=(1, 2))
    sp = verb("ratring-residue", cmd_ratring_residue,
              help="residue map A(t) -> kappa(t)")
    sp.add_argument("elem")

    sp = verb("base-change-check", cmd_base_change_check)
    sp.add_argument("--pi", default="",
                    help="`;`-separated integer coefficients, low first")
    sp.add_argument("--samples", type=_option_int, default=5)

    sp = verb("gersten-check", cmd_gersten_check)
    sp.add_argument("--n", type=_option_int, required=True, choices=(1, 2, 3))
    sp.add_argument("--m", type=_option_int, required=True)
    sp.add_argument("--samples", type=_option_int, default=50)

    sp = verb("suite", cmd_suite)
    sp.add_argument("name", choices=list(SUITES))
    return p


def _add_failure(rep: Report, verb: str, e: MilnorForgeError):
    rep.add(False, op=verb, error=type(e).__name__,
            counterexample=repr(str(e)))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rep = Report(args.verb, args.seed)
    args.rng = random.Random(args.seed)
    try:
        args.bounds = read_bounds()
        args.func(args, rep)
    except MilnorForgeError as e:
        _add_failure(rep, args.verb, e)
    text = rep.render(args.format)
    if args.out and args.verb != "divide":
        try:
            write_out(args.out, text)
        except BadInput as e:
            _add_failure(rep, args.verb, e)
            text = rep.render(args.format)
    sys.stdout.write(text)
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
