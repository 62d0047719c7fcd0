"""Seeded input generation for the four workloads.

Standard library only: the orchestrator imports this module without
importing milnorforge.  Every input is plain data (ints and lists), so a
library change cannot alter what a seed produces.  Finite-field elements
are written as their polynomial-basis encoding c0 + c1*p + ... (0 is the
zero element), which does not depend on the library's choice of generator.
"""

from __future__ import annotations

import random

WORKLOADS = ("local_certificates", "function_fields", "rational_ring",
             "cli_batch")

# (model, q, prec): the rings each in-process workload builds in set-up.
CONTEXTS = {
    "local_certificates": [("padic", p, prec) for p in (5, 2)
                           for prec in (8, 16)]
    + [("laurent", q, prec) for q in (3, 9) for prec in (8, 16)],
    "function_fields": [("ratfunc", 3, 0), ("ratfunc", 5, 0)],
    "rational_ring": [("padic", 5, 8), ("padic", 3, 8), ("laurent", 3, 8),
                      ("laurent", 5, 8)],
    # the rings the CLI list parses its fields into
    "cli_batch": [("ratfunc", 3, 0), ("ratfunc", 5, 0), ("padic", 5, 8),
                  ("padic", 3, 8), ("padic", 2, 8), ("laurent", 3, 8)],
}

# Ops per pass.  Sized so one pass takes a few seconds on a 2-core Xeon and
# the seed-to-seed spread of the pass total stays small.
CERT_PER_CELL = {"padic": 12, "laurent": 4}
TAME_PER_RING = 4
RECIP_PER_Q = 30
SECTION_PER_Q = 30
NORM_PER_Q = 30
PROJ_PER_Q = 6
TOWER_PER_Q = 6
MEMBER_OPS = 1200
BASE_CHANGE_OPS = 8
DELTA_OPS = 100
PI_CANDIDATES = 40
CLI_SAMPLES = 10

HILBERT_REPS = (1, -1, 2, -2, 5, -5, 10, -10)


def _prime_of(q: int) -> int:
    return next(p for p in (2, 3, 5, 7) if q % p == 0)


def ff_code(rng, q: int, nonzero: bool = False) -> int:
    return rng.randrange(1, q) if nonzero else rng.randrange(q)


def local_unit(rng, model: str, q: int, prec: int):
    """A unit of Z_p (int coprime to p) or of F_q[[t]] (code list)."""
    if model == "padic":
        while True:
            u = rng.randrange(1, q ** prec)
            if u % q:
                return u
    return [ff_code(rng, q, True)] + [ff_code(rng, q) for _ in range(prec - 1)]


def local_integral(rng, model: str, q: int, prec: int, max_val: int = 2):
    """None for zero, else [valuation, unit]: the A(t) coefficient law."""
    k = rng.randrange(max_val + 2)
    if k > max_val:
        return None
    return [k, local_unit(rng, model, q, prec)]


def ff_poly(rng, q: int, max_deg: int, exact: bool = False):
    """Coefficient codes, low first, with a nonzero leading coefficient."""
    d = max_deg if exact else rng.randrange(max_deg + 1)
    return [ff_code(rng, q) for _ in range(d)] + [ff_code(rng, q, True)]


def ratfunc(rng, q: int, max_deg: int = 2, exact: bool = False):
    """num/den over F_q; `exact` fixes both degrees at max_deg."""
    return [ff_poly(rng, q, max_deg, exact), ff_poly(rng, q, max_deg, exact)]


def multipoly(rng, model, q, prec, ensure_s=False, max_deg: int = 2):
    """Terms [exponent, integral] of a one-variable A(t) polynomial."""
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        terms[rng.randrange(max_deg + 1)] = local_integral(rng, model, q, prec)
    if ensure_s and not any(c is not None and c[0] == 0
                            for c in terms.values()):
        terms[rng.randrange(max_deg + 1)] = [0, local_unit(rng, model, q, prec)]
    return sorted([e, c] for e, c in terms.items())


def _local_certificates(rng):
    ops = []
    for model, q, prec in CONTEXTS["local_certificates"]:
        p = _prime_of(q)
        ells = [ell for ell in (2, 3, 5, 7) if ell % p][:2]
        for degree in (2, 3):
            for i in range(CERT_PER_CELL[model]):
                ops.append({"kind": "certificate", "ring": [model, q, prec],
                            "ell": ells[i % 2],
                            "entries": [local_unit(rng, model, q, prec)
                                        for _ in range(degree)]})
        for i in range(TAME_PER_RING):
            # {u*pi^k, v} has tame symbol k*{v bar}; {u, v} has none
            ops.append({"kind": "tame", "ring": [model, q, prec],
                        "k": i % 3 + 1 if i % 2 == 0 else 0,
                        "entries": [local_unit(rng, model, q, prec)
                                    for _ in range(2)]})
    # the Q_2 table of acceptance 2, each representative scaled by an odd
    # square: the same symbol classes (so the same share of full oracle
    # sweeps) on inputs that change with the seed
    scaled = [r * rng.randrange(1, 256, 2) ** 2 for r in HILBERT_REPS]
    for a in scaled:
        for b in scaled:
            ops.append({"kind": "hilbert", "a": a, "b": b})
    return ops


def _function_fields(rng):
    ops = []
    for q in (3, 5):
        for _ in range(RECIP_PER_Q):
            ops.append({"kind": "reciprocity", "q": q,
                        "entries": [ratfunc(rng, q) for _ in range(4)],
                        "scale": rng.choice((-2, -1, 1, 2))})
        for _ in range(SECTION_PER_Q):
            ops.append({"kind": "section", "q": q,
                        "entries": [ratfunc(rng, q) for _ in range(2)]})
        for _ in range(NORM_PER_Q):
            ops.append({"kind": "norm", "q": q,
                        "entries": [ratfunc(rng, q) for _ in range(2)]})
        # The projection and tower checks take three quarters of a pass
        # and their cost follows the degrees of their inputs, so those
        # degrees are fixed and only the coefficients follow the seed.
        for _ in range(PROJ_PER_Q):
            # x over F, y = a + b*sqrt(t) over F(sqrt t)
            ops.append({"kind": "projection", "q": q,
                        "x": ratfunc(rng, q, 1, exact=True),
                        "y": [ratfunc(rng, q, 1, exact=True)
                              for _ in range(2)]})
        for i in range(TOWER_PER_Q):
            # g monic of degree 1..3 over F_q(t), lower coefficients of
            # degree 1
            ops.append({"kind": "tower", "q": q,
                        "g": [ratfunc(rng, q, 1, exact=True)
                              for _ in range(i % 3 + 1)]})
    return ops


def _rational_ring(rng):
    rings = CONTEXTS["rational_ring"]
    ops = []
    for i in range(MEMBER_OPS):
        model, q, prec = rings[i % len(rings)]
        ensure = i % 2 == 0
        ops.append({"kind": "member", "ring": [model, q, prec],
                    "ensure_s": ensure,
                    "f": multipoly(rng, model, q, prec, ensure_s=ensure),
                    "x": [multipoly(rng, model, q, prec),
                          multipoly(rng, model, q, prec, ensure_s=True)],
                    "y": [multipoly(rng, model, q, prec),
                          multipoly(rng, model, q, prec, ensure_s=True)]})
    for i in range(BASE_CHANGE_OPS):
        model, q, prec = rings[i % len(rings)]
        # monic quadratics; the library rejects those reducible mod pi and
        # the op moves on to the next candidate.  The elements the library
        # samples inside the round trip set most of its cost (per-op CV 0.6
        # against 0.1 for pi alone), so their stream is fixed per op slot
        # and only pi follows the seed.
        ops.append({"kind": "base_change", "ring": [model, q, prec],
                    "candidates": [[local_unit(rng, model, q, prec)
                                    for _ in range(2)]
                                   for _ in range(PI_CANDIDATES)],
                    "rng_seed": i})
    for i in range(DELTA_OPS):
        model, q, prec = rings[i % len(rings)]
        ops.append({"kind": "delta_const", "ring": [model, q, prec],
                    "entries": [local_unit(rng, model, q, prec)
                                for _ in range(2)]})
        ops.append({"kind": "delta_moving", "ring": [model, q, prec],
                    "u0": local_unit(rng, model, q, prec)})
    return ops


def _legendre(a: int, p: int) -> int:
    return pow(a % p, (p - 1) // 2, p)


def _cli_batch(rng):
    """CLI invocations: argv after `--format records`, plus what to check."""
    s = ["--seed", str(rng.randrange(1 << 20))]
    ops = []

    def add(argv, expect=(), env=None):
        ops.append({"kind": "cli", "argv": s + argv, "expect": list(expect),
                    "env": env or {}})

    for name in ("STEINBERG", "HILBERT_TABLE", "RECIPROCITY", "CERTIFICATES",
                 "FF_KGROUPS"):
        add(["suite", name])
    for q in (3, 5):
        for verb in ("check-reciprocity", "check-projection", "check-tower"):
            add(["--field", f"ratfunc:{q}", verb,
                 "--samples", str(CLI_SAMPLES)])
    m = rng.choice((2, 4, 5))
    for n in (1, 2, 3):
        add(["--field", "laurent:3", "gersten-check", "--n", str(n),
             "--m", str(m)])
    # X^2 + bX + c irreducible mod p, with c, b lifted by random multiples
    for field, p in (("padic:5", 5), ("laurent:3", 3)):
        while True:
            b, c = rng.randrange(p), rng.randrange(1, p)
            if _legendre(b * b - 4 * c, p) == p - 1:
                break
        if field.startswith("padic"):
            b += p * rng.randrange(20)
            c += p * rng.randrange(20)
        add(["--field", field, "base-change-check", "--pi", f"{c};{b};1"])
    units = []
    while len(units) < 2:
        u = rng.randrange(2, 5 ** 8)
        if u % 5:
            units.append(u)
    cert = ".perfbench_out/cli/cert.txt"
    add(["--field", "padic:5", "--out", cert, "divide",
         "--ell", str(rng.choice((2, 3))), "{%d,%d}" % tuple(units)],
        expect=["verified=true"])
    add(["verify-cert", cert], expect=["op=verify_certificate"])
    # {p*u, v} with v a non-residue: insolvable, so the sweep runs to the end
    for p in (5, 3):
        u = rng.randrange(1, p)
        v = rng.choice([r for r in range(2, p) if _legendre(r, p) == p - 1])
        v += p * rng.randrange(20)
        add(["--field", f"padic:{p}", "qf-oracle", str(p * u), str(v)],
            expect=["solvable=false"],
            env={"MILNOR_FORGE_BOUNDS": "oracleprec=5"})
    for q, n in ((243, 3), (256, 1)):
        inv = f"[{q - 1}]" if n == 1 else "[]"
        add(["ff-kgroup", "--q", str(q), "--n", str(n)],
            expect=[f"invariants={inv}"])
    # one call of each single-shot verb: start-up, parsing and rendering
    # dominate these, which is what most CLI calls pay
    unit5 = [local_unit(rng, "padic", 5, 6) for _ in range(6)]
    add(["--field", "padic:5", "tame",
         "{%d,%d}" % (25 * unit5[0], unit5[1])])
    add(["--field", "padic:5", "reduce", "--m", "3",
         "{%d,%d}" % (unit5[2], unit5[3])])
    add(["--field", "padic:5", "lift", "--m", "2",
         "{%d,%d}" % (rng.randrange(1, 5), rng.randrange(1, 5))])
    add(["--field", "padic:2", "hilbert",
         str(rng.choice((-1, 1)) * rng.randrange(1, 200)),
         str(rng.choice((-1, 1)) * rng.randrange(1, 200))])
    ents = "{%d*t^1+%d,%d*t^2+%d}" % (rng.randrange(1, 3), rng.randrange(3),
                                      rng.randrange(1, 3), rng.randrange(1, 3))
    add(["--field", "ratfunc:3", "residues", ents])
    add(["--field", "ratfunc:3", "section", ents],
        expect=["finite_round_trip=true"])
    add(["--field", "ratfunc:3", "norm", "--pi=-1*t;0;1",
         "{%d;%d}" % (rng.randrange(3), rng.randrange(1, 3))])
    poly = "%d*t^0+%d*t^1" % (rng.randrange(1, 9), rng.randrange(1, 9))
    ratring = "(%s)/(%d*t^0+1*t^1)" % (poly, rng.randrange(1, 9))
    add(["--field", "padic:3", "s-member", poly])
    add(["--field", "padic:3", "ratring-unit", ratring])
    add(["--field", "padic:3", "ratring-residue", ratring])
    add(["--field", "padic:5", "delta-check",
         "{%d,%d}" % (unit5[4], unit5[5])], expect=["in_kernel=true"])
    return ops


def generate(workload: str, seed: int) -> list[dict]:
    """The fixed op list of one workload for one seed."""
    builders = {"local_certificates": _local_certificates,
                "function_fields": _function_fields,
                "rational_ring": _rational_ring,
                "cli_batch": _cli_batch}
    return builders[workload](random.Random(f"{workload}:{seed}"))
