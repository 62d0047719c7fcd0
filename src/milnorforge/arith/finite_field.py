"""Finite fields F_{p^f}, their elements stored as integer encodings.

A field context fixes, deterministically for every (p, f):

* the modulus: the monic irreducible of degree f over F_p whose coefficient
  encoding c0 + c1*p + ... is smallest.  Candidates are tried in order of
  encoding with factor.is_irreducible over F_p, the prime field's own
  context: Ben-Or's test, the distinct-degree walk up to degree f/2 with
  no factor split off (Ben-Or, FOCS 1981); the field keeps no polynomial
  arithmetic of its own beyond encodings,
* the generator: the primitive element with smallest encoding.

An element is its "encoding", the integer c0 + c1*p + ... of the
coefficient vector of its representing polynomial, 0 for zero.  An
FFElement is a view over one encoding, and serialize() prints it as g^e,
its discrete log.  For p^f <= TABLE_BOUND exp/log tables and a Zech
table zech[k] = log(1 + g^k) are built once, so products and sums of
encodings go through exponents: g^a + g^b = g^(a + zech[b - a]) (Huber,
"Some comments on Zech's logarithms", IEEE Trans. IT 36(4), 1990); -1 is
g^((q-1)/2) for odd p and 1 in characteristic 2.  Larger fields add
encodings digit by digit, multiply them as digit polynomials and take
baby-step/giant-step discrete logs, whose baby steps are built once per
field.  TABLE_BOUND is a cost switch only: every field up to FIELD_BOUND
gives the same results with or without tables, and no verb reads it.

FFElements, Laurent series and polynomials over the field all run on its
kernels on encodings: add_vec, neg_vec, scale_vec, mul_trunc, divmod_vec
and gcd_vec (schoolbook division and Euclid's remainders; von zur Gathen
and Gerhard, Modern Computer Algebra, ch. 2-3), eval_enc, and the scalars
inv_enc, mul_enc and pow_enc.  They use plain integer arithmetic mod p in
prime fields, the tables where they exist, and add_enc and the digit
product above TABLE_BOUND, so no sum costs a discrete log.  mul_trunc,
the first n coefficients of a product, is the one product kernel: a
Laurent product is truncated at its precision and a Poly product is the
whole one.  It is Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symb. Comput.
44, 2009) over byte slots in small prime fields and once both factors
have more than SCHOOLBOOK_LEN * f nonzero terms, schoolbook otherwise
(ch. 8 there: the classical product wins below a crossover).  No field
has more than FIELD_BOUND elements, the one residue-field bound of every
verb.  ``_extension_points`` is the one walk over F_q and its small
extensions that every specialization test consumes; ff_embedding maps
F_{p^f1} into them by g^e -> gamma^e, gamma the image of g.
"""

from __future__ import annotations

import math

from ..errors import FieldTooLarge, NotAUnit, NotPrime, SelfCheckFailed
from .factor import is_irreducible
from .poly import Poly, _power

TABLE_BOUND = 1 << 16
# Past its byte products, mul_trunc multiplies schoolbook while the
# operand with fewer nonzero terms has at most this many times f of them,
# by Kronecker substitution above: the packing grows with f, the Zech
# schoolbook does not.  Dense crossovers without byte products, truncated
# (n = len) and full alike: 2-4 terms for f = 1 (p = 2, 3, 5, 7, 65537),
# 8-10 for f = 2 (q = 4, 9, 25), 14-30 for f = 3 (q = 8, 27) and about 64
# for q = 243; a factor with k nonzero terms among 32 or 64 crosses near
# k = 8 for f = 1 and 12 for f = 2.  No c * f fits every f: c = 8 puts
# f = 3 at its crossover and costs up to 1.6 times the Kronecker product
# on dense 5-8 term products over F_p past the byte bound, and replaying
# the recorded kernel calls of local_certificates, rational_ring and
# function_fields costs the same for every c from 2 to 12, within 5 %
SCHOOLBOOK_LEN = 8
FIELD_BOUND = 1 << 20
MAX_EXTENSION_DEGREE = 3

_ctx_cache: dict[tuple[int, int], "FiniteFieldCtx"] = {}


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization, fine for n <= 2^20-ish."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _enc_digits(enc: int, p: int, f: int) -> list[int]:
    digits = []
    for _ in range(f):
        digits.append(enc % p)
        enc //= p
    return digits


def _digits_enc(digits: list[int], p: int) -> int:
    enc = 0
    for c in reversed(digits):
        enc = enc * p + c
    return enc


class FiniteFieldCtx:
    """Deterministic context for F_{p^f}; construct via ff_ctx()."""

    encoded = True  # a Poly over this field stores int encodings

    def __init__(self, p: int, f: int):
        if f < 1:
            raise ValueError("extension degree must be >= 1")
        q = p ** f
        if q > FIELD_BOUND:  # before the trial divisions, slow past it
            raise FieldTooLarge(f"p^f = {q} exceeds bound {FIELD_BOUND}")
        if factorize(p) != {p: 1}:
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.f = f
        self.q = q
        self.modulus = self._find_modulus()
        self._low_terms = [(j, m) for j, m in enumerate(self.modulus[:f]) if m]
        # X^f .. X^(2f-2) mod the modulus, as encodings: mul_trunc folds by them
        self._fold = tuple(self._reduce_enc([0] * k + [1])
                           for k in range(f, 2 * f - 1))
        # mul_trunc's byte product, prime fields only: a byte of the product
        # sums at most terms * (p-1)^2, and translate reduces it mod p
        self._byte_terms = 255 // (p - 1) ** 2 if f == 1 else 0
        self._mod_p = ((bytes(range(p)) * 128)[:256] if self._byte_terms > 1
                       else None)
        # exponent of -1: (q-1)/2 for odd p, 0 in characteristic 2
        self.half = (q - 1) // 2 if p != 2 else 0
        self.exp: list[int] | None = None
        self.log: dict[int, int] | None = None
        self.zech: list[int | None] | None = None
        self._baby: tuple[dict[int, int], int, int] | None = None
        self.generator_enc = self._find_generator()
        if self.q <= TABLE_BOUND:
            self._build_tables()

    # --- construction helpers -------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        p, f = self.p, self.f
        if f == 1:
            return (0, 1)  # the polynomial X
        prime_field = ff_ctx(p, 1)
        for low in range(1, p ** f):
            if low % p == 0:
                continue  # constant term 0: X divides
            coeffs = _enc_digits(low, p, f) + [1]
            if is_irreducible(Poly.from_ints(prime_field, coeffs)):
                return tuple(coeffs)
        raise SelfCheckFailed(f"no irreducible polynomial of degree {f} over F_{p}")

    def mul_enc(self, a: int, b: int) -> int:
        """Multiply two encodings: mod p in a prime field, through the
        exp/log tables where they exist, digit by digit above them."""
        if a == 0 or b == 0:
            return 0
        if self.f == 1:
            return a * b % self.p
        log = self.log
        if log is not None:
            return self.exp[(log[a] + log[b]) % (self.q - 1)]
        return self._mul_digits(a, b)

    def _mul_digits(self, a: int, b: int) -> int:
        """Multiply two nonzero encodings as digit polynomials mod the
        modulus: the product the tables are built from and checked by."""
        p, f = self.p, self.f
        db = [(j, d) for j, d in enumerate(_enc_digits(b, p, f)) if d]
        res = [0] * (2 * f - 1)
        for i, ai in enumerate(_enc_digits(a, p, f)):
            if ai:
                for j, bj in db:
                    res[i + j] += ai * bj
        return self._reduce_enc(res)

    def _reduce_enc(self, res: list[int]) -> int:
        """Encoding of sum res[i] X^i mod p and the modulus, for any integers
        res[i] (the list is rewritten): X^f = -(m_0 + ... + m_{f-1} X^(f-1))
        folds each X^i with i >= f down, top first, through the nonzero
        m_j only."""
        p, f = self.p, self.f
        for i in range(len(res) - 1, f - 1, -1):
            c = res[i] % p
            if c:
                for j, m in self._low_terms:
                    res[i - f + j] -= c * m
        enc = 0
        for i in range(min(len(res), f) - 1, -1, -1):
            enc = enc * p + res[i] % p
        return enc

    def mul_trunc(self, a, b, n: int) -> list[int]:
        """The first n coefficients of (sum a_i t^i)(sum b_j t^j), for lists
        of encodings a and b, as a list of n encodings: the package's one
        product kernel (a Poly product is the case n = len a + len b - 1).

        Both operands are cut to n terms.  In a prime field, when the one
        with fewer nonzero terms has m >= 2 of them and m (p-1)^2 < 256,
        each operand's bytes are its packing: every byte of the product
        sums at most m digit products, so one integer product gives the
        coefficients byte by byte, reduced mod p.  Otherwise, while the
        sparser one has at most SCHOOLBOOK_LEN * f nonzero terms, the product
        is schoolbook, truncated at n and running over that factor's
        nonzero terms only, so a one-term factor costs O(n): on integers
        mod p in a prime field, on discrete logs with Zech sums in a tabled
        extension field.  (Counting nonzero terms, not length, matters for
        a Laurent series, whose tuple is padded with zeros to prec.)
        Otherwise, and in every extension field past the tables, it is
        _mul_kronecker's packed product.
        """
        a, b = a[:n], b[:n]
        terms_a, terms = len(a) - a.count(0), len(b) - b.count(0)
        if terms_a < terms:
            a, b, terms = b, a, terms_a
        f = self.f
        if 1 < terms <= self._byte_terms:  # one byte per t-degree
            prod = (int.from_bytes(bytes(a), "little")
                    * int.from_bytes(bytes(b), "little"))
            return list(prod.to_bytes(max(n, len(a) + len(b)), "little")[:n]
                        .translate(self._mod_p))
        if terms > SCHOOLBOOK_LEN * f:
            return self._mul_kronecker(a, b, n)
        if f == 1:
            p = self.p
            out = [0] * n
            for j, y in enumerate(b):
                if y:
                    for i, x in enumerate(a[:n - j], j):
                        out[i] += x * y
            return [c % p for c in out]
        log = self.log
        if log is None:
            return self._mul_kronecker(a, b, n)
        # sums of logs, accumulated in log form by Zech: None is zero
        exp, zech, m = self.exp, self.zech, self.q - 1
        la = [log[x] if x else None for x in a]
        acc = [None] * n
        for j, y in enumerate(b):
            if not y:
                continue
            ly = log[y]
            for i, x in enumerate(la[:n - j], j):
                if x is not None:
                    c = acc[i]
                    if c is None:
                        acc[i] = x + ly
                    else:
                        z = zech[(x + ly - c) % m]
                        acc[i] = None if z is None else c + z
        return [0 if c is None else exp[c % m] for c in acc]

    def _mul_kronecker(self, a, b, n: int) -> list[int]:
        """mul_trunc by Kronecker substitution, for operands cut to n terms.

        Each coefficient of t^i is written as its F_p digit vector
        d_0 + d_1 X + ... + d_{f-1} X^(f-1), digits in [0, p).  Digit k goes
        into the w-bit slot i*(2f-1) + k of one integer, so a t-degree takes
        2f-1 slots: room for the X-degrees 0..2f-2 of a digit product.  One
        integer product then leaves in slot m*(2f-1) + s the sum of
        d_k(a_i) d_l(b_j) over i + j = m and k + l = s, as long as no slot
        overflows into the next.  Only i, j < n matter and the operands
        have at most n terms, so at most min(len a, len b) pairs (i, j)
        and at most f pairs (k, l) meet in a slot, each at most (p-1)^2, so
        a slot holds at most V = min(len a, len b) * f * (p-1)^2.

        For f > 1 the X-degrees f..2f-2 are folded down on the whole product
        at once: slot k of every t-degree is masked out, shifted to slot 0
        and multiplied by the packed digits of X^k mod the modulus, so
        slot s < f ends up holding the unreduced digit s of each product
        coefficient.  That adds at most (f-1)(p-1) times V to a slot, and w
        is the bit length of V * (1 + (f-1)(p-1)).  Only the f low slots of
        each t-degree below n are then read and reduced mod p.
        """
        p, f = self.p, self.f
        bound = min(len(a), len(b)) * f * (p - 1) ** 2
        w = (bound * (1 + (f - 1) * (p - 1))).bit_length()
        slots = 2 * f - 1
        prod = self._pack(a, w, slots) * self._pack(b, w, slots)
        mask = (1 << w) - 1
        if f == 1:  # one slot per t-degree and no X-power to fold
            return [(prod >> i * w & mask) % p for i in range(n)]
        step = slots * w
        lowest = ((1 << n * step) - 1) // ((1 << step) - 1)  # bit 0 of t^0..t^(n-1)
        low = prod & lowest * ((1 << f * w) - 1)
        high = prod >> f * w
        for k, r in enumerate(self._fold):
            low += (high >> k * w & lowest * mask) * self._pack((r,), w, slots)
        # Horner in p over the digit slots f-1 .. 0 of every t-degree
        out = [(low >> s & mask) % p for s in range((f - 1) * w, n * step, step)]
        for j in range(f - 2, -1, -1):
            out = [e * p + (low >> s & mask) % p
                   for e, s in zip(out, range(j * w, n * step, step))]
        return out

    def _pack(self, xs, w: int, slots: int) -> int:
        """sum over i, k of digit k of encoding xs[i] at bit (i*slots + k)*w."""
        p, step = self.p, slots * w
        acc = 0
        for enc in reversed(xs):
            acc <<= step
            shift = 0
            while enc >= p:
                enc, d = divmod(enc, p)
                acc |= d << shift
                shift += w
            acc |= enc << shift
        return acc

    def add_vec(self, a, b) -> list[int]:
        """Coefficientwise sums of two encoding lists, as long as the
        shorter one."""
        p = self.p
        if self.f == 1:
            return [(x + y) % p for x, y in zip(a, b)]
        log = self.log
        if log is None:
            return [self.add_enc(x, y) for x, y in zip(a, b)]
        exp, zech, n = self.exp, self.zech, self.q - 1
        out = []
        for x, y in zip(a, b):
            if x and y:  # g^a + g^b = g^(a + zech[b - a])
                lx = log[x]
                z = zech[log[y] - lx]
                out.append(0 if z is None else exp[(lx + z) % n])
            else:
                out.append(x or y)
        return out

    def neg_vec(self, a) -> list[int]:
        """Coefficientwise negatives of an encoding list: times the
        encoding p - 1 of -1."""
        return self.scale_vec(a, self.p - 1)

    def inv_enc(self, a: int) -> int:
        """Inverse of a nonzero encoding: a^(q-2)."""
        if self.f == 1:
            return pow(a, -1, self.p)
        return self.pow_enc(a, self.q - 2)

    def add_enc(self, a: int, b: int) -> int:
        p, f = self.p, self.f
        da = _enc_digits(a, p, f)
        db = _enc_digits(b, p, f)
        return _digits_enc([(x + y) % p for x, y in zip(da, db)], p)

    def pow_enc(self, a: int, k: int) -> int:
        if a and self.log is not None:
            return self.exp[self.log[a] * k % (self.q - 1)]
        return _power(a, k, lambda: 1, self.mul_enc)

    # --- Poly kernels: encoding lists, lowest degree first ----------------

    def scale_vec(self, a, c: int) -> list[int]:
        """Every encoding of a times the encoding c."""
        if not c:
            return [0] * len(a)
        if self.f == 1:
            p = self.p
            return [x * c % p for x in a]
        log = self.log
        if log is None:
            return [self.mul_enc(x, c) for x in a]
        exp, n, lc = self.exp, self.q - 1, log[c]
        return [exp[(log[x] + lc) % n] if x else 0 for x in a]

    def divmod_vec(self, a, b) -> tuple[list[int], list[int]]:
        """(quotient, remainder) of schoolbook division of a by b, for
        len(a) >= len(b) and b[-1] != 0; the remainder has len(b) - 1
        entries, trailing zeros included."""
        db = len(b) - 1
        rem = list(a)
        quot = [0] * (len(a) - db)
        inv = self.inv_enc(b[-1])
        if self.f == 1:  # lazy: only the leading remainder is reduced
            p = self.p
            low = b[:db]
            for i in range(len(quot) - 1, -1, -1):
                c = rem[i + db] * inv % p
                if c:
                    quot[i] = c
                    for j, y in enumerate(low, i):
                        rem[j] -= c * y
            return quot, [x % p for x in rem[:db]]
        neg_low = self.neg_vec(b[:db])
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + db]
            if c:
                c = quot[i] = self.mul_enc(c, inv)
                rem[i:i + db] = self.add_vec(rem[i:i + db],
                                             self.scale_vec(neg_low, c))
        return quot, rem[:db]

    def gcd_vec(self, a, b) -> list[int]:
        """The monic gcd of two coefficient lists without trailing zeros
        (empty for zero), by Euclid's remainders."""
        while b:
            if len(a) >= len(b):
                a = self.divmod_vec(a, b)[1]
                while a and not a[-1]:
                    a.pop()
            a, b = b, a
        return self.scale_vec(a, self.inv_enc(a[-1])) if a else []

    def eval_enc(self, a, x: int) -> int:
        """Horner's value at the encoding x of the coefficient list a."""
        acc = 0
        if self.f == 1:
            p = self.p
            for c in reversed(a):
                acc = (acc * x + c) % p
            return acc
        for c in reversed(a):
            acc = self.add_enc(self.mul_enc(acc, x), c)
        return acc

    def _order_is_full(self, enc: int, factors: dict[int, int]) -> bool:
        n = self.q - 1
        for ell in factors:
            if self.pow_enc(enc, n // ell) == 1:
                return False
        return True

    def _find_generator(self) -> int:
        factors = factorize(self.q - 1)
        for enc in range(1, self.q):
            if self._order_is_full(enc, factors):
                return enc
        raise SelfCheckFailed(f"no generator of F_{self.q}^x found")

    def _build_tables(self) -> None:
        n = self.q - 1
        exp = [1] * n
        g = self.generator_enc
        cur = 1
        for e in range(n):
            exp[e] = cur
            cur = self._mul_digits(cur, g)
        self.exp = exp
        log = self.log = {enc: e for e, enc in enumerate(exp)}
        # 1 + x changes only digit 0 of x's encoding; log.get(0) is None
        p = self.p
        self.zech = [log.get(enc - enc % p + (enc + 1) % p) for enc in exp]
        self._check_tables()

    def _check_tables(self) -> None:
        """Raise SelfCheckFailed unless exp/log/zech describe a cyclic group
        of order q-1 in which 1 + g^k = 0 exactly for g^k = -1."""
        n = self.q - 1
        if self._mul_digits(self.exp[-1], self.generator_enc) != 1:
            raise SelfCheckFailed("generator order mismatch")
        if len(self.log) != n:
            raise SelfCheckFailed("exp table repeats an element")
        zech = self.zech
        if len(zech) != n or zech.count(None) != 1 or zech[self.half] is not None:
            raise SelfCheckFailed("Zech table has 1 + g^k = 0 away from g^k = -1")

    # --- discrete logs ---------------------------------------------------

    def dlog_enc(self, enc: int) -> int:
        """Discrete log of a nonzero encoding."""
        if self.log is not None:
            return self.log[enc]
        # baby-step/giant-step; the baby steps g^j, j < m, and the giant
        # factor g^-m are built on the first call and kept
        n = self.q - 1
        if self._baby is None:
            m = math.isqrt(n) + 1
            baby = {}
            cur = 1
            for j in range(m):
                baby.setdefault(cur, j)
                cur = self.mul_enc(cur, self.generator_enc)
            self._baby = baby, m, self.pow_enc(self.generator_enc, n - (m % n))
        baby, m, gm_inv = self._baby
        cur = enc
        for i in range(m + 1):
            if cur in baby:
                return (i * m + baby[cur]) % n
            cur = self.mul_enc(cur, gm_inv)
        raise SelfCheckFailed(f"no discrete log of {enc} in F_{self.q}^x")

    # --- element factories ----------------------------------------------

    def zero(self) -> "FFElement":
        return FFElement(self, 0)

    def one(self) -> "FFElement":
        return FFElement(self, 1)

    def gen(self) -> "FFElement":
        return FFElement(self, self.generator_enc)

    def minus_one(self) -> "FFElement":
        return FFElement(self, self.p - 1)  # digit 0 is p - 1, the rest 0

    def from_enc(self, enc: int) -> "FFElement":
        return FFElement(self, enc)

    def from_int(self, n: int) -> "FFElement":
        """Embed an integer via the prime subfield."""
        return FFElement(self, n % self.p)

    def from_exp(self, e: int) -> "FFElement":
        """g^e, for any integer e."""
        e %= self.q - 1
        return FFElement(self, self.pow_enc(self.generator_enc, e))

    def elements(self):
        """Zero, then g^0, g^1, ..., g^(q-2)."""
        yield self.zero()
        cur = 1
        for _ in range(self.q - 1):
            yield FFElement(self, cur)
            cur = self.mul_enc(cur, self.generator_enc)

    def random_nonzero(self, rng) -> "FFElement":
        return self.from_exp(rng.randrange(self.q - 1))

    def random_element(self, rng) -> "FFElement":
        k = rng.randrange(self.q)
        return self.zero() if k == 0 else self.from_exp(k - 1)

    # --- misc -------------------------------------------------------------

    def __repr__(self):
        return f"FiniteFieldCtx(p={self.p}, f={self.f})"

    def __eq__(self, other):
        return isinstance(other, FiniteFieldCtx) and (self.p, self.f) == (other.p, other.f)

    def __hash__(self):
        return hash(("ffctx", self.p, self.f))


def ff_ctx(p: int, f: int = 1) -> FiniteFieldCtx:
    # one context per (p, f): LocalFieldCtx compares residue fields by identity
    key = (p, f)
    ctx = _ctx_cache.get(key)
    if ctx is None:
        ctx = _ctx_cache[key] = FiniteFieldCtx(p, f)
    return ctx


def ff_ctx_q(q: int) -> FiniteFieldCtx:
    """Context from a prime power q."""
    if q > FIELD_BOUND:  # the message FiniteFieldCtx gives for a prime power
        raise FieldTooLarge(f"p^f = {q} exceeds bound {FIELD_BOUND}")
    fac = factorize(q)
    if len(fac) != 1:
        raise NotPrime(f"{q} is not a prime power")
    ((p, f),) = fac.items()
    return ff_ctx(p, f)


_embed_cache: dict[tuple, object] = {}


def ff_embedding(small: FiniteFieldCtx, big: FiniteFieldCtx):
    """A field embedding F_{p^f1} -> F_{p^f2} (f1 | f2), as a function.

    Picks a root h of the small modulus in the big field (h = 1 when f1 = 1,
    whose generator is a constant) and evaluates the small generator's
    encoding polynomial at h: that is its image gamma, and a field map is
    fixed by it, so g^e -> gamma^e is the map X -> h on every element.
    """
    if small.p != big.p or big.f % small.f:
        raise ValueError("no embedding between these fields")
    key = (small.p, small.f, big.f)
    fn = _embed_cache.get(key)
    if fn is not None:
        return fn
    if small.f == 1:
        h = big.one()
    else:
        # roots of the small modulus live in the order-(q1-1) subgroup
        step = (big.q - 1) // (small.q - 1)
        modulus = Poly.from_ints(big, small.modulus)
        for i in range(small.q - 1):
            h = big.from_exp(step * i)
            if modulus.eval(h).is_zero():
                break
        else:
            raise SelfCheckFailed("modulus has no root in the big field")
    gamma = Poly.from_ints(
        big, _enc_digits(small.generator_enc, small.p, small.f)).eval(h)

    def fn(x):
        return big.zero() if x.is_zero() else gamma ** x.dlog()
    _embed_cache[key] = fn
    return fn


def _extension_points(k: FiniteFieldCtx):
    """Lazily, (F_{q^j}, the embedding of k = F_q, c) for j = 1, ...,
    MAX_EXTENSION_DEGREE and each c of F_{q^j} in no smaller F_{q^i}, i | j:
    zero first, then in exponent order.  Each point comes once."""
    for j in range(1, MAX_EXTENSION_DEGREE + 1):
        big = ff_ctx(k.p, k.f * j)
        emb = ff_embedding(k, big)
        subfield_qs = [k.q ** i for i in range(1, j) if j % i == 0]
        for c in big.elements():
            if not any(c ** s == c for s in subfield_qs):
                yield big, emb, c


class FFElement:
    """Element of F_{p^f}, a view over its encoding (0 for zero); each
    operation is one call to the field's encoding kernels."""

    __slots__ = ("ctx", "enc")

    def __init__(self, ctx: FiniteFieldCtx, enc: int):
        self.ctx = ctx
        self.enc = enc

    # predicates
    def is_zero(self) -> bool:
        return not self.enc

    def is_one(self) -> bool:
        return self.enc == 1

    # arithmetic
    def __add__(self, other: "FFElement") -> "FFElement":
        (enc,) = self.ctx.add_vec((self.enc,), (other.enc,))
        return FFElement(self.ctx, enc)

    def __sub__(self, other: "FFElement") -> "FFElement":
        ctx = self.ctx
        (enc,) = ctx.add_vec((self.enc,), ctx.neg_vec((other.enc,)))
        return FFElement(ctx, enc)

    def __neg__(self) -> "FFElement":
        return FFElement(self.ctx, self.ctx.neg_vec((self.enc,))[0])

    def __mul__(self, other: "FFElement") -> "FFElement":
        return FFElement(self.ctx, self.ctx.mul_enc(self.enc, other.enc))

    def __truediv__(self, other: "FFElement") -> "FFElement":
        return self * other.inverse()

    def inverse(self) -> "FFElement":
        if not self.enc:
            raise NotAUnit("zero has no inverse")
        return FFElement(self.ctx, self.ctx.inv_enc(self.enc))

    def __pow__(self, k: int) -> "FFElement":
        if k < 0:
            return self.inverse() ** -k
        return FFElement(self.ctx, self.ctx.pow_enc(self.enc, k))

    def dlog(self) -> int:
        """The e in [0, q-2] with generator^e = self."""
        if not self.enc:
            raise NotAUnit("zero has no discrete logarithm")
        return self.ctx.dlog_enc(self.enc)

    # identity / hashing
    def __eq__(self, other):
        return (
            isinstance(other, FFElement)
            and self.enc == other.enc
            and self.ctx == other.ctx
        )

    def __hash__(self):
        return hash(("ff", self.ctx.p, self.ctx.f, self.enc))

    def serialize(self) -> str:
        ctx = self.ctx
        if not self.enc:
            return f"ff({ctx.p},{ctx.f}):0"
        return f"ff({ctx.p},{ctx.f}):g^{self.dlog()}"

    def __repr__(self):
        return self.serialize()

    def as_int(self) -> int:
        """Integer value, only meaningful for prime fields (f = 1)."""
        if self.ctx.f != 1:
            raise ValueError("as_int only for prime fields")
        return self.enc
