"""Number-theoretic layer: prime searches, residue symbols, local squares,
decomposition subgroups of biquadratic fields, and counterexample
certificates.

The certified object is the augmentation ideal I of (Z/ell^(n+1))[G] for
G = Z/ell^n x Z/ell, realized as the Galois group of L/k with
k = Q(zeta_{ell^n}) and L = k(p^(1/ell^n), q^(1/ell)).  `certify` checks
the hypotheses on (ell, n, p, q), the cohomology of I and the Sha kernels;
the places come from one of two place models:

- `_biquadratic_model`, for ell = 2, n = 1 (k = Q, L = Q(sqrt p, sqrt q)):
  every decomposition subgroup is read exactly from one table per place,
  which of a, b and ab are squares in Q_v (the witness row's
  `square_classes`), and it holds the rule Sigma_0 = the places whose
  decomposition subgroup is all of Z/2 x Z/2, which `sigma0_biquadratic`
  and the `sigma0` command read from it.  A place is checked once, where it
  enters: by `local_square` or `decomposition_subgroup`, or as a prime by
  construction in the scan; `_local_square_rule` trusts it;
- `_kummer_model`, for every other (ell, n): it records the modular facts
  the construction reduces to, with the witnesses of the hypotheses (the
  Euler power of q mod p and the one Hensel lift of q's ell-th root), and
  keeps the undetermined parts of Sigma_0 explicitly labeled as such.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from typing import NamedTuple

from .cohomology import (PlaceRecord, _is_place, dimension_shift_check, sha_sigma,
                         verify_augmentation_lemma)
from .finite_groups import (
    DEFAULT_ORDER_LIMIT,
    Subgroup,
    full_subgroup,
    product_of_prime_powers,
    subgroup_generated,
)
from .g_modules import _ideal_module
# primality and factoring live in the leaf module `primes`, which the
# elimination layer shares; the names stay importable from here
from .primes import _UINT64_MAX, _brent_rho, _int, factorize, is_prime
from .zmod_linalg import AbGroupStructure


class SearchBoundError(RuntimeError):
    """A prime search exhausted its configured bound.

    Dirichlet guarantees the target exists, so this signals a bound chosen
    too small, not nonexistence.
    """


def is_squarefree(n):
    n = abs(_int(n, "n"))
    if n == 0:
        return False
    return all(e == 1 for e in factorize(n).values())


def legendre(a, p):
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a = _int(a, "a") % p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def kronecker(a, n):
    """Kronecker symbol (a/n), the full extension of Jacobi/Legendre."""
    a, n = _int(a, "a"), _int(n, "n")
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def find_p(ell, n, start=2, bound=_UINT64_MAX):
    """Least prime p >= start with p == 1 (mod ell^n), stepping the progression."""
    ell, n, start = _int(ell, "ell"), _int(n, "n"), _int(start, "start")
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    if n < 1:
        raise ValueError("n must be >= 1")
    step = ell ** n
    c = start + ((1 - start) % step)
    while c <= bound:
        if c > 1 and is_prime(c):
            return c
        c += step
    raise SearchBoundError(f"no prime p == 1 (mod {step}) with {start} <= p <= {bound}")


def _q_exponent(ell):
    """The exponent e of the companion congruence q == 1 (mod ell^e): 3 for
    ell = 2 (q == 1 mod 8), 2 otherwise; it is also the least Hensel precision."""
    return 3 if ell == 2 else 2


def find_q(ell, p, bound=2 ** 32):
    """Least odd prime q with the companion congruence that is not an
    ell-th power mod p: q^((p-1)/ell) != 1, the Euler power `certify` records.

    The congruence is q == 1 (mod 8) for ell = 2 and q == 1 (mod ell^2)
    otherwise; it makes q an ell-th power in Q_ell, so the places over ell
    keep cyclic decomposition groups.
    """
    ell, p = _int(ell, "ell"), _int(p, "p")
    if not is_prime(ell) or not is_prime(p):
        raise ValueError("ell and p must be prime")
    if (p - 1) % ell:
        raise ValueError(f"need p == 1 (mod {ell}) for the residue criterion")
    step = ell ** _q_exponent(ell)
    q = 1 + step
    while q <= bound:
        if q != p and is_prime(q) and pow(q, (p - 1) // ell, p) != 1:
            return q
        q += step
    raise SearchBoundError(f"no admissible q <= {bound} for (ell, p) = ({ell}, {p})")


class LocalSquareClass(NamedTuple):
    """Whether a squarefree integer is a square in Q_place.

    Rules: at an odd prime p, square iff p does not divide d and d is a
    quadratic residue mod p; at 2, square iff d == 1 (mod 8) (a squarefree
    even d has 2-adic valuation 1 and is never a square); at "inf", square
    iff d > 0.
    """

    place: object
    value: int
    is_square: bool


def local_square(d, place):
    d = _int(d, "d")
    if d == 0 or not is_squarefree(d):
        raise ValueError(f"{d} is not a nonzero squarefree integer")
    return LocalSquareClass(place, d, _local_square_rule(d, _checked_place(place)))


def _checked_place(place):
    """`place` if `cohomology._is_place` holds for it, else a ValueError."""
    if not _is_place(place):
        raise ValueError(f"place {place!r} is neither a prime nor 'inf'")
    return place


def _local_square_rule(d, place):
    """Whether the squarefree d (not factored, so ab may pass 2**64) is a square
    in Q_place, by LocalSquareClass's rules; the caller has checked the place."""
    if place == "inf":
        return d > 0
    if place == 2:
        return d % 8 == 1
    return pow(d, (place - 1) // 2, place) == 1


class _KummerPair(NamedTuple):
    a: int
    b: int


class KummerPair(_KummerPair):
    """Independent square classes a, b defining Q(sqrt a, sqrt b)/Q.

    Both must be squarefree, neither 1 (a perfect square), and a != b so the
    classes in Q*/Q*^2 are independent and the Galois group is Z/2 x Z/2.
    Every construction validates, `_replace` and `_make` included.
    """

    __slots__ = ()

    def __new__(cls, a, b):
        a, b = _int(a, "a"), _int(b, "b")
        for name, value in (("a", a), ("b", b)):
            if value == 0 or not is_squarefree(value):
                raise ValueError(f"{name} = {value} is not a nonzero squarefree integer")
            if value == 1:
                raise ValueError(f"{name} = 1 is a perfect square")
        if a == b:
            raise ValueError("a and b must define independent square classes (a != b)")
        return super().__new__(cls, a, b)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def third_class(self):
        """The squarefree representative of the class of a*b."""
        g = gcd(abs(self.a), abs(self.b))
        return (self.a // g) * (self.b // g)

    def ramified_primes(self):
        """The primes that ramify in Q(sqrt a, sqrt b)/Q, in increasing order."""
        odd = sorted((factorize(self.a).keys() | factorize(self.b).keys()) - {2})
        two_ramified = any(
            d % 2 == 0 or d % 4 == 3 for d in (self.a, self.b, self.third_class)
        )
        return ([2] if two_ramified else []) + odd


def decomposition_subgroup(pair, place):
    """Decomposition subgroup at a place of Q, inside Z/2 x Z/2.

    Its parent is `product_of_prime_powers(2, 1)`, one group per process
    for every pair and place.  The place is checked here once, and the
    subgroup is read from the place's square-class table.
    """
    return _place_decomposition(pair, _checked_place(place))[1]


def _place_decomposition(pair, place):
    """The table {d: d is a square in Q_place} for d = a, b, ab (squarefree,
    not factored again), and the decomposition subgroup read from it: 2i + j
    moves sqrt a if i, sqrt b if j and sqrt ab if i != j, and lies in it iff
    it fixes each local square, so the order is 4 / #(squares in {1, a, b, ab})."""
    table = {d: _local_square_rule(d, place) for d in (pair.a, pair.b, pair.third_class)}
    sa, sb, sab = table.values()
    return table, Subgroup(product_of_prime_powers(2, 1),
                           [2 * i + j for i in range(2) for j in range(2)
                            if not (sa and i or sb and j or sab and i != j)])


def biquadratic_place_records(pair):
    """PlaceRecords at 2 and at every prime dividing a*b, with witnesses.

    The record list contains every place that ramifies in Q(sqrt a, sqrt b)/Q
    (the place 2 is recorded even when unramified, for its witness table).
    Each decomposition subgroup's parent is `product_of_prime_powers(2, 1)`,
    the group `certify(2, 1, p)` builds.
    Returns (records, witness_rows).
    """
    ramified = set(pair.ramified_primes())
    records, rows = [], []
    for v in sorted({2} | ramified):
        table, sub = _place_decomposition(pair, v)
        records.append(PlaceRecord(v, sub, v in ramified))
        rows.append(_place_row(records[-1], square_classes=table))
    return records, rows


def _place_row(rec, **square_classes):
    """A place model's witness row for `rec`; the biquadratic model adds its table."""
    sub = rec.subgroup
    return {"place": rec.label, "ramified": rec.ramified, **square_classes,
            "decomposition_order": sub.order, "cyclic": sub.is_cyclic(),
            "elements": [sub.parent.names[x] for x in sub.elements]}


def sigma0_biquadratic(pair):
    """Places of Q with non-cyclic decomposition group in Q(sqrt a, sqrt b).

    Only ramified places can have the full Klein group locally, so the scan
    covers 2 and the prime divisors of a*b; the archimedean place never
    qualifies (complex conjugation generates a cyclic local group).
    """
    return _biquadratic_model(pair.a, pair.b)[2]


# The precision exponent of the witness root that `certify` records: any
# precision from `_q_exponent(ell)` up proves the same fact, that q is an
# ell-th power in Q_ell; it changes only the digits of the root.
_HENSEL_PRECISION = 8


def _hensel_precision(ell, precision):
    """The precision exponent `ellth_root_in_zell` works to: at least
    `_q_exponent(ell)`, where the congruence on q starts."""
    return max(_int(precision, "Hensel precision"), _q_exponent(ell))


def ellth_root_in_zell(q, ell, precision=_HENSEL_PRECISION):
    """A witness x with x^ell == q (mod ell^precision), or None.

    Exists whenever q == 1 (mod 8) for ell = 2, or q == 1 (mod ell^2) for odd
    ell: such units are ell-th powers in Z_ell (digit-by-digit Hensel lift).
    """
    q, ell = _int(q, "q"), _int(ell, "ell")
    precision = _hensel_precision(ell, precision)
    if q % ell ** _q_exponent(ell) != 1:
        return None
    x = 1
    for j in range(2, precision):
        # lift x^ell == q (mod ell^j) to mod ell^(j+1) by the least digit c
        # of x + c ell^(j-1); for ell = 2 (x odd, j >= 3), c = 1 exactly when
        # x^2 != q mod 2^(j+1), as (x + 2^(j-1))^2 == x^2 + 2^j there
        target = ell ** (j + 1)
        step = ell ** (j - 1)
        for c in range(ell):
            if (pow(x + c * step, ell, target) - q) % target == 0:
                x += c * step
                break
        else:
            return None
    mod = ell ** precision
    if (pow(x, ell, mod) - q) % mod:
        raise AssertionError("Hensel lift produced a bad witness")
    return x % mod


class CertCheck(NamedTuple):
    """One verified proof obligation with its witness data."""

    name: str
    statement: str
    witness: object
    passed: bool


class Certificate:
    """Machine-checkable verdict for one (ell, n, p, q) counterexample.

    The conclusion is "certified" only if every check passed, the kernel for
    Sigma_0 differs from the full kernel, and removing any designated place
    collapses the kernel back to the full one.  A plain mutable class that
    `certify` fills in.
    """

    group_order = group_exponent = module_rank = 0
    module_modulus = module_order_exponent = 0
    sigma0_exact = False
    sigma0_statement = conclusion = conclusion_detail = ""
    sha_cyc = sha_sigma0 = sha_full = None  # AbGroupStructures once computed

    def __init__(self, ell, n, p, q, field_desc):
        self.ell, self.n, self.p, self.q, self.field_desc = ell, n, p, q, field_desc
        self.checks = []
        self.sigma0_labels = []
        self.places = []
        self.sha_sigma0_minus = {}
        self.designated_places = []

    @property
    def certified(self):
        return self.conclusion == "certified"

    def report(self):
        """The certificate as native report values, in canonical key order;
        `_canonical_json` writes its bytes."""
        return {
            "parameters": {"ell": self.ell, "n": self.n, "p": self.p, "q": self.q},
            "field": self.field_desc,
            "group": {"description": f"Z/{self.ell}^{self.n} x Z/{self.ell}",
                      "order": self.group_order, "exponent": self.group_exponent},
            "module": {
                "description": f"augmentation ideal of (Z/{self.module_modulus})[G]",
                "modulus": self.module_modulus, "rank": self.module_rank,
                "order_exponent": self.module_order_exponent,
            },
            "checks": [
                {"name": c.name, "statement": c.statement, "witness": c.witness,
                 "pass": c.passed}
                for c in self.checks
            ],
            "sigma0": {"labels": self.sigma0_labels, "exact": self.sigma0_exact,
                       "statement": self.sigma0_statement},
            "places": self.places,
            "sha": {"cyc": self.sha_cyc, "sigma0": self.sha_sigma0,
                    "sigma0_minus": self.sha_sigma0_minus, "full": self.sha_full},
            "designated_places": self.designated_places,
            "conclusion": self.conclusion,
            "conclusion_detail": self.conclusion_detail,
        }

    def to_json_dict(self):
        """The canonical JSON form as a dict: `json.loads` of the bytes that
        `_canonical_json` writes for `report()`, so the two cannot differ.

        The CLI prints the text and never calls this.  It stays for the
        readers that want the certificate as plain JSON values in process:
        the benchmark's correctness check of each certificate
        (`perfbench/child.py`), demo 05 and the tests.  Parsing the text is
        slower than walking the report, but none of them is timed on it."""
        return json.loads(_canonical_json(self.report()))


def _canonical_json(value, newline="\n"):
    """The canonical JSON text of a report value, written here alone, in one
    pass: `json.dumps(..., indent=2)`'s layout and string escapes, with
    every integer a decimal string (64-bit consumers never overflow), an
    AbGroupStructure its invariant factors, a tuple a list and a dict key
    `str(key)`; bools, None and strings are JSON's own.  Any other value, a
    record included, is a bug in the report: an AssertionError.  `newline`
    is the line break and indent that precede `value`'s closing bracket."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int):
        if isinstance(value, bool):
            return "true" if value else "false"
        return _quote(str(value))
    if value is None:
        return "null"
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # keys that name one string (1 and "1") keep the first's place and the last's value
        items = {str(k): v for k, v in value.items()}.items()
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _canonical_json(v, inner) for k, v in items]) + newline + "}"
    if isinstance(value, AbGroupStructure):
        value = [str(d) for d in value.invariant_factors]
    # exact types: a record is a tuple too, but has no canonical form as a list
    elif type(value) not in (list, tuple):
        raise AssertionError(f"no canonical JSON form for {type(value).__name__}")
    if not value:
        return "[]"
    return "[" + inner + ("," + inner).join(
        [_canonical_json(v, inner) for v in value]) + newline + "]"


def certify(ell, n, p, q=None, *, search_bound=2 ** 32, group_limit=DEFAULT_ORDER_LIMIT):
    """Build and verify the counterexample certificate for (ell, n, p[, q]).

    Checks the prime-search hypotheses, the cohomology of the augmentation
    ideal over Z/ell^(n+1), and the place model of (ell, n):
    `_biquadratic_model` for (2, 1), `_kummer_model` otherwise.  See the
    Certificate docstring for the conclusion rule.  A failed hypothesis
    yields conclusion "refuted: <check>"; an exhausted q-search raises
    SearchBoundError, and a parameter that breaks the integer rule of
    `primes._int` raises ValueError.  The local witness root of q is lifted
    to the precision ell^8 (`_HENSEL_PRECISION`).
    """
    ell, n, p = _int(ell, "ell"), _int(n, "n"), _int(p, "p")
    q = q if q is None else _int(q, "q")
    # k = Q(zeta_(ell^n)), which is Q for ell^n = 2
    cert = Certificate(ell=ell, n=n, p=p, q=q,
                       field_desc="Q" if ell ** n == 2 else f"Q(zeta_{ell ** n})")
    checks = cert.checks

    def add(name, statement, witness, ok):
        checks.append(CertCheck(name, statement, witness, bool(ok)))
        return bool(ok)

    def refute():
        failed = next(c.name for c in checks if not c.passed)
        cert.conclusion = f"refuted: {failed}"
        cert.conclusion_detail = f"hypothesis check {failed!r} failed; no counterexample is certified"
        return cert

    # is_prime raises on a value above 2**64 rather than guess; a negative
    # value is not prime
    ok = add("ell_prime", f"ell = {ell} is prime", {"ell": ell}, ell >= 0 and is_prime(ell))
    ok &= add("n_positive", f"n = {n} >= 1", {"n": n}, n >= 1)
    ok &= add("p_prime", f"p = {p} is prime", {"p": p}, p >= 0 and is_prime(p))
    if not ok:
        return refute()
    pmod = ell ** n
    if not add("p_congruence", f"p == 1 (mod {ell}^{n} = {pmod})",
               {"p_mod": p % pmod}, p % pmod == 1):
        return refute()

    if q is None:
        q = cert.q = find_q(ell, p, bound=search_bound)

    ok = add("q_prime", f"q = {q} is prime", {"q": q}, q >= 0 and is_prime(q))
    ok &= add("q_odd", f"q = {q} is odd", {"q": q}, q % 2 == 1)
    ok &= add("q_distinct_from_p", f"q = {q} differs from p = {p}", {"p": p, "q": q}, q != p)
    qmod = ell ** _q_exponent(ell)
    ok &= add("q_congruence", f"q == 1 (mod {qmod})", {"q_mod": q % qmod}, q % qmod == 1)
    if ok:
        euler = pow(q, (p - 1) // ell, p)
        ok &= add(
            "q_not_ellth_power_mod_p",
            f"q^((p-1)/{ell}) != 1 (mod p), so q is not an {ell}-th power mod p",
            {"euler_power": euler}, euler != 1,
        )
        root = ellth_root_in_zell(q, ell, _HENSEL_PRECISION)
        local_stmt = (
            f"q == 1 (mod 8) makes q a square in Q_2"
            if ell == 2
            else f"q == 1 (mod {ell}^2) makes q an {ell}-th power in Q_{ell}"
        )
        witness = {"root": root, "precision_exponent": _HENSEL_PRECISION}
        ok &= add(
            "q_ellth_power_locally_at_ell",
            local_stmt + f"; witness root to precision {ell}^{_HENSEL_PRECISION}",
            witness, _ellth_power_locally_holds(ell, q, witness),
        )
    if not ok:
        return refute()

    group = product_of_prime_powers(ell, n, limit=group_limit)
    modulus = ell ** (n + 1)
    ideal = _ideal_module(group, modulus)
    cert.group_order = group.order
    cert.group_exponent = group.exponent()
    cert.module_rank = ideal.rank
    cert.module_modulus = modulus
    a_exp = (n + 1) * (ell ** (n + 1) - 1)
    cert.module_order_exponent = a_exp
    add("module_order",
        f"|I| = {modulus}^{ideal.rank} = {ell}^a with a = (n+1)({ell}^{n + 1}-1) = {a_exp}",
        {"rank": ideal.rank, "modulus": modulus, "order_exponent": a_exp},
        ideal.size == ell ** a_exp)

    lemma = verify_augmentation_lemma(group)
    cert.sha_cyc = lemma.computed
    add("sha_cyc_value",
        f"Sha^1_cyc(G, I) = Z/{ell} (the f = n/e invariant of the order-{group.order},"
        f" exponent-{group.exponent()} group)",
        {"computed": lemma.computed, "expected": lemma.expected},
        lemma.passed and lemma.computed == AbGroupStructure([ell]))

    shifts = dimension_shift_check(group)
    add("dimension_shift",
        "H^1(H, I|_H) = Z/|H| and H^1(H, (Z/m)[G]|_H) = 0 for every cyclic subgroup and for G",
        [{"subgroup_order": r.subgroup.order, "ideal_h1": r.ideal_h1, "ring_h1": r.ring_h1}
         for r in shifts],
        all(r.passed for r in shifts))

    (records, cert.places, cert.sigma0_labels, cert.sigma0_exact,
     cert.sigma0_statement, model_checks) = (
        _biquadratic_model(p, q) if (ell, n) == (2, 1)
        else _kummer_model(p, q, group, ell=ell, n=n, euler=euler, root=root))
    checks.extend(model_checks)

    designated = cert.designated_places = [str(v) for v in cert.sigma0_labels]
    sha_full = sha_sigma(group, ideal, records, excluded=())
    sha_s0 = sha_sigma(group, ideal, records, excluded=designated)
    cert.sha_full = sha_full.structure
    cert.sha_sigma0 = sha_s0.structure

    add("sigma0_kernel_is_cyclic_kernel",
        "the restriction kernel for Sigma_0 equals the cyclic-subgroup kernel"
        " (finite model of the omega identity)",
        {"sigma0_kernel": sha_s0.structure},
        sha_s0.structure == lemma.computed)
    add("sha_quotient_nontrivial",
        "Sha^1_{Sigma_0}(k, I) != Sha^1(k, I), so approximation fails in Sigma_0",
        {"sigma0_kernel": sha_s0.structure, "full_kernel": sha_full.structure},
        sha_s0.structure != sha_full.structure)
    for key in designated:
        rest = [v for v in designated if v != key]
        cert.sha_sigma0_minus[key] = sha_sigma(group, ideal, records, excluded=rest).structure
        add(f"removal:{key}",
            f"Sha^1 for Sigma_0 minus {{{key}}} equals Sha^1, so approximation holds there",
            {"kernel": cert.sha_sigma0_minus[key]},
            cert.sha_sigma0_minus[key] == sha_full.structure)

    if all(c.passed for c in checks):
        cert.conclusion = "certified"
        cert.conclusion_detail = (
            f"The restriction kernel jumps from {cert.sha_full} to {cert.sha_sigma0} over"
            f" Sigma_0 and collapses back when any designated place is removed. Assuming the"
            f" duality between approximation defect and these kernels, the Cartier-dual"
            f" module of order {ell}^{cert.module_order_exponent} fails weak approximation"
            f" exactly on Sigma_0 and nowhere smaller."
        )
    else:
        return refute()
    return cert


# A place model maps (p, q[, group, hypothesis witnesses]) to the places of the
# certificate: (records, place rows, Sigma_0 labels, exact, statement, its own
# CertChecks, each computed from its witness).  The designated places are the
# Sigma_0 labels as strings.

def _biquadratic_model(p, q):
    """The exact model for (ell, n) = (2, 1): k = Q, L = Q(sqrt p, sqrt q).

    Every decomposition subgroup comes from local square classes, and
    Sigma_0 is the records whose decomposition subgroup is all of
    Z/2 x Z/2; `sigma0_biquadratic` and the `sigma0` command read it here.
    p and q are any KummerPair classes.
    """
    records, rows = biquadratic_place_records(KummerPair(p, q))
    sigma0 = [rec.label for rec in records if rec.subgroup.order == 4]
    statement = (
        f"Sigma_0(Q, I) = {{{', '.join(map(str, sigma0))}}}: the places with full (non-cyclic)"
        " decomposition group, computed from local square classes at 2 and at the primes"
        " dividing a*b"
    )
    check = CertCheck(
        "sigma0_disjoint_from_ell",
        "no place in Sigma_0 divides ell = 2 (= the residue characteristic of |I|),"
        " so Sigma_0 lies in the ramified-but-coprime bad set",
        {"sigma0": sigma0}, 2 not in sigma0)
    return records, rows, sigma0, True, statement, [check]


def _kummer_model(p, q, group, *, ell, n, euler, root):
    """The partial model for (ell, n) != (2, 1): k = Q(zeta_(ell^n)).

    Each of the ell^n - ell^(n-1) places over p has decomposition group all
    of G, the place over ell has the cyclic factor Z/ell^n; the places over
    q stay undetermined.  `euler` = q^((p-1)/ell) mod p and the Hensel
    `root` of q to `_HENSEL_PRECISION` are the hypothesis witnesses, reused here.
    """
    field = f"Q(zeta_{ell ** n})"
    phi = ell ** n - ell ** (n - 1)
    full = full_subgroup(group)
    first_factor = subgroup_generated(group, [ell])  # (1,0), generating Z/ell^n x 0
    records = [PlaceRecord(f"over-{p}-{i + 1}", full, True) for i in range(phi)]
    over_p_keys = [rec.key for rec in records]
    records.append(PlaceRecord(f"over-{ell}", first_factor, True))
    rows = [_place_row(rec) for rec in records]
    statement = (
        f"Sigma_0 contains all {phi} places of {field} over p = {p};"
        f" it contains no place over ell = {ell}; membership of the remaining ramified"
        f" places (over q = {q}) is not determined"
    )
    full_witness = {"places_over_p": phi, "residue_field": f"F_{p}",
                    "residue_degree_witness": euler}
    cyclic_witness = {"root": root}
    disjoint_witness = {"sigma0_known_members": over_p_keys}
    checks = [
        CertCheck(
            "decomposition_full_over_p",
            f"each place over p has full decomposition group: x^{ell}^{n} - p is Eisenstein"
            f" there (p splits completely in {field}, v(p) = 1), and the residue"
            f" extension has degree {ell} because q is not an {ell}-th power mod p",
            full_witness, _full_over_p_holds(ell, n, p, q, full_witness)),
        CertCheck(
            "decomposition_cyclic_over_ell",
            f"q is an {ell}-th power in Q_{ell}, so the decomposition group of the place"
            f" over {ell} embeds in the cyclic factor Z/{ell}^{n}",
            cyclic_witness, _cyclic_over_ell_holds(ell, q, _HENSEL_PRECISION, cyclic_witness)),
        CertCheck(
            "sigma0_disjoint_from_ell",
            f"places over ell = {ell} have cyclic decomposition groups and are not in Sigma_0",
            disjoint_witness, _disjoint_from_ell_holds(ell, disjoint_witness)),
    ]
    return records, rows, over_p_keys, False, statement, checks


def _full_over_p_holds(ell, n, p, q, witness):
    """`decomposition_full_over_p` from its witness: there are ell^n - ell^(n-1)
    places over p, p == 1 (mod ell^n) so that p splits completely in
    Q(zeta_(ell^n)), and the recorded q^((p-1)/ell) mod p is right and not 1,
    so that q is not an ell-th power mod p."""
    w = witness["residue_degree_witness"]
    return (witness["places_over_p"] == ell ** n - ell ** (n - 1)
            and p % ell ** n == 1
            and w == pow(q, (p - 1) // ell, p) and w != 1)


def _cyclic_over_ell_holds(ell, q, precision, witness):
    """`decomposition_cyclic_over_ell` from its witness: root^ell == q modulo
    ell^precision, a precision at or above its `_hensel_precision` floor
    (`_HENSEL_PRECISION`; `_ellth_power_locally_holds` checks a recorded one)."""
    root = witness["root"]
    mod = ell ** precision
    return root is not None and (pow(root, ell, mod) - q) % mod == 0


def _ellth_power_locally_holds(ell, q, witness):
    """`q_ellth_power_locally_at_ell` from its witness: the recorded precision
    reaches the congruence that makes q an ell-th power in Q_ell (mod 8, or
    mod ell^2), and root^ell == q modulo ell to that precision."""
    precision = witness["precision_exponent"]
    return (precision == _hensel_precision(ell, precision)
            and _cyclic_over_ell_holds(ell, q, precision, witness))


def _disjoint_from_ell_holds(ell, witness):
    """`sigma0_disjoint_from_ell` from its witness: no known member of Sigma_0
    is the place over ell."""
    return f"over-{ell}" not in witness["sigma0_known_members"]
