"""Primality and factorization of integers, below every other layer.

`is_prime` is deterministic up to 2**64; `factorize` strips the primes
below 50 by trial division and splits what is left with Brent's variant of
Pollard rho, so a modulus with a large prime factor costs a few modular
powers, not a trial division up to its square root.  The elimination in
`zmod_linalg` factors its moduli here, and `arithmetic` re-exports the
three names.

`_int` holds the one integer rule of the Python API, for every layer: an
argument that stands for an integer must be an `int`, and a bool is not
one.  A float, a string or anything else raises ValueError; nothing is
truncated or parsed, so `is_prime(7.9)` is an error, not `is_prime(7)`.
"""

from __future__ import annotations

from math import gcd

_UINT64_MAX = 2 ** 64

# Strong-pseudoprime test with these twelve bases is deterministic for all
# n < 3.3 * 10^24, which covers the full 64-bit range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _int(value, what):
    """`value` if it is an int (not a bool), else a ValueError naming `what`."""
    if type(value) is not int:
        raise ValueError(f"{what} is {value!r}, not an int")
    return value


def _ints(values, what):
    """`values` as a tuple, under `_int`'s rule in one scan of their types;
    only if a type is not int does `_int` walk them, `what(k)` naming entry k."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        for k, x in enumerate(values):
            _int(x, what(k))
    return values


def is_prime(x):
    """Deterministic primality for 0 <= x <= 2**64 (Miller-Rabin, fixed bases)."""
    _int(x, "x")
    if x < 0:
        raise ValueError("is_prime expects a nonnegative integer")
    if x > _UINT64_MAX:
        raise ValueError("is_prime is only deterministic up to 2**64")
    if x < 2:
        return False
    for b in _MR_BASES:
        if x == b:
            return True
        if x % b == 0:
            return False
    d = x - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        y = pow(b, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def _brent_rho(n):
    # Brent's cycle variant of Pollard rho; deterministic constant schedule.
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n):
    """Prime factorization of |n| as an ordered {prime: exponent} dict.

    Raises ValueError if a cofactor above 2**64 is left after the primes
    below 50 are stripped, since `is_prime` cannot decide it.
    """
    n = abs(_int(n, "n"))
    if n == 0:
        raise ValueError("cannot factor 0")
    whole = n
    factors = {}

    def record(p):
        factors[p] = factors.get(p, 0) + 1

    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            record(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m > _UINT64_MAX:
            raise ValueError(f"cannot factor {whole}: the cofactor {m} left after"
                             " trial division exceeds 2**64")
        if is_prime(m):
            record(m)
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(factors.items()))
