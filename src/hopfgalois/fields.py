"""Exact ground fields: the rationals and prime fields F_p.

Scalars are plain Python objects (`fractions.Fraction` over Q, ints in
``range(p)`` over F_p); a field object supplies the arithmetic.  The text
format is ``"n"`` / ``"n/d"`` over Q and ``"n mod p"`` over F_p, and is used
verbatim in the JSON fixture files.
"""

from fractions import Fraction


class FieldError(ValueError):
    """Bad scalar syntax, a composite modulus, or a field mismatch."""


# Miller-Rabin with the first 13 primes as bases is deterministic below this
# bound (Sorenson and Webster, Math. Comp. 86, 2017); PrimeField rejects larger
# moduli instead of guessing.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic for n < PRIMALITY_BOUND."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q, with Fraction scalars."""

    kind = "Q"
    p = None

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def from_int(self, n):
        return Fraction(n)

    def parse(self, text):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational scalar {text!r}") from exc

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field F_p for a prime p, with int scalars in range(p)."""

    kind = "Fp"

    def __init__(self, p):
        if p >= PRIMALITY_BOUND:
            raise FieldError(f"modulus {p} is not below the primality-test "
                             f"bound {PRIMALITY_BOUND}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def from_int(self, n):
        return n % self.p

    def parse(self, text):
        parts = text.strip().split("mod")
        try:
            n = int(parts[0])
        except ValueError as exc:
            raise FieldError(f"bad F_p scalar {text!r}") from exc
        if len(parts) == 2:
            if int(parts[1]) != self.p:
                raise FieldError(f"scalar {text!r} has wrong modulus, expected {self.p}")
        elif len(parts) != 1:
            raise FieldError(f"bad F_p scalar {text!r}")
        return n % self.p

    def format(self, a):
        return f"{a % self.p} mod {self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


QQ = RationalField()


def field_from_name(name):
    """Parse a field header: ``"Q"`` or ``"F_p"`` (also accepts ``"Fp"``)."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name.startswith("F"):
        body = name[1:].lstrip("_")
        try:
            p = int(body)
        except ValueError as exc:
            raise FieldError(f"bad field name {name!r}") from exc
        return PrimeField(p)
    raise FieldError(f"bad field name {name!r}")


def field_name(field):
    return "Q" if field.kind == "Q" else f"F_{field.p}"
