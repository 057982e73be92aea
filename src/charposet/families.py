"""Built-in group families, constructed from standard presentations.

Tables are synthesized directly from normal forms (r^i s^j for the 2-group
series, exponent tuples for abelian products, triangular triples for the
Heisenberg group) and then run through the full from_cayley validation.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InternalCheckError, OrderCapExceeded, UnknownFamily
from .groups import DEFAULT_ORDER_CAP, GroupTable, from_cayley, prime_of


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise OrderCapExceeded(f"order {order} exceeds cap {cap}")


def _require_prime(p: int) -> None:
    if prime_of(p) != p:
        raise UnknownFamily(f"{p} is not prime")


def abelian_product(orders: Sequence[int], cap: int = DEFAULT_ORDER_CAP, name: str | None = None) -> GroupTable:
    """Direct product of cyclic groups of the given orders."""
    orders = [int(d) for d in orders]
    if not orders or any(d < 1 for d in orders):
        raise UnknownFamily(f"bad cyclic orders {orders}")
    n = math.prod(orders)
    _check_cap(n, cap)

    def encode(tup):
        x = 0
        for d, t in zip(orders, tup):
            x = x * d + t
        return x

    def decode(x):
        out = []
        for d in reversed(orders):
            x, r = divmod(x, d)
            out.append(r)
        return tuple(reversed(out))

    table = [
        [
            encode(tuple((a + b) % d for a, b, d in zip(decode(i), decode(j), orders)))
            for j in range(n)
        ]
        for i in range(n)
    ]
    if name is None:
        name = "x".join(f"C{d}" for d in orders)
    return from_cayley(table, name)


def cyclic(p: int, n: int, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    _require_prime(p)
    if n < 0:
        raise UnknownFamily(f"bad exponent {n}")
    return abelian_product([p**n], cap=cap, name=f"C{p ** n}")


def elem_abelian(p: int, n: int, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    _require_prime(p)
    if n < 1:
        raise UnknownFamily(f"bad rank {n}")
    return abelian_product([p] * n, cap=cap, name=f"C{p}^{n}")


def _two_generator_metacyclic(m: int, twist: int, s_order: int, s_power_in_r: int, name: str, cap: int) -> GroupTable:
    """Groups <r, s | r^m = 1, s^s_order = r^s_power_in_r, s r s^-1 = r^twist>.

    Elements are pairs (i, j) = r^i s^j with 0 <= i < m, 0 <= j < s_order,
    encoded as i + m*j.  Requires twist^s_order = 1 mod m for consistency.
    """
    order = m * s_order
    _check_cap(order, cap)
    if pow(twist, s_order, m) != 1 % m:
        raise InternalCheckError(f"twist {twist} has no order dividing {s_order} mod {m}")

    twist_pow = [pow(twist, j, m) for j in range(s_order)]

    def mul(x, y):
        i1, j1 = x % m, x // m
        i2, j2 = y % m, y // m
        i = (i1 + i2 * twist_pow[j1]) % m
        j = j1 + j2
        if j >= s_order:
            j -= s_order
            i = (i + s_power_in_r) % m
        return i + m * j

    table = [[mul(x, y) for y in range(order)] for x in range(order)]
    return from_cayley(table, name)


def dihedral(order: int, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    if order < 4 or order & (order - 1):
        raise UnknownFamily(f"dihedral family takes a 2-power order >= 4, got {order}")
    m = order // 2
    return _two_generator_metacyclic(m, m - 1, 2, 0, f"D{order}", cap)


def quaternion(order: int, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    if order < 8 or order & (order - 1):
        raise UnknownFamily(f"quaternion family takes a 2-power order >= 8, got {order}")
    m = order // 2
    return _two_generator_metacyclic(m, m - 1, 2, m // 2, f"Q{order}", cap)


def semidihedral(order: int, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    if order < 16 or order & (order - 1):
        raise UnknownFamily(f"semidihedral family takes a 2-power order >= 16, got {order}")
    m = order // 2
    return _two_generator_metacyclic(m, m // 2 - 1, 2, 0, f"SD{order}", cap)


def modular(p: int, n: int, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Modular maximal-cyclic group of order p^n: s r s^-1 = r^(p^(n-2)+1)."""
    _require_prime(p)
    if n < 3:
        raise UnknownFamily(f"modular family needs exponent >= 3, got {n}")
    m = p ** (n - 1)
    return _two_generator_metacyclic(m, p ** (n - 2) + 1, p, 0, f"M{p ** n}", cap)


def extraspecial(p: int, sign: str, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """The two extraspecial groups of order p^3.

    For odd p, '+' is the exponent-p Heisenberg group and '-' the
    exponent-p^2 modular group.  For p = 2 they are D8 and Q8.
    """
    _require_prime(p)
    if sign not in ("+", "-"):
        raise UnknownFamily(f"extraspecial sign must be '+' or '-', got {sign!r}")
    _check_cap(p**3, cap)
    if p == 2:
        G = dihedral(8, cap) if sign == "+" else quaternion(8, cap)
        return GroupTable(G.order, G.table, G.identity, G.inverse, G.elem_order, G.exponent, f"ES2{sign}")
    if sign == "-":
        G = modular(p, 3, cap)
        return GroupTable(G.order, G.table, G.identity, G.inverse, G.elem_order, G.exponent, f"ES{p}-")

    # Heisenberg: triples (a, b, c), (a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2)
    n = p**3

    def mul(x, y):
        a1, r1 = divmod(x, p * p)
        b1, c1 = divmod(r1, p)
        a2, r2 = divmod(y, p * p)
        b2, c2 = divmod(r2, p)
        return ((a1 + a2) % p) * p * p + ((b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p

    table = [[mul(x, y) for y in range(n)] for x in range(n)]
    return from_cayley(table, f"ES{p}+")


def direct_product(G1: GroupTable, G2: GroupTable, cap: int = DEFAULT_ORDER_CAP, name: str | None = None) -> GroupTable:
    n = G1.order * G2.order
    _check_cap(n, cap)
    n2 = G2.order
    t1, t2 = G1.table, G2.table
    table = [
        [t1[x // n2][y // n2] * n2 + t2[x % n2][y % n2] for y in range(n)]
        for x in range(n)
    ]
    if name is None:
        name = f"{G1.name}x{G2.name}"
    return from_cayley(table, name)


# -- descriptor parsing -------------------------------------------------------

FAMILY_HELP = [
    ("Cyclic(p,n)", "cyclic group of order p^n"),
    ("ElemAbelian(p,n)", "elementary abelian group (C_p)^n"),
    ("AbelianProduct(d1,d2,...)", "direct product of cyclic groups C_d1 x C_d2 x ..."),
    ("Dihedral(m)", "dihedral group of 2-power order m >= 4"),
    ("Quaternion(m)", "generalized quaternion group of 2-power order m >= 8"),
    ("Semidihedral(m)", "semidihedral group of 2-power order m >= 16"),
    ("Modular(p,n)", "modular maximal-cyclic group of order p^n, n >= 3"),
    ("Extraspecial(p,+|-)", "extraspecial group of order p^3"),
    ("DirectProduct(spec,spec)", "direct product of two family specs"),
]


def _split_args(body: str) -> list:
    """Split a descriptor argument list on top-level commas."""
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UnknownFamily(f"unbalanced parentheses in {body!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise UnknownFamily(f"unbalanced parentheses in {body!r}")
    parts.append("".join(cur))
    return [s.strip() for s in parts]


def builtin(spec: str, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Construct a group from a family descriptor like 'Quaternion(8)'."""
    spec = spec.strip()
    if "(" not in spec or not spec.endswith(")"):
        raise UnknownFamily(f"bad descriptor {spec!r}")
    head, body = spec.split("(", 1)
    head = head.strip()
    args = _split_args(body[:-1])

    def ints(k):
        if len(args) != k:
            raise UnknownFamily(f"{head} takes {k} argument(s), got {len(args)}")
        try:
            return [int(a) for a in args]
        except ValueError:
            raise UnknownFamily(f"non-integer argument in {spec!r}") from None

    if head == "Cyclic":
        p, n = ints(2)
        return cyclic(p, n, cap)
    if head == "ElemAbelian":
        p, n = ints(2)
        return elem_abelian(p, n, cap)
    if head == "AbelianProduct":
        try:
            orders = [int(a) for a in args]
        except ValueError:
            raise UnknownFamily(f"non-integer argument in {spec!r}") from None
        return abelian_product(orders, cap)
    if head == "Dihedral":
        (m,) = ints(1)
        return dihedral(m, cap)
    if head == "Quaternion":
        (m,) = ints(1)
        return quaternion(m, cap)
    if head == "Semidihedral":
        (m,) = ints(1)
        return semidihedral(m, cap)
    if head == "Modular":
        p, n = ints(2)
        return modular(p, n, cap)
    if head == "Extraspecial":
        if len(args) != 2:
            raise UnknownFamily(f"Extraspecial takes 2 arguments, got {len(args)}")
        try:
            p = int(args[0])
        except ValueError:
            raise UnknownFamily(f"non-integer prime in {spec!r}") from None
        return extraspecial(p, args[1], cap)
    if head == "DirectProduct":
        if len(args) != 2:
            raise UnknownFamily(f"DirectProduct takes 2 arguments, got {len(args)}")
        return direct_product(builtin(args[0], cap), builtin(args[1], cap), cap)
    raise UnknownFamily(f"unknown family {head!r}")


# -- sweep catalog -------------------------------------------------------------


def _partitions(k: int) -> list:
    """All weakly decreasing positive integer tuples summing to k."""
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, maxpart), 0, -1):
            rec(rest - part, part, acc + [part])

    rec(k, k, [])
    return out


def builtin_catalog(p: int, max_order: int) -> list:
    """Canonical descriptor list: the built-in p-groups of order <= max_order.

    Abelian groups appear once per isomorphism type (one partition each).
    Extraspecial 2-groups and Modular(2,3) are omitted as duplicates of
    D8/Q8.  Direct products pair each nonabelian series member with small
    abelian factors.
    """
    _require_prime(p)
    specs = []
    k = 1
    while p**k <= max_order:
        for part in _partitions(k):
            if len(part) == 1:
                specs.append(f"Cyclic({p},{part[0]})")
            else:
                specs.append("AbelianProduct(%s)" % ",".join(str(p**a) for a in part))
        k += 1

    if p == 2:
        series = []
        m = 8
        while m <= max_order:
            series.append(f"Dihedral({m})")
            series.append(f"Quaternion({m})")
            if m >= 16:
                series.append(f"Semidihedral({m})")
                series.append(f"Modular(2,{m.bit_length() - 1})")
            m *= 2
        specs.extend(series)
        factors = ["Cyclic(2,1)", "Cyclic(2,2)", "ElemAbelian(2,2)"]
        factor_orders = [2, 4, 4]
        for base, border in [
            ("Dihedral(8)", 8),
            ("Quaternion(8)", 8),
            ("Dihedral(16)", 16),
            ("Quaternion(16)", 16),
            ("Semidihedral(16)", 16),
            ("Modular(2,4)", 16),
            ("Dihedral(32)", 32),
            ("Quaternion(32)", 32),
            ("Semidihedral(32)", 32),
            ("Modular(2,5)", 32),
        ]:
            for fac, forder in zip(factors, factor_orders):
                if border * forder <= max_order:
                    specs.append(f"DirectProduct({base},{fac})")
        if 64 <= max_order:
            specs.extend(
                [
                    "DirectProduct(Dihedral(8),Cyclic(2,3))",
                    "DirectProduct(Quaternion(8),Cyclic(2,3))",
                    "DirectProduct(Dihedral(8),AbelianProduct(4,2))",
                    "DirectProduct(Quaternion(8),AbelianProduct(4,2))",
                    "DirectProduct(Dihedral(8),ElemAbelian(2,3))",
                    "DirectProduct(Quaternion(8),ElemAbelian(2,3))",
                    "DirectProduct(Dihedral(8),Dihedral(8))",
                    "DirectProduct(Quaternion(8),Dihedral(8))",
                    "DirectProduct(Quaternion(8),Quaternion(8))",
                ]
            )
    else:
        if p**3 <= max_order:
            specs.append(f"Extraspecial({p},+)")
            specs.append(f"Extraspecial({p},-)")
        n = 4
        while p**n <= max_order:
            specs.append(f"Modular({p},{n})")
            n += 1
        if p**4 <= max_order:
            specs.append(f"DirectProduct(Extraspecial({p},+),Cyclic({p},1))")
            specs.append(f"DirectProduct(Extraspecial({p},-),Cyclic({p},1))")
    return specs
