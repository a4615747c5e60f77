"""Output checks for the qlehmer CLI that share no code with the package.

Every check takes the CLI's stdout as text and raises `CheckError` when the
output is wrong.  The reference values come from independent mathematics
computed here with plain integers: Fibonacci numbers, integer Gaussian
binomials at an integer q, binomial coefficients, partition counts and a
lattice-path count.  Polynomials are read from the CLI's text and JSON
forms into {(z_exp, q_exp): coeff} maps.
"""

from __future__ import annotations

import json
from math import comb


class CheckError(Exception):
    """The CLI's output disagrees with the reference."""


# -- reading the CLI's polynomial forms ------------------------------------


def _parse_term(text: str) -> tuple[tuple[int, int], int]:
    coeff = 1
    exps = {"z": 0, "q": 0}
    for i, factor in enumerate(text.split("*")):
        if factor.isdigit():
            if i:
                raise CheckError(f"coefficient inside term {text!r}")
            coeff = int(factor)
            continue
        name, _, power = factor.partition("^")
        if name not in exps or exps[name] or (power and not power.isdigit()):
            raise CheckError(f"bad factor {factor!r} in term {text!r}")
        exps[name] = int(power) if power else 1
    return (exps["z"], exps["q"]), coeff


def parse_text(text: str) -> dict[tuple[int, int], int]:
    """Read the CLI's (q, z) text form, e.g. `1 - z - q*z`, term by term."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    if len(tokens) % 2 == 0:
        raise CheckError("text form has a dangling sign")
    terms: dict[tuple[int, int], int] = {}
    sign = 1
    for i, token in enumerate(tokens):
        if i % 2:
            if token not in ("+", "-"):
                raise CheckError(f"expected a sign, got {token!r}")
            sign = 1 if token == "+" else -1
            continue
        if i == 0 and token.startswith("-"):
            sign, token = -1, token[1:]
        key, coeff = _parse_term(token)
        if key in terms or coeff == 0:
            raise CheckError(f"term {token!r} repeated or zero")
        terms[key] = sign * coeff
    return terms


def parse_json(text: str) -> dict[tuple[int, int], int]:
    """Read the CLI's JSON form {"vars": "qz", "terms": [[z, q, "c"], ...]}."""
    try:
        obj = json.loads(text)
        if obj["vars"] != "qz":
            raise CheckError(f"expected the (q, z) view, got {obj['vars']!r}")
        terms = {}
        for z_exp, q_exp, coeff in obj["terms"]:
            terms[(int(z_exp), int(q_exp))] = int(coeff)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"malformed JSON polynomial: {exc}") from None
    if len(terms) != len(obj["terms"]) or 0 in terms.values():
        raise CheckError("JSON form repeats a term or stores a zero")
    return terms


def evaluate(terms: dict[tuple[int, int], int], q: int, z: int) -> int:
    q_pows: dict[int, int] = {}
    z_pows: dict[int, int] = {}
    total = 0
    for (ze, qe), c in terms.items():
        if qe not in q_pows:
            q_pows[qe] = q ** qe
        if ze not in z_pows:
            z_pows[ze] = z ** ze
        total += c * q_pows[qe] * z_pows[ze]
    return total


# -- independent references ------------------------------------------------


def fibonacci(n: int) -> int:
    """F(n) with F(1) = F(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def gauss_binomial_at(n: int, k: int, q: int) -> int:
    """[n k]_q at an integer q with |q| >= 2, from the product formula."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"[{n} {k}] at q={q} is not an integer")
    return value


def lambda_at(j: int, q: int, z: int) -> int:
    """lam(j) at integer (q, z) by the closed sum
    sum_k [j-k k]_q (-1)^k q^(k(k-1)) z^k."""
    return sum(gauss_binomial_at(j - k, k, q) * (-1) ** k * q ** (k * (k - 1)) * z ** k
               for k in range(j // 2 + 1))


def partitions_upto(parts: int, degree: int) -> list[int]:
    """Number of partitions of m into parts <= `parts`, for m = 0..degree."""
    counts = [1] + [0] * degree
    for part in range(1, parts + 1):
        for m in range(part, degree + 1):
            counts[m] += counts[m - part]
    return counts


def bounded_dyck(m: int, h: int) -> int:
    """Dyck paths with m up-steps and m down-steps that never rise above h."""
    if h >= m:
        return comb(2 * m, m) // (m + 1)
    level = {0: 1}
    for _ in range(2 * m):
        nxt: dict[int, int] = {}
        for y, w in level.items():
            for y2 in (y - 1, y + 1):
                if 0 <= y2 <= h:
                    nxt[y2] = nxt.get(y2, 0) + w
        level = nxt
    return level.get(0, 0)


# -- per-verb checks -------------------------------------------------------

VERIFY_CHECKS = ("lu_generic rediscovers closed factors",
                 "product L*U equals matrix",
                 "continuant det equals closed det")


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckError(f"{what}: got {str(got)[:80]}, expected {str(want)[:80]}")


def check_verify(out: str) -> None:
    lines = out.splitlines()
    if "FAIL" in out:
        raise CheckError("verify reported FAIL")
    for name in VERIFY_CHECKS:
        if f"{name}: PASS" not in lines:
            raise CheckError(f"verify did not report {name!r} as PASS")


def check_lambda(j: int, point: tuple[int, int], as_json: bool, out: str) -> None:
    """lam(j) printed by `det j` or `lambda j`: Fibonacci at (q, z) = (1, -1)
    and the closed sum at one more integer point."""
    terms = parse_json(out) if as_json else parse_text(out)
    _expect(f"lam({j}) at q=1, z=-1", evaluate(terms, 1, -1), fibonacci(j + 1))
    q, z = point
    _expect(f"lam({j}) at q={q}, z={z}", evaluate(terms, q, z), lambda_at(j, q, z))


def check_qbinom(n: int, k: int, out: str) -> None:
    terms = parse_text(out)
    if any(ze for ze, _ in terms):
        raise CheckError("q-binomial mentions z")
    coeffs = {qe: c for (_, qe), c in terms.items()}
    _expect(f"[{n} {k}] at q=1", sum(coeffs.values()), comb(n, k))
    top = k * (n - k)
    _expect(f"[{n} {k}] degree", max(coeffs, default=-1), top)
    for qe, c in coeffs.items():
        if coeffs.get(top - qe) != c:
            raise CheckError(f"[{n} {k}] is not palindromic at q^{qe}")


def check_stabilize(n: int, k: int, out: str) -> None:
    _expect(f"stabilize {n} {k}", out.strip(), str(n - 2 * k))


def check_limit(zdeg: int, qdeg: int, out: str) -> None:
    """z^k coefficient is (-1)^k q^(k(k-1)) sum_m p(m, parts <= k) q^m,
    truncated at q-degree qdeg."""
    lines = out.splitlines()
    _expect("limit line count", len(lines), zdeg + 1)
    for k, line in enumerate(lines):
        prefix = f"z^{k}: "
        if not line.startswith(prefix):
            raise CheckError(f"limit line {k} does not start with {prefix!r}")
        shift = k * (k - 1)
        sign = -1 if k % 2 else 1
        counts = partitions_upto(k, qdeg - shift) if shift <= qdeg else []
        want = {(0, shift + m): sign * c for m, c in enumerate(counts) if c}
        if parse_text(line[len(prefix):]) != want:
            raise CheckError(f"limit z^{k} coefficient differs from the partition counts")


def check_dyck(m: int, h: int, out: str) -> None:
    _expect(f"dyck {m} {h}", out.strip(), str(bounded_dyck(m, h)))
