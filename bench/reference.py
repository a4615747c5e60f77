"""A fixed reference task that measures how fast the host runs right now.

    python3 bench/reference.py

`run.py` runs this before every operation and divides the operation's time
by its time, so that the host's changing speed cancels out.  It does the
same kind of work as the program, a product of bivariate polynomials kept
as dicts of Python integers, but shares no code with the package, so no
change to the package can change its cost.  It takes about 0.2 s.

It prints the term count and the coefficient sum of (1 + 3q - 2z + 5qz)^48,
whose coefficient sum is 7^48, so that `run.py` can tell it ran to the end.
"""


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + x * y
    return out


def main() -> None:
    base = {(0, 0): 1, (1, 0): 3, (0, 1): -2, (1, 1): 5}
    p = base
    for _ in range(23):
        p = mul(p, base)
    p = mul(p, p)
    print(len(p), sum(p.values()))


if __name__ == "__main__":
    main()
