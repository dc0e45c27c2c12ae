"""Independent recomputation of per-q variance contributions.

Shares no code with the `normvar` package and must never import it: the
benchmark uses it to spot-check the CLI's numbers.  Only the two fields
the variance workloads use are supported, with their splitting rules
written out by hand:

  * Q: an event at every prime power p^k <= x, weight log p;
  * quad:-1 (Gaussian field, conductor 4): p = 1 (mod 4) splits, events
    at p^k with weight 2 log p; p = 3 (mod 4) is inert, events at p^(2j)
    with weight 2 log p; p = 2 ramifies, events at 2^k with weight log 2.

The admissible classes modulo q are all units, except for quad:-1 with
4 | q, where they are the units a = 1 (mod 4).  The contribution of q is
the sum over admissible a of (t[a] - x / #admissible)^2, where t[a] is
the event weight in class a.
"""

from __future__ import annotations

import math

import numpy as np

SUPPORTED_FIELDS = ("Q", "quad:-1")


def primes_upto(x: int) -> np.ndarray:
    """Primes <= x by one dense sieve of Eratosthenes."""
    mask = np.ones(x + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _powers(primes: np.ndarray, x: int, step: int, weight: np.ndarray):
    """Events p^(step*j) <= x for j >= 1, each with the given per-prime weight."""
    ns, ws = [], []
    power = primes ** step
    keep = power <= x
    power, base, weight = power[keep], primes[keep], weight[keep]
    while power.size:
        ns.append(power)
        ws.append(weight)
        nxt = power * base**step
        keep = nxt <= x
        power, base, weight = nxt[keep], base[keep], weight[keep]
    return ns, ws


def events(field: str, x: int) -> tuple[np.ndarray, np.ndarray]:
    """Event values n and weights w, sorted by n."""
    primes = primes_upto(x)
    logs = np.log(primes.astype(np.float64))
    if field == "Q":
        ns, ws = _powers(primes, x, 1, logs)
    elif field == "quad:-1":
        ns, ws = [], []
        r = primes % 4
        for sel, step, scale in ((r == 2, 1, 1.0), (r == 1, 1, 2.0), (r == 3, 2, 2.0)):
            a, b = _powers(primes[sel], x, step, scale * logs[sel])
            ns += a
            ws += b
    else:
        raise ValueError(f"oracle supports {SUPPORTED_FIELDS}, not {field!r}")
    n = np.concatenate(ns)
    w = np.concatenate(ws)
    order = np.argsort(n, kind="stable")
    return n[order], w[order]


def admissible(field: str, q: int) -> np.ndarray:
    """Boolean mask over residues 0..q-1 of the admissible classes."""
    res = np.arange(q, dtype=np.int64)
    mask = np.gcd(res, q) == 1
    if field == "quad:-1" and q % 4 == 0:
        mask &= res % 4 == 1
    return mask


def contribution(field: str, x: int, n: np.ndarray, w: np.ndarray, q: int) -> float:
    """Sum over admissible a of (t[a] - x / #admissible)^2 for modulus q."""
    t = np.bincount(n % q, weights=w, minlength=q)
    mask = admissible(field, q)
    dev = t[mask] - x / np.count_nonzero(mask)
    return math.fsum((dev * dev).tolist())
