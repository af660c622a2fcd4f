"""Closed-form values of the fractional (circular) separation dimension.

Every exact value the suite can certify in closed form lives here, evaluated
in exact rationals; ``crosscheck`` compares a closed form against the LP and
against cheap strategy bounds.  Families with no nonincident pairs get value 0
by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .game import EnumerationCapExceeded, fractional_sepdim, pattern_payoffs, _frac_str
from .graphs import FamilySpec, generate, nonincident_pairs
from .separation import best_response, max_separation


@dataclass(frozen=True)
class KnownValue:
    family: str
    params: tuple[int, ...]
    mode: str
    value: Fraction
    source: str


def _known(family, params, mode, value, source) -> KnownValue:
    value = Fraction(value)
    return KnownValue(family, tuple(params), mode, value, source)


def _bipartite_linear(a: int, b: int):
    if min(a, b) == 1:
        return Fraction(0), "no-pairs"
    if a == b:
        m = a
        return Fraction(3 * m, m + 1), "balanced-bipartite"
    # Match (a, b) against the (m+1, qm) shape, larger m first.
    candidates = []
    if a >= 2 and b % (a - 1) == 0:
        candidates.append((a - 1, b // (a - 1)))
    if b >= 2 and a % (b - 1) == 0:
        candidates.append((b - 1, a // (b - 1)))
    candidates = [(m, q) for m, q in candidates if m * q > 1]
    if not candidates:
        return None
    m, q = max(candidates)
    num = 6 * m * (m * q - 1)
    den = (2 * m + 1) * m * q - m - 2
    return Fraction(num, den), "one-extra-bipartite"


def _bipartite_circular(a: int, b: int):
    if min(a, b) == 1:
        return Fraction(0), "no-pairs"
    s, t = sorted((a, b))
    if s < 2 or t % s != 0:
        return None
    m, q = s, t // s
    return Fraction(6 * (q * m - 1), 4 * m * q + q - 3), "circular-spaced-bipartite"


def _tripartite_linear(a: int, b: int, c: int):
    s = tuple(sorted((a, b, c)))
    if s == (1, 1, 1):
        return Fraction(0), "no-pairs"
    if s[0] == s[1] == s[2] and s[0] >= 2:
        m = s[0]
        return Fraction(6 * m, 2 * m + 1), "balanced-tripartite"
    if s[0] == s[1] and s[2] == s[0] + 1 and s[0] >= 2:
        m = s[0]
        return Fraction(6 * m, 2 * m + 1), "one-extra-tripartite"
    if s[0] == 1 and s[1] == s[2] and s[1] >= 2:
        m = s[1]
        half_up = (m + 1) // 2
        den = 8 * m + 5 + Fraction(3, 2 * half_up - 1)
        return Fraction(24 * m) / den, "split-tripartite"
    return None


def evaluate(family: str, params, mode: str = "linear") -> KnownValue | None:
    """Closed-form value for a family instance, or None when no known
    closed form covers it.  Out-of-range parameters also yield None."""
    params = tuple(params)
    if mode == "linear":
        if family == "cycle":
            (n,) = params
            if n >= 4:
                return _known(family, params, mode, Fraction(n, n - 2), "cycle-rotation")
            if n == 3:
                return _known(family, params, mode, 0, "no-pairs")
            return None
        if family == "complete":
            (n,) = params
            if n >= 4:
                return _known(family, params, mode, 3, "contains-k4")
            return _known(family, params, mode, 0, "no-pairs")
        if family == "path":
            (n,) = params
            value = 1 if n >= 4 else 0
            return _known(family, params, mode, value, "caterpillar" if n >= 4 else "no-pairs")
        if family == "complete-bipartite":
            got = _bipartite_linear(*params)
            if got is None:
                return None
            return _known(family, params, mode, got[0], got[1])
        if family == "complete-tripartite":
            got = _tripartite_linear(*params)
            if got is None:
                return None
            return _known(family, params, mode, got[0], got[1])
        if family == "subdivided-star":
            (n,) = params
            if n == 1:
                return _known(family, params, mode, 0, "no-pairs")
            m = (n + 1) // 2
            return _known(family, params, mode, Fraction(4 * m - 2, 3 * m - 1),
                          "subdivided-star")
        if family == "petersen":
            return _known(family, params, mode, Fraction(30, 17), "petersen")
        if family == "heawood":
            return _known(family, params, mode, Fraction(28, 17), "heawood")
        return None
    if mode == "circular":
        if family == "complete":
            (n,) = params
            if n >= 4:
                return _known(family, params, mode, Fraction(3, 2), "contains-k4-circular")
            return _known(family, params, mode, 0, "no-pairs")
        if family == "complete-bipartite":
            got = _bipartite_circular(*params)
            if got is None:
                return None
            return _known(family, params, mode, got[0], got[1])
        if family in ("cycle", "path", "subdivided-star"):
            g = generate(FamilySpec(family, params))
            has_pairs = bool(nonincident_pairs(g))
            value = 1 if has_pairs else 0
            return _known(family, params, mode, value,
                          "outerplanar" if has_pairs else "no-pairs")
        if family == "petersen":
            return _known(family, params, mode, Fraction(8, 7), "petersen-circular")
        return None
    raise ValueError(f"unknown mode {mode!r}")


def crosscheck(family: str, params, mode: str = "linear") -> dict:
    """Compare the closed form against the LP and strategy bounds.

    PASS requires exact oracle/LP agreement plus bound consistency (the
    uniform-strategy guarantee below the game value, the all-pairs-uniform
    pair strategy above it).  Instances over the solve path's vertex cap
    come back as partial reports.
    """
    params = tuple(params)
    oracle = evaluate(family, params, mode)
    row = {
        "family": family,
        "params": list(params),
        "mode": mode,
        "oracle": _frac_str(oracle.value) if oracle else None,
        "source": oracle.source if oracle else None,
        "lp": None,
        "status": "SKIP",
        "detail": "",
    }
    g = generate(FamilySpec(family, params))
    try:
        sol = fractional_sepdim(g, mode, "auto")
    except EnumerationCapExceeded as exc:
        row["status"] = "PARTIAL"
        row["detail"] = str(exc)
        return row
    row["lp"] = _frac_str(sol.pi_f)
    if oracle is None:
        row["status"] = "LP-ONLY"
        return row
    ok = oracle.value == sol.pi_f
    detail = []
    if sol.value is not None:
        lower = Fraction(1, 3) if mode == "linear" else Fraction(2, 3)
        if not lower <= sol.value:
            ok = False
            detail.append(f"uniform-strategy bound {lower} exceeds value {sol.value}")
        npairs = len(nonincident_pairs(g))
        upper = None
        if g.parts is not None:
            # The total separated count is constant on pattern orbits, so
            # its maximum over the patterns is the maximum over orderings:
            # the chain DP in linear mode, and with one class the first
            # Pareto-kept row in circular mode.
            if mode == "linear":
                best = best_response(g, [list(range(npairs))], [1], g.parts).score
            else:
                (best,), _ = pattern_payoffs(g, mode, None)[0]
            upper = Fraction(best, npairs)
        elif g.n <= 8:
            upper = Fraction(max_separation(g, mode).score, npairs)
        if upper is not None and not sol.value <= upper:
            ok = False
            detail.append(f"pair-strategy bound {upper} is below value {sol.value}")
    row["status"] = "PASS" if ok else "FAIL"
    row["detail"] = "; ".join(detail)
    return row
