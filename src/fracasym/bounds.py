"""A-priori bound constructions for the fractional problems.

Everything here evaluates explicit bound formulas of Bihari/Gronwall type:
the reciprocal-integral transform of a comparison function and its inverse,
the nonlinear and linear integral-inequality bounds, the Hoelder constant
for weakly singular convolutions, and the problem-level envelope constants
for the two problem shapes.

Conventions used throughout:

* "bound is +infinity" is a first-class result (math.inf), not an error:
  a nonlinear bound legitimately blows up in finite time when the
  transform has finite range.  The growth envelope, whose transform must
  diverge, raises DomainError for a constant that overflows a float.
* Divergence/integrability hypotheses are checked numerically and raise
  HypothesisViolation when they fail; a violated hypothesis means the
  construction is inapplicable, not that the code failed.
* Class memberships (comparison functions, Lipschitz-majorant pairs) are
  falsified on sampling lattices, never proven, by each public bound once
  per call: no check is cached, so a class argument need not be hashable.
* Every improper integral, here and in asymptotics, is cut into the
  doubling pieces of `dyadic_pieces`, [lo, max(1, 2 lo)] and then [hi, 2 hi];
  an integrand that overflows a float on a piece raises DomainError naming
  that piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from ._quadrature import quad
from .errors import ClassViolation, DomainError, HypothesisViolation
from .gamma import gamma_fn
from .grid import GridFunction
from .solvers import ProblemKind, ProblemSpec

__all__ = [
    "ComparisonFunction",
    "LipschitzClassFunction",
    "BoundReport",
    "bihari_transform",
    "bihari_inverse",
    "bihari_bound",
    "bihari_bound_curve",
    "linear_class_bound",
    "convolution_holder_constant",
    "lq_bihari_bound",
    "growth_envelope_constants",
    "lipschitz_growth_constant",
    "singular_convolution_constant",
    "uniform_bound_constant",
    "reciprocal_tail_verdict",
    "dyadic_pieces",
]

@dataclass(frozen=True)
class ComparisonFunction:
    """A nondecreasing positive nonlinearity phi on (0, inf) with the
    sub-homogeneity (1/v) phi(w) <= phi(w/v) for v >= 1.

    Sub-homogeneity holds exactly when phi(s)/s is nonincreasing (put
    s = w/v), so `validate` samples phi once on a 512-point geometric
    lattice of [1e-6, 100] (step 1e8^(1/511) ~ 1.037) and checks that phi is
    positive, nondecreasing, and that phi(s)/s never rises above its running
    minimum, which compares every pair of samples.

    xi0 is the lower limit of the reciprocal-integral transform; the
    transform is only ever evaluated at arguments >= xi0 (smaller arguments
    are clamped up, which can only raise the resulting bounds).
    """

    fn: Callable[[float], float]
    xi0: float = 1e-8
    name: str = "phi"

    def __post_init__(self):
        if not self.xi0 > 0:
            raise DomainError("xi0 must be positive")

    def __call__(self, s: float) -> float:
        return float(self.fn(s))

    def validate(self) -> None:
        """Sampled class check; raises ClassViolation on the first failure."""
        ss = np.geomspace(1e-6, 100.0, 512)
        vals = np.array([self(s) for s in ss])
        if np.any(vals <= 0):
            raise ClassViolation(f"{self.name}: not positive on sampled range")
        if np.any(np.diff(vals) < -1e-12 * np.abs(vals[:-1])):
            raise ClassViolation(f"{self.name}: not nondecreasing on sampled range")
        ratio = vals / ss
        rises = np.flatnonzero(ratio[1:] > np.minimum.accumulate(ratio)[:-1] * (1.0 + 1e-12))
        if rises.size:  # w = ss[i] against the sample of least ratio before it
            i = rises[0] + 1
            raise ClassViolation(f"{self.name}: sub-homogeneity fails at w={ss[i]:.3g}, "
                                 f"v={ss[i] / ss[np.argmin(ratio[:i])]:.3g}")


@dataclass(frozen=True)
class LipschitzClassFunction:
    """A two-argument F(tau, s) >= 0, nondecreasing in s with one-sided
    Lipschitz majorant N(tau): 0 <= F(tau,s) - F(tau,r) <= N(tau)(s-r)."""

    fn: Callable[[float, float], float]
    majorant: Callable[[float], float]
    name: str = "F"

    def __call__(self, tau: float, s: float) -> float:
        return float(self.fn(tau, s))

    def majorant_at(self, tau: float) -> float:
        return float(self.majorant(tau))

    def validate(self) -> None:
        taus = np.geomspace(1e-4, 50.0, 64)
        ss = np.linspace(0.0, 50.0, 64)
        for tau in taus[::4]:
            ntau = self.majorant_at(tau)
            if ntau < 0:
                raise ClassViolation(f"{self.name}: majorant negative at tau={tau:.3g}")
            fvals = np.array([self(tau, s) for s in ss])
            diffs = np.diff(fvals)
            if np.any(diffs < -1e-10):
                raise ClassViolation(
                    f"{self.name}: not nondecreasing in second argument at tau={tau:.3g}")
            steps = np.diff(ss)
            if np.any(diffs > ntau * steps * (1.0 + 1e-9) + 1e-12):
                raise ClassViolation(
                    f"{self.name}: majorant bound fails at tau={tau:.3g}")


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound constants plus (optionally) the bound curve sampled
    on the relevant solution grid."""

    constants: dict[str, float] = field(default_factory=dict)
    curve: GridFunction | None = None


def bihari_transform(phi: ComparisonFunction, xi: float) -> float:
    """E(xi) = integral of 1/phi from xi0 to a finite xi (by `quad`).

    Integrated in log coordinates (s = e^u), which keeps the integrand's
    dynamic range flat for the power-law comparison functions even when
    xi0 is many decades below xi.
    """
    if not phi.xi0 <= xi < math.inf:
        raise DomainError(f"xi={xi} outside the transform's domain [xi0={phi.xi0}, inf)")
    if xi == phi.xi0:
        return 0.0

    def integrand(u: float) -> float:
        s = math.exp(u)
        try:
            v = phi(s)
        except OverflowError:
            return 0.0  # phi astronomically large: nothing left to integrate
        if v <= 0:
            raise ClassViolation(f"{phi.name}: non-positive value {v} at s={s:.6g}")
        if math.isinf(v):
            return 0.0
        return s / v

    return float(quad(integrand, math.log(phi.xi0), math.log(xi)))


def _transform_clamped(phi: ComparisonFunction, x: float) -> float:
    return bihari_transform(phi, max(x, phi.xi0))


def bihari_inverse(phi: ComparisonFunction, y: float, lo_hint: float | None = None) -> float:
    """Inverse of the transform: the xi >= xi0 with E(xi) = y, by Newton
    steps xi <- xi + (y - E(xi)) phi(xi) from lo_hint (xi0 by default).

    E' = 1/phi, and E is concave for a nondecreasing phi, so a step from
    either side lands at or below the root and the iterates then climb to
    it.  A step that leaves the bracket seen so far takes the bracket's
    geometric midpoint instead, which keeps a phi outside the class
    converging.  Returns math.inf (the blow-up signal) when y exceeds the
    supremum of E, which happens exactly when the reciprocal integral of phi
    converges: the climb passes 1e280 or phi overflows.
    """
    y = float(y)  # a numpy y would make an overflow below a RuntimeWarning
    if y < 0:
        raise DomainError(f"transform inverse needs y >= 0, got {y}")
    if y == 0.0:
        return phi.xi0
    if math.isinf(y):
        return math.inf
    lo, hi = phi.xi0, math.inf  # E(lo) <= y < E(hi)
    xi = lo if lo_hint is None else max(lo_hint, lo)
    for _ in range(300):
        e = bihari_transform(phi, xi)
        if e <= y:
            lo = xi
        else:
            hi = xi
        try:
            slope = phi(xi)
        except OverflowError:
            slope = math.inf
        step = (y - e) * slope
        if abs(step) <= 1e-13 * xi:
            return xi + step
        xi += step
        if not lo < xi < hi:
            xi = math.sqrt(lo * hi)
        if xi > 1e280:
            return math.inf
    raise RuntimeError(f"bihari_inverse({phi.name}, {y!r}) did not converge in 300 steps")


def _check_nonnegative(g: GridFunction, what: str) -> None:
    if np.any(g.values < 0):
        raise DomainError(f"{what} must be non-negative on the grid")


def _first_branch(phi: ComparisonFunction, base: float, e_base: float,
                  w01: float) -> tuple[float, float, float, float]:
    """(K, C1, A, E(A)) of a two-branch Bihari envelope, given e_base = E(base)
    and w01, the integral of c3 g over [0, 1]: C1 = Einv(K) with
    K = e_base + w01 bounds the times below 1, and the tau^gamma branch
    starts from A = base + phi(C1) w01.  A is inf when C1 is, E(A) when A is."""
    k = e_base + w01
    c1 = bihari_inverse(phi, k)
    a = base + phi(c1) * w01 if math.isfinite(c1) else math.inf
    return k, c1, a, (_transform_clamped(phi, a) if math.isfinite(a) else math.inf)


def bihari_bound(c1: float, c2: float, c3: float, gamma: float,
                 g: GridFunction, phi: ComparisonFunction, tau: float) -> float:
    """Two-branch nonlinear integral-inequality bound.

    For z <= c1 + c2 tau^gamma + c3 tau^gamma * int_0^tau g(s) phi(z(s)) ds
    the bound is
        tau < 1:  Einv( E(|c1|+|c2|) + |c3| int_0^tau g )
        tau >= 1: tau^gamma Einv( E(A) + |c3| int_1^tau s^gamma g(s) ds )
    with A = |c1|+|c2|+|c3| phi(Einv(C)) int_0^1 g and
    C = E(|c1|+|c2|) + |c3| int_0^1 g.
    """
    curve = bihari_bound_curve(c1, c2, c3, gamma, g, phi, taus=np.array([tau]))
    return float(curve[0])


def bihari_bound_curve(c1: float, c2: float, c3: float, gamma: float,
                       g: GridFunction, phi: ComparisonFunction,
                       taus: np.ndarray | None = None) -> np.ndarray:
    """bihari_bound evaluated at many times in one pass (times ascending)."""
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    phi.validate()
    _check_nonnegative(g, "g")
    if taus is None:
        taus = g.taus
    taus = np.asarray(taus, dtype=float)
    if np.any(np.diff(taus) < 0):
        raise DomainError("evaluation times must be ascending")
    if taus.size and taus[-1] > g.t_end * (1 + 1e-12):
        raise DomainError("evaluation times extend past the grid")

    base0 = abs(c1) + abs(c2)
    c3a = abs(c3)
    e_base0 = _transform_clamped(phi, base0)

    if taus.size and taus[-1] >= 1.0:
        if g.t_end < 1.0:
            raise DomainError("grid must cover [0, 1] for times >= 1")
        *_, e_a = _first_branch(phi, base0, e_base0, c3a * g.integral_to(1.0))
        wg = g.with_values(g.taus ** gamma * g.values)
        w1 = wg.integral_to(1.0)

    out = np.empty(taus.size)
    hint = None
    for i, t in enumerate(taus):
        if t < 1.0:
            arg = e_base0 + c3a * g.integral_to(float(t))
            val = bihari_inverse(phi, arg, lo_hint=hint)
            hint = val if math.isfinite(val) else hint
            out[i] = val
        else:  # e_a = inf makes the argument inf, whose inverse is inf
            arg = e_a + c3a * (wg.integral_to(float(t)) - w1)
            val = bihari_inverse(phi, arg)
            out[i] = t ** gamma * val if math.isfinite(val) else math.inf
    return out


def linear_class_bound(c1: float, c2: float, c3: float, c4: float, gamma: float,
                       F1: LipschitzClassFunction, F2: LipschitzClassFunction,
                       h: GridFunction, tau: float) -> float:
    """Linear (Gronwall-type) bound for Lipschitz-majorant classes.

    For z <= c1 tau^gamma + c2 tau^gamma int_0^tau [F1(s, z+c3) + F2(s, z+c4)
    + h(s)] ds the bound is tau^gamma * f(tau) with
        f(tau) = (c1 + c2 int_0^tau [F1(s,c3)+F2(s,c4)+h(s)] ds)
                 * exp(c2 int_0^tau s^gamma [N1(s)+N2(s)] ds).
    """
    for name, c in (("c1", c1), ("c2", c2), ("c3", c3), ("c4", c4)):
        if c <= 0:
            raise DomainError(f"{name} must be positive, got {c}")
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    F1.validate()
    F2.validate()
    _check_nonnegative(h, "h")
    if tau == 0.0:
        return 0.0 if gamma > 0 else c1

    i_f = quad(lambda s: F1(s, c3) + F2(s, c4), 0.0, tau)
    i_h = h.integral_to(tau)
    i_n = quad(lambda s: s ** gamma * (F1.majorant_at(s) + F2.majorant_at(s)),
               0.0, tau)
    return tau ** gamma * (c1 + c2 * (i_f + i_h)) * math.exp(c2 * i_n)


def convolution_holder_constant(upsilon: float, lam: float, r: float) -> float:
    """Constant C in the Hoelder bound for weakly singular convolutions:

        int_0^tau (tau-s)^(upsilon-1) s^lam g(s) ds
            <= C tau^(upsilon+lam-1/r) (int_0^tau g^r)^(1/r)

    with p the conjugate exponent of r and

        C = [Gamma(p lam + 1) Gamma(p(upsilon-1) + 1)
                 / Gamma(p lam + p(upsilon-1) + 2)] ** (1/p),

    the L^p norm of the kernel pair; without the 1/p root the inequality is
    false (g = 1, upsilon = lam = 1, r = 2 gives tau^2/2 on the left but
    tau^2/3 on the right).  Requires upsilon > 1/r and lam + 1 > 1/r
    (equivalently, both Gamma arguments positive).
    """
    if r <= 1:
        raise DomainError(f"r must exceed 1, got {r}")
    if upsilon <= 1.0 / r:
        raise DomainError(f"need upsilon > 1/r, got upsilon={upsilon}, r={r}")
    if lam + 1.0 <= 1.0 / r:
        raise DomainError(f"need lam + 1 > 1/r, got lam={lam}, r={r}")
    p = r / (r - 1.0)
    return (gamma_fn(p * lam + 1.0) * gamma_fn(p * (upsilon - 1.0) + 1.0)
            / gamma_fn(p * lam + p * (upsilon - 1.0) + 2.0)) ** (1.0 / p)


def _composite_power_nonlinearity(phi1: ComparisonFunction, phi2: ComparisonFunction,
                                  q: float) -> ComparisonFunction:
    """phi1^q(s^(1/q)) * phi2^q(s^(1/q)) as a comparison function, with the
    smaller of the two transform bases."""
    def fn(s: float) -> float:
        root = s ** (1.0 / q)
        return phi1(root) ** q * phi2(root) ** q

    return ComparisonFunction(fn, xi0=min(phi1.xi0, phi2.xi0),
                              name=f"({phi1.name}*{phi2.name})^{q}")


def lq_bihari_bound(k1: float, k2: float, q: float, h: GridFunction,
                    phi1: ComparisonFunction, phi2: ComparisonFunction,
                    tau: float, variant: str = "corrected") -> float:
    """L^q-type nonlinear bound.

    For z <= k1 + k2 (int_0^tau h^q phi1^q(z) phi2^q(z) ds)^(1/q) the bound
    is [Einv(E(2^(q-1) K) + 2^(q-1) k2 int_0^tau h^q ds)]^(1/q) where the
    transform is built from phi1^q(s^(1/q)) phi2^q(s^(1/q)), based at the
    smaller of phi1.xi0 and phi2.xi0.

    variant selects the power of k1 inside the transform: 'literal' keeps
    K = k1 (the raw additive constant), 'corrected' uses K = k1^q as the
    q-th-power substitution derivation requires.  Under the corrected
    reading the caller must also pass the q-th power of the inequality's
    integral coefficient as k2 for the bound to be valid.  A constant
    2^(q-1) K that overflows a float raises DomainError.
    """
    if q <= 1:
        raise DomainError(f"q must exceed 1, got {q}")
    if k1 < 0 or k2 < 0:
        raise DomainError("k1 and k2 must be non-negative")
    phi1.validate()
    phi2.validate()
    _check_nonnegative(h, "h")
    return _lq_root(k1, k2, q, _composite_power_nonlinearity(phi1, phi2, q),
                    h.with_values(h.values ** q).integral_to(tau), variant)


def _lq_root(k1: float, k2: float, q: float, comp: ComparisonFunction,
             hq_integral: float, variant: str) -> float:
    """lq_bihari_bound from its composite comp and the integral of h^q to tau."""
    if variant not in ("corrected", "literal"):
        raise DomainError(f"variant must be 'corrected' or 'literal', got {variant!r}")
    try:
        base = 2.0 ** (q - 1.0) * (k1 ** q if variant == "corrected" else k1)
    except OverflowError:  # a float power that overflows raises, a product is inf
        base = math.inf
    if math.isinf(base):
        raise DomainError("L^q bound constant 2^(q-1) K overflows a float")
    arg = _transform_clamped(comp, base) + 2.0 ** (q - 1.0) * k2 * hq_integral
    inv = bihari_inverse(comp, arg)
    return inv ** (1.0 / q) if math.isfinite(inv) else math.inf


def dyadic_pieces(f: Callable[[float], float], lo: float) -> Iterator[tuple[float, float]]:
    """Yield (hi, int_lo^hi f) by quad for hi = max(1, 2 lo), then for each
    next piece [hi, 2 hi], without end; an overflow of f, or a piece whose
    upper end overflows a float, is a DomainError naming the piece."""
    hi = max(1.0, 2.0 * lo)
    while True:
        if math.isinf(hi):
            raise DomainError(f"the piece [{lo:g}, {hi:g}] of a tail integral has no "
                              f"finite upper end")
        try:
            val = quad(f, lo, hi)
        except OverflowError:
            raise DomainError(f"tail integrand overflows a float on the piece "
                              f"[{lo:g}, {hi:g}]") from None
        yield hi, val
        lo, hi = hi, 2.0 * hi


def reciprocal_tail_verdict(fn: Callable[[float], float]) -> str:
    """Classify int^inf ds / fn(s): 'diverges', 'converges' or 'inconclusive'.

    Works on the 9 dyadic pieces of the reciprocal integrand on [2^35, 2^44];
    the piece ratio of a power-law tail s^p is 2^(1-p), so ratios >= 1 pin
    divergence and ratios bounded below 1 pin convergence.
    """
    pieces = [val for _, val in islice(dyadic_pieces(lambda s: 1.0 / fn(s), 2.0 ** 35), 9)]
    ratios = [pieces[i + 1] / pieces[i] for i in range(len(pieces) - 1) if pieces[i] > 0]
    if not ratios:
        return "converges"  # reciprocal integrand vanished identically
    if min(ratios) >= 1.0 - 1e-3:
        return "diverges"
    if max(ratios) <= 0.95:
        return "converges"
    return "inconclusive"


def _require_divergent_transform(phi: ComparisonFunction) -> None:
    verdict = reciprocal_tail_verdict(phi)
    if verdict != "diverges":
        raise HypothesisViolation(
            f"reciprocal integral of {phi.name} must diverge for the bound to "
            f"hold globally (verdict: {verdict})")


def growth_envelope_constants(b1: float, b2: float, alpha: float,
                              P: GridFunction, phi: ComparisonFunction,
                              tail_integral: float) -> BoundReport:
    """Two-branch growth envelope |x(tau)| <= C1 (tau<1), C2 tau^alpha (tau>=1)
    for the sequential problem whose source is weight-bounded by
    |f| <= P(tau) phi(|x|).

    tail_integral is the full improper integral of s^alpha P(s) over
    [1, inf).  A constant C1, A or C2 that overflows a float (the transform's
    inverse climbing past 1e280 counts) raises DomainError naming it.
    """
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    phi.validate()
    _check_nonnegative(P, "P")
    if P.t_end < 1.0:
        raise DomainError("P must be sampled on a grid covering [0, 1]")
    _require_divergent_transform(phi)
    if not math.isfinite(tail_integral):
        raise HypothesisViolation(
            "the weighted tail integral of P must be finite for the envelope")

    ga1 = gamma_fn(alpha + 1.0)
    base = abs(b1) + abs(b2) / ga1
    k_const, c1_const, a_const, e_a = _first_branch(
        phi, base, _transform_clamped(phi, base), P.integral_to(1.0) / ga1)
    c2_const = bihari_inverse(phi, e_a + tail_integral / ga1)
    for name, value in (("C1", c1_const), ("A", a_const), ("C2", c2_const)):
        if math.isinf(value):
            raise DomainError(f"growth envelope constant {name} overflows a float")

    taus = P.taus
    curve = np.where(taus < 1.0, c1_const, c2_const * taus ** alpha)
    return BoundReport(
        constants={"C1": c1_const, "C2": c2_const, "A": a_const, "K": k_const,
                   "alpha": alpha, "tail_integral": tail_integral},
        curve=GridFunction(P.t_end, curve),
    )


def _improper_integral(fn: Callable[[float], float], what: str) -> float:
    """Integral of fn over [0, inf) by horizon doubling; raises
    HypothesisViolation when the pieces past 1 do not settle."""
    pieces = dyadic_pieces(fn, 0.0)
    _, total = next(pieces)
    settled = 0
    for _, piece in islice(pieces, 64):
        total += piece
        if abs(piece) <= 1e-12 * (1.0 + abs(total)):
            settled += 1
            if settled >= 2:
                return total
        else:
            settled = 0
    raise HypothesisViolation(f"{what} did not settle under horizon doubling")


def lipschitz_growth_constant(b1: float, b2: float, alpha: float, beta: float,
                              F1: LipschitzClassFunction,
                              F2: LipschitzClassFunction) -> BoundReport:
    """Growth constant for the sequential problem with majorant-class source:
    |x(tau)| <= |b1| + C tau^alpha and tau^beta |Dbeta x| <= |b1| + C tau^alpha,

        C = (C2 + C3 int_0^inf [F1(s,|b1|) + F2(s,|b1|)] ds)
            * exp(C3 int_0^inf s^alpha [N1(s) + N2(s)] ds),
        C3 = max(1/Gamma(alpha+1), 1/Gamma(alpha-beta+1)),  C2 = |b2| C3.

    The weight in the exponential integral is s^alpha (the linear-class
    bound applied with gamma = alpha).
    """
    if not 0 < beta < alpha < 1:
        raise DomainError(f"need 0 < beta < alpha < 1, got beta={beta}, alpha={alpha}")
    F1.validate()
    F2.validate()
    c3 = max(1.0 / gamma_fn(alpha + 1.0), 1.0 / gamma_fn(alpha - beta + 1.0))
    c2 = abs(b2) * c3
    ab = abs(b1)
    i_f = _improper_integral(lambda s: F1(s, ab) + F2(s, ab),
                             "integral of the majorant-class sources")
    i_n = _improper_integral(
        lambda s: s ** alpha * (F1.majorant_at(s) + F2.majorant_at(s)),
        "weighted integral of the Lipschitz majorants")
    c = (c2 + c3 * i_f) * math.exp(c3 * i_n)
    return BoundReport(
        constants={"C": c, "C2": c2, "C3": c3, "alpha": alpha, "beta": beta,
                   "b1": b1, "source_integral": i_f, "majorant_integral": i_n},
    )


def _beta_ratio(a: float, b: float) -> float:
    """Gamma(b+1) Gamma(a) / Gamma(a+b+1); needs a > 0 and b > -1."""
    if a <= 0 or b <= -1:
        raise DomainError(f"beta-ratio needs a > 0 and b > -1, got a={a}, b={b}")
    return gamma_fn(b + 1.0) * gamma_fn(a) / gamma_fn(a + b + 1.0)


def singular_convolution_constant(alpha: float, beta: float, q: float,
                                  tau0: float) -> float:
    """The L^q operator constant for the pair of weakly singular
    convolution kernels of the direct problem:

        K1 = max( B(1+p(alpha-1), p g)^(1/p) / Gamma(alpha),
                  B(1+p(alpha-beta-1), p g)^(1/p)
                        / (Gamma(alpha-beta) tau0^beta) )

    with B the beta-ratio above, g = 1/q - alpha, and p conjugate to q.
    Requires q > 1/(alpha - beta) and tau0 > 0; that precondition makes both
    beta-ratio arguments positive (for the first one it is equivalent to
    q * alpha > 1).
    """
    if not 0 <= beta < alpha < 1:
        raise DomainError(f"need 0 <= beta < alpha < 1, got beta={beta}, alpha={alpha}")
    if q <= 1.0 / (alpha - beta):
        raise DomainError(
            f"need q > 1/(alpha-beta) = {1.0 / (alpha - beta):.6g}, got q={q}")
    if tau0 <= 0:
        raise DomainError(f"tau0 must be positive, got {tau0}")
    p = q / (q - 1.0)
    g = 1.0 / q - alpha
    t1 = _beta_ratio(1.0 + p * (alpha - 1.0), p * g) ** (1.0 / p) / gamma_fn(alpha)
    t2 = (_beta_ratio(1.0 + p * (alpha - beta - 1.0), p * g) ** (1.0 / p)
          / (gamma_fn(alpha - beta) * tau0 ** beta))
    return max(t1, t2)


def uniform_bound_constant(spec: ProblemSpec, h: GridFunction,
                           phi1: ComparisonFunction, phi2: ComparisonFunction,
                           tau0: float, q: float,
                           variant: str = "corrected") -> BoundReport:
    """Uniform bound C with |x(tau)| <= C and |Dbeta x(tau)| <= C (the
    derivative bound holding for tau >= tau0) for the direct problem whose
    source satisfies |f| <= tau^(1/q - alpha) h(tau) phi1(|x|) phi2(|Dbeta x|).

    Hypotheses checked here: q > 1/(alpha-beta) (domain error) and
    divergence of the reciprocal integral of phi1^q(s^(1/q)) phi2^q(s^(1/q))
    (HypothesisViolation).  The L^q norm of h is taken over the grid
    horizon, so h must have decayed by t_end.

    Under the default corrected variant the integral coefficient inside the
    bound is K1^q, which is what the q-th-power substitution produces;
    variant='literal' keeps the un-powered K1.
    """
    if spec.kind is not ProblemKind.DIRECT:
        raise DomainError("uniform_bound_constant applies to direct problems")
    phi1.validate()
    phi2.validate()
    _check_nonnegative(h, "h")
    k1 = singular_convolution_constant(spec.alpha, spec.beta, q, tau0)
    comp = _composite_power_nonlinearity(phi1, phi2, q)
    _require_divergent_transform(comp)

    hq_total = h.with_values(h.values ** q).integral_to(h.t_end)
    if hq_total == 0.0:
        c = abs(spec.b1)
    else:
        k2 = k1 ** q if variant == "corrected" else k1
        c = _lq_root(abs(spec.b1), k2, q, comp, hq_total, variant)
    curve = GridFunction(h.t_end, np.full(h.values.size, c)) if math.isfinite(c) else None
    return BoundReport(constants={"C": c, "K1": k1, "q": q, "tau0": tau0,
                                  "hq_integral": hq_total}, curve=curve)
