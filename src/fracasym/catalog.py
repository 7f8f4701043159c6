"""Named building blocks referenced by experiment configurations.

An experiment JSON refers by name to right-hand sides, comparison
functions and weight or tail integrands (with their analytic tail tags).
Each name space is one table here, `name -> (factory, listing text)`, read
by one lookup.  The exact solutions of the manufactured problems live here
too.  Keeping the registry data-driven is what makes configs pure data and
runs reproducible.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .bounds import ComparisonFunction, TailIntegrand
from .errors import ConfigError, DomainError
from .gamma import gamma_fn
from .solvers import ProblemKind, ProblemSpec, RightHandSide

__all__ = [
    "signed_power",
    "make_rhs",
    "make_phi",
    "make_integrand",
    "exact_solution",
    "RHS",
    "PHI",
    "INTEGRANDS",
    "builtin_config_ids",
    "BUILTIN_CONFIGS",
]


def signed_power(u, p: float):
    """sign(u) |u|^p, elementwise: the real odd-power extension used by the
    catalog nonlinearities, so trajectories may cross zero without leaving
    the reals.  The growth hypotheses only ever see |u|^p, so bounds are
    unaffected."""
    return np.sign(u) * np.abs(u) ** p


def _signed_power_slope(u, p: float):
    """d/du signed_power(u, p) = p |u|^(p-1); infinite at 0 when p < 1."""
    return p * np.abs(u) ** (p - 1.0)


# --------------------------------------------------------------------------
# right-hand sides

def _rhs_zero() -> RightHandSide:
    return RightHandSide(lambda tau, u, v: 0.0, state_independent=True)


def _rhs_exp_decay_power(rate: float = 1.0, exponent: float = 0.5) -> RightHandSide:
    if rate <= 0:
        raise ConfigError(f"exp_decay_power needs rate > 0, got {rate}")
    if not 0 < exponent <= 1:
        raise ConfigError(f"exp_decay_power needs exponent in (0, 1], got {exponent}")

    def fn(tau, u, v):
        return np.exp(-rate * tau) * signed_power(u, exponent)

    def partials(tau, u, v):
        damp = np.exp(-rate * tau)
        return damp * signed_power(u, exponent), damp * _signed_power_slope(u, exponent), 0.0

    return RightHandSide(fn, partials=partials)


def _rhs_damped_singular_product(pre_exponent: float, rate: float = 1.0,
                                 u_exponent: float = 0.6, v_exponent: float = 1.0 / 3.0,
                                 forcing: float = 0.0) -> RightHandSide:
    if rate <= 0:
        raise ConfigError(f"damped_singular_product needs rate > 0, got {rate}")

    def fn(tau, u, v):
        return (tau ** pre_exponent * np.exp(-rate * tau)
                * (signed_power(u, u_exponent) * signed_power(v, v_exponent)
                   * np.cos(v) + forcing))

    def partials(tau, u, v):
        prefactor = tau ** pre_exponent * np.exp(-rate * tau)
        su, sv, cos = signed_power(u, u_exponent), signed_power(v, v_exponent), np.cos(v)
        return (prefactor * (su * sv * cos + forcing),
                prefactor * _signed_power_slope(u, u_exponent) * sv * cos,
                prefactor * su * (_signed_power_slope(v, v_exponent) * cos - sv * np.sin(v)))

    return RightHandSide(fn, singular_at_zero=pre_exponent < 0, partials=partials)


def _rhs_manufactured_power(mu: float, alpha: float, kind: str) -> RightHandSide:
    """Source that makes x(tau) = tau^mu the exact solution (state-independent)."""
    if mu <= alpha:
        raise ConfigError(f"manufactured power needs mu > alpha, got mu={mu}")
    coeff = gamma_fn(mu + 1.0) / gamma_fn(mu + 1.0 - alpha)
    if kind == "direct":
        expo = mu - alpha

        def fn(tau, u, v):
            return coeff * tau ** expo
    else:
        expo = mu - alpha - 1.0
        if expo < 0:
            raise ConfigError(
                f"sequential manufactured power needs mu >= alpha + 1, got mu={mu}")
        scale = coeff * (mu - alpha)

        def fn(tau, u, v):
            return scale * tau ** expo

    return RightHandSide(fn, state_independent=True)


# name -> (factory, text `fracasym catalog` lists)
RHS: dict[str, tuple[Callable[..., RightHandSide], str]] = {
    "damped_singular_product": (
        _rhs_damped_singular_product,
        "tau^pre_exponent exp(-rate*tau) * (x^u_exponent * Dbeta^v_exponent "
        "* cos(Dbeta) + forcing)  [params: pre_exponent, rate, u_exponent, "
        "v_exponent, forcing]"),
    "exp_decay_power": (_rhs_exp_decay_power,
                        "exp(-rate*tau) * x^exponent  [params: rate, exponent]"),
    "manufactured_power_mu": (
        _rhs_manufactured_power,
        "state-independent source with exact solution tau^mu  [params: mu]"),
    "zero": (_rhs_zero, "f = 0; closed-form solutions"),
}


def _build(table: dict, kind: str, name: str, params: dict):
    if name not in table:
        raise ConfigError(f"unknown {kind} {name!r}; known: {sorted(table)}")
    try:
        return table[name][0](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {kind} {name!r}: {exc}") from exc


def make_rhs(name: str, params: dict | None, alpha: float, kind: str) -> RightHandSide:
    params = dict(params or {})
    if name == "manufactured_power_mu":
        for key in ("alpha", "kind"):
            if key in params:
                raise ConfigError(f"rhs {name!r} takes {key} from the problem, "
                                  f"not from its param {key!r}")
        params.update(alpha=alpha, kind=kind)
    return _build(RHS, "rhs", name, params)


# --------------------------------------------------------------------------
# comparison functions

def _phi_exponent(exponent: float) -> float:
    r = float(exponent)
    if not 0 < r <= 1:
        raise ConfigError(f"power comparison function needs exponent in (0,1], got {r}")
    return r


def _phi_constant(value: float = 1.0) -> ComparisonFunction:
    c = float(value)
    if c <= 0:
        raise ConfigError(f"constant comparison function needs value > 0, got {c}")
    return ComparisonFunction(lambda s: c, name=f"const {c}")


def _phi_identity() -> ComparisonFunction:
    return ComparisonFunction(lambda s: s, name="identity")


def _phi_power(exponent: float) -> ComparisonFunction:
    r = _phi_exponent(exponent)
    return ComparisonFunction(lambda s: s ** r, name=f"s^{r}")


def _phi_power_plus_one(exponent: float) -> ComparisonFunction:
    r = _phi_exponent(exponent)
    return ComparisonFunction(lambda s: s ** r + 1.0, name=f"s^{r}+1")


# name -> (factory, text `fracasym catalog` lists)
PHI: dict[str, tuple[Callable[..., ComparisonFunction], str]] = {
    "constant": (_phi_constant, "phi(s) = value > 0  [params: value]"),
    "identity": (_phi_identity, "phi(s) = s"),
    "power": (_phi_power, "phi(s) = s^exponent, exponent in (0, 1]  [params: exponent]"),
    "power_plus_one": (_phi_power_plus_one, "phi(s) = s^exponent + 1  [params: exponent]"),
}


def make_phi(name: str, params: dict | None = None) -> ComparisonFunction:
    return _build(PHI, "comparison function", name, dict(params or {}))


# --------------------------------------------------------------------------
# weights and tail integrands

def _exp_decay(rate: float = 1.0) -> TailIntegrand:
    if rate <= 0:
        raise ConfigError(f"exp_decay needs rate > 0, got {rate}")
    return TailIntegrand("exp_decay", lambda s: np.exp(-rate * s), "exponential")


def _power(exponent: float) -> TailIntegrand:
    return TailIntegrand("power", lambda s: 1.0, "power", tail_exponent=exponent)


def _power_exp(exponent: float, rate: float = 1.0) -> TailIntegrand:
    if rate <= 0:
        raise ConfigError(f"power_exp needs rate > 0, got {rate}")
    return TailIntegrand("power_exp", lambda s: np.exp(-rate * s), "exponential",
                         tail_exponent=exponent)


# name -> (factory, text `fracasym catalog` lists)
INTEGRANDS: dict[str, tuple[Callable[..., TailIntegrand], str]] = {
    "exp_decay": (_exp_decay, "exp(-rate*s)  [params: rate]"),
    "power": (_power, "s^exponent  [params: exponent]"),
    "power_exp": (_power_exp, "s^exponent exp(-rate*s)  [params: exponent, rate]"),
}


def make_integrand(name: str, params: dict | None = None) -> TailIntegrand:
    return _build(INTEGRANDS, "integrand", name, dict(params or {}))


# --------------------------------------------------------------------------
# exact solutions for study configs

def exact_solution(problem: dict) -> Callable[[np.ndarray], np.ndarray] | None:
    """Exact x(tau) for the catalog problems that have one, else None."""
    rhs = problem["rhs"]["name"]
    alpha = float(problem["alpha"])
    kind = problem["kind"]
    b1 = float(problem.get("b1", 0.0))
    b2 = float(problem.get("b2", 0.0))
    if rhs == "zero":
        if kind == "direct":
            return lambda taus: np.full_like(np.asarray(taus, dtype=float), b1)
        ga1 = gamma_fn(alpha + 1.0)
        return lambda taus: b1 + b2 / ga1 * np.asarray(taus, dtype=float) ** alpha
    if rhs == "manufactured_power_mu":
        mu = float(problem["rhs"]["params"]["mu"])
        if b1 != 0.0 or b2 != 0.0:
            raise ConfigError("manufactured problems need zero initial data")
        return lambda taus: np.asarray(taus, dtype=float) ** mu
    return None


def build_problem_spec(problem: dict) -> ProblemSpec:
    kind_name = problem["kind"]
    try:
        kind = ProblemKind(kind_name)
    except ValueError:
        raise ConfigError(f"unknown problem kind {kind_name!r}") from None
    rhs_cfg = problem["rhs"]
    rhs = make_rhs(rhs_cfg["name"], rhs_cfg.get("params"), float(problem["alpha"]),
                   kind_name)
    try:
        return ProblemSpec(
            kind=kind,
            alpha=float(problem["alpha"]),
            beta=float(problem.get("beta", 0.0)),
            b1=float(problem["b1"]),
            b2=float(problem.get("b2", 0.0)),
            rhs=rhs,
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


# --------------------------------------------------------------------------
# builtin experiment configs (shipped as package data)

BUILTIN_CONFIGS = {
    "example46": "sequential problem with exponentially damped square-root feedback; "
                 "slope, tail-identity and growth-envelope checks",
    "example63": "direct problem with singular-prefactor product nonlinearity; "
                 "uniform-bound and divergence-hypothesis checks",
    "example63_forced": "forced variant of example63 with non-trivial dynamics",
    "zero_rhs": "f = 0 smoke run with closed-form expectations",
    "manufactured_tau2": "direct problem with exact solution tau^2 (convergence study)",
    "manufactured_tau2_seq": "sequential problem with exact solution tau^2 "
                             "(convergence study)",
    "hypothesis_violation": "boundedness check whose divergence hypothesis fails "
                            "(exit-code contract demo)",
}


def builtin_config_ids() -> list[str]:
    return sorted(BUILTIN_CONFIGS)
