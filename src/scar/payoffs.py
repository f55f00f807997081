"""Turn payoffs, discounted total payoffs, and the parameter domain.

At a capture state the evader pays 1 and the pursuers split 1 between them:
with a fixed split parameter eps, each of the N1 capturing pursuers receives
(1-eps)/N1 and each non-capturing pursuer eps/(N-1-N1); when all N-1 pursuers
capture simultaneously each gets 1/(N-1). The split-equivalent variant instead
pays every pursuer 1/(N-1) at every capture, which makes the game's pursuer
side payoff-identical to the single-controller pursuit game.

All turn payoffs away from capture states are zero, so a play's total payoff
is the closed form gamma^T * (capture split), or zero if capture never occurs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class GameParams:
    """Player count, discount factor, and the capture-reward split mode.

    `epsilon` must be given unless `split_equivalent` is set. The standard
    range is [0, 1/(n_players-1)]; `allow_extended_epsilon` widens it to [0, 1]
    (the equilibrium results still hold there, only the capturing-cop-earns-more
    reading is lost).
    """

    n_players: int
    gamma: float
    epsilon: float | None = None
    split_equivalent: bool = False
    allow_extended_epsilon: bool = False

    def __post_init__(self):
        if self.n_players < 2:
            raise ValidationError(f"need at least 2 players, got {self.n_players}")
        if not 0.0 < self.gamma < 1.0:
            raise ValidationError(f"gamma must lie strictly inside (0, 1), got {self.gamma}")
        if self.split_equivalent:
            if self.epsilon is not None:
                raise ValidationError("epsilon is not a free parameter in split-equivalent mode")
            return
        if self.epsilon is None:
            raise ValidationError("epsilon required (or set split_equivalent)")
        hi = 1.0 if self.allow_extended_epsilon else 1.0 / (self.n_players - 1)
        if not 0.0 <= self.epsilon <= hi:
            raise ValidationError(f"epsilon must lie in [0, {hi}], got {self.epsilon}")

    @property
    def in_omega_tilde(self) -> bool | None:
        """Strict test gamma < eps/(1-eps); None in split-equivalent mode."""
        if self.split_equivalent:
            return None
        if self.epsilon >= 1.0:
            return True  # eps/(1-eps) read as +infinity
        return self.gamma < self.epsilon / (1.0 - self.epsilon)


@dataclass(frozen=True)
class ParamsReport:
    ok: bool
    in_omega_tilde: bool | None
    message: str


def validate_params(params: GameParams) -> ParamsReport:
    """Params are validated on construction; this reports the derived flags."""
    return ParamsReport(ok=True, in_omega_tilde=params.in_omega_tilde, message="ok")


def _split(params: GameParams, n1: int, capturing: bool, exact: bool):
    """Reward to one pursuer at a capture state with n1 capturing pursuers."""
    ncops = params.n_players - 1
    one = Fraction(1) if exact else 1.0
    if params.split_equivalent:
        return one / ncops
    if n1 == ncops:
        return one / ncops
    eps = Fraction(params.epsilon) if exact else params.epsilon
    if capturing:
        return (one - eps) / n1
    return eps / (ncops - n1)


def turn_payoff(space, params: GameParams, s, player: int, exact: bool = False):
    """Immediate reward of `player` at state `s`; nonzero only at capture states."""
    idx = space._as_index(s)
    zero = Fraction(0) if exact else 0.0
    if idx == space.terminal_index or not space.is_capture[idx]:
        return zero
    if player == params.n_players:
        return -(Fraction(1) if exact else 1.0)
    n1 = int(space.capture_count[idx])
    capturing = bool(space._cop_on_robber[idx, player - 1])
    return _split(params, n1, capturing, exact)


def turn_payoff_matrix(space, params: GameParams) -> np.ndarray:
    """(n_players, n_states) float matrix of turn payoffs; zero off capture states.

    Capture states are grouped by their captor count n1, so `_split` runs once
    per distinct n1 and side; the entries equal `turn_payoff` bit for bit.
    """
    n = params.n_players
    q = np.zeros((n, space.n_states))
    cap = np.flatnonzero(space.is_capture)
    q[n - 1, cap] = -1.0
    n1_of = space.capture_count[cap]
    for n1 in np.unique(n1_of).tolist():
        rows = cap[n1_of == n1]
        q[:n - 1, rows] = np.where(space._cop_on_robber[rows].T,
                                   _split(params, n1, True, exact=False),
                                   _split(params, n1, False, exact=False))
    return q


def total_payoff(params: GameParams, trace, player: int, exact: bool = False):
    """Discounted total payoff gamma^T_C * (capture split), or 0 without capture."""
    if trace.termination == "turn_cap":
        raise ValidationError("trace hit its turn cap; payoff is undefined for inconclusive traces")
    if trace.termination == "cycle":
        return Fraction(0) if exact else 0.0
    t = trace.capture_time
    q = turn_payoff(trace.space, params, trace.states[-1], player, exact=exact)
    g = Fraction(params.gamma) if exact else params.gamma
    return g**t * q


def symbolic_payoffs(params: GameParams, capture_time: int, capturing_set: tuple) -> list:
    """Human-readable closed forms, e.g. 'eps*gamma^5' / '(1-eps)*gamma^5' / '-gamma^5'."""
    n = params.n_players
    ncops = n - 1
    n1 = len(capturing_set)
    out = []
    for player in range(1, n + 1):
        if player == n:
            coeff = "-1"
        elif params.split_equivalent or n1 == ncops:
            coeff = f"1/{ncops}" if ncops > 1 else "1"
        elif player in capturing_set:
            coeff = "(1-eps)" if n1 == 1 else f"(1-eps)/{n1}"
        else:
            coeff = "eps" if ncops - n1 == 1 else f"eps/{ncops - n1}"
        if coeff == "1":
            out.append(f"gamma^{capture_time}")
        elif coeff == "-1":
            out.append(f"-gamma^{capture_time}")
        else:
            out.append(f"{coeff}*gamma^{capture_time}")
    return out
