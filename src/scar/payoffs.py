"""Turn payoffs, discounted total payoffs, and the parameter domain.

At a capture state the evader pays 1 and the pursuers split 1 between them:
with a fixed split parameter eps, each of the N1 capturing pursuers receives
(1-eps)/N1 and each non-capturing pursuer eps/(N-1-N1); when all N-1 pursuers
capture simultaneously each gets 1/(N-1). The split-equivalent variant instead
pays every pursuer 1/(N-1) at every capture, which makes the game's pursuer
side payoff-identical to the single-controller pursuit game.

All turn payoffs away from capture states are zero, so a play's total payoff
is the closed form gamma^T * (capture split), or zero if capture never occurs.
Only this module knows how a capture is paid: `_share` is the split rule and
`discounted` the discount rule, q times gamma once per turn as a backup does.
Whole-space float payoffs are read off `GameParams.shares`, one per capture class.
"""

from __future__ import annotations

import functools
import math
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
        return self.gamma < omega_tilde_bound(self.epsilon)

    @functools.cached_property
    def shares(self) -> np.ndarray:
        """Read-only float turn payoff of each capture class, built on first read."""
        shares = np.array([_class_payoff(self, k, False) for k in range(2 * self.n_players)])
        shares.flags.writeable = False
        return shares


def omega_tilde_bound(epsilon: float) -> float:
    """The omega-tilde region's bound on gamma: eps/(1-eps), +inf at eps >= 1."""
    return math.inf if epsilon >= 1.0 else epsilon / (1.0 - epsilon)


def _share(params: GameParams, n1: int, capturing: bool) -> tuple:
    """The split rule: one pursuer's share of a capture by n1 pursuers, as
    (numerator, divisor) with numerator "1", "(1-eps)" or "eps"."""
    ncops = params.n_players - 1
    if params.split_equivalent or n1 == ncops:
        return "1", ncops
    return ("(1-eps)", n1) if capturing else ("eps", ncops - n1)


def _class_payoff(params: GameParams, k: int, exact: bool):
    """Turn payoff of capture class k: a float, or a Fraction when `exact`."""
    if k < 2:
        return Fraction(-k) if exact else float(-k)
    numerator, divisor = _share(params, k // 2, k % 2 == 0)
    one = Fraction(1) if exact else 1.0
    if numerator == "1":
        return one / divisor
    eps = Fraction(params.epsilon) if exact else params.epsilon
    return (eps if numerator == "eps" else one - eps) / divisor


def turn_payoff(space, params: GameParams, s, player: int, exact: bool = False):
    """Immediate reward of `player` at state `s`; nonzero only at capture states."""
    return _class_payoff(params, int(space.capture_class[player - 1, space._as_index(s)]), exact)


def turn_payoffs(space, params: GameParams, player: int) -> np.ndarray:
    """`player`'s float turn payoff at every state, equal to `turn_payoff` bit for bit."""
    return params.shares[space.capture_class[player - 1]]


def discounted(gamma: float, turns, shares, key=0):
    """The discount rule: shares[key] multiplied by gamma once per turn, as a
    Bellman backup does (fl(fl(q * gamma) * gamma)..., which pow(gamma, T) * q
    may miss by an ulp), and 0 where turns < 0. A scalar `shares` is one
    share; row t of the table is every share times gamma t times."""
    shares = np.atleast_1d(shares)
    turns = np.asarray(turns)
    table = np.full((int(turns.max(initial=0)) + 2, shares.size), float(gamma))
    table[0] = shares
    np.multiply.accumulate(table, axis=0, out=table)
    table[-1] = 0.0  # the row that turns = -1 reads
    return table.ravel()[turns * shares.size + key]


def discounted_payoff(space, params: GameParams, player: int, capture_at, turns):
    """`player`'s turn payoff at the capture states `capture_at`, discounted
    over `turns` turns; 0 where turns < 0."""
    return discounted(params.gamma, turns, params.shares, space.capture_class[player - 1][capture_at])


def symbolic_payoffs(params: GameParams, capture_time: int, capturing_set: tuple) -> list:
    """Human-readable closed forms, e.g. 'eps*gamma^5' / '(1-eps)*gamma^5' / '-gamma^5'."""
    out = []
    for player in range(1, params.n_players):
        numerator, divisor = _share(params, len(capturing_set), player in capturing_set)
        coeff = numerator if divisor == 1 else f"{numerator}/{divisor}"
        out.append(f"gamma^{capture_time}" if coeff == "1" else f"{coeff}*gamma^{capture_time}")
    return out + [f"-gamma^{capture_time}"]
