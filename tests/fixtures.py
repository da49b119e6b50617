"""Synthetic benchmark with a planted, partly non-linear fraud signal.

The stock generator plants fraud uniformly within each payment type, so
every classifier family scores about the same on it. This module relabels
a generated stream with a composite signal built from three ingredients:

* a linear core: transactions received in any currency other than GBP
  are almost always fraud. After one-hot encoding this is a rule over
  single indicator columns, so an additive model expresses it exactly.
* an interaction grid: over the sender pair (Italy, Netherlands) and the
  receiver pair (Canada, Japan), exactly the diagonal corridors
  Italy->Canada and Netherlands->Japan are fraudulent. The paired
  locations carry equal base weights (0.05 and 0.02), so the four cells
  have identical one-hot marginals and no additive model can separate
  the diagonal from the off-diagonal; a depth-2 interaction is required.
* a small uniform background rate, irreducible noise for every model.

The grid is deliberately small next to the core: class rebalancing
amplifies odds by roughly the inverse prevalence, and keeping every
location marginal's raw fraud rate well under that crossing point is
what stops an additive model from alerting whole location slices.

Labels are drawn from a dedicated random stream so the relabeled dataset
is deterministic given (seed, count) and independent of how the base
transactions were produced.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from amlstream.txgen import GeneratorConfig, Transaction, generate

CORE_SAFE_CURRENCY = "GBP"  # receiving anything else is the linear signal
CORE_RATE = 0.97

FRAUD_CORRIDORS = (("Italy", "Canada"), ("Netherlands", "Japan"))
XOR_RATE = 0.95

BACKGROUND_RATE = 0.0008

LABEL_SEED_OFFSET = 104_729  # decouples the label stream from the base stream

DEFAULT_COUNT = 200_000
DEFAULT_SEED = 13


def planted_fraud_probability(t: Transaction) -> float:
    """True fraud probability the benchmark assigns to one transaction."""
    if t.received_currency != CORE_SAFE_CURRENCY:
        return CORE_RATE
    if (t.sender_bank_location, t.receiver_bank_location) in FRAUD_CORRIDORS:
        return XOR_RATE
    return BACKGROUND_RATE


def relabel(transactions, seed: int) -> list[Transaction]:
    """Replace labels with draws from the planted signal."""
    received = np.array([t.received_currency for t in transactions])
    senders = np.array([t.sender_bank_location for t in transactions])
    receivers = np.array([t.receiver_bank_location for t in transactions])

    p = np.full(len(transactions), BACKGROUND_RATE)
    for s, r in FRAUD_CORRIDORS:
        p[(senders == s) & (receivers == r)] = XOR_RATE
    p[received != CORE_SAFE_CURRENCY] = CORE_RATE

    rng = np.random.Generator(np.random.PCG64(seed + LABEL_SEED_OFFSET))
    labels = rng.random(len(transactions)) < p
    return [
        replace(t, is_laundering=bool(label))
        for t, label in zip(transactions, labels)
    ]


def build_signal_dataset(
    count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED
) -> list[Transaction]:
    """Generate a stream with the stock generator, then plant the signal."""
    base = generate(GeneratorConfig(seed=seed, count=count))
    return relabel(list(base), seed)
