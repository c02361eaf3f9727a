"""Deterministic seed derivation.

One 64-bit master seed fans out into per-run, per-instance and per-solve
seeds through splitmix64 applied along a path of integers. Derivation is
pure: equal (seed, path) always give the same child. Two limits hold today:

* The seed is XORed into the first path step before any mixing, so
  derive(s, a, ...) depends on s ^ a alone. Master seeds collide: the run
  seeds derive(s, i) of master seed s are those of master seed s ^ 1 with
  i ^ 1, so `solve --seed 0 --runs 2` and `--seed 1 --runs 2` print the
  same two runs in swapped order.
* One pipeline rng is shared by every combination of a run_pipeline call,
  in demand order, so a combination's witness and coins depend on every
  earlier combination. Only the solver seed is derived per invocation.

ROADMAP item 1 (seed scheme v2) fixes both.
"""

from __future__ import annotations

import random

MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 scramble step; full-period permutation of 64-bit ints."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive(seed: int, *path: int) -> int:
    """Derive a child seed from `seed` and an integer path.

    The chain is x = seed, then x = splitmix64(x ^ step ^ const) per path
    step. Children of one prefix differ in their last step with
    overwhelming probability, but the seed is not mixed before the first
    step, so the result depends on seed ^ path[0], not on the two apart.
    """
    x = seed & MASK64
    for p in path:
        x = splitmix64(x ^ (p & MASK64) ^ 0xA5A5A5A5A5A5A5A5)
    return x


def label_path(text: str) -> int:
    """Stable integer for a string path component (stream names)."""
    x = 0xCBF29CE484222325
    for ch in text.encode():
        x = ((x ^ ch) * 0x100000001B3) & MASK64
    return x


def stream(seed: int, name: str, *path: int) -> random.Random:
    """A stdlib Random seeded from (seed, name, path)."""
    return random.Random(derive(seed, label_path(name), *path))
