"""Input rules, each defined once and used by every boundary that takes the value it checks: a config field, a
model-file header entry or a public constructor's argument. A numeric rule accepts a finite real number in its
range, never a bool, and returns it as the int or float it checked, so `8` and `8.0` are stored alike. A rule's
ValueError leads with the name it was given; the config loader prefixes that with the field's section.
"""

from __future__ import annotations

import math
import numbers
from functools import partial

import numpy as np

__all__ = ["FINITE", "INTEGER", "COUNT", "SEED", "NUM_CLASSES", "SEVERITY", "NONNEGATIVE", "POSITIVE", "SHARE", "EPS",
           "integers", "pooled_shape", "one_of"]


def _number(name: str, value, lo: float, hi: float = math.inf, integral: bool = False, open_lo: bool = False):
    """`value` as an int (`integral`) or float if it is a finite real number in [lo, hi], or (lo, hi] with `open_lo`."""
    kind = "an integer" if integral else "a finite number"
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if not lo <= value <= hi or (open_lo and value == lo) or (integral and value != int(value)):
        raise ValueError(f"{name} must be {kind} in {'(' if open_lo else '['}{lo}, {hi}], got {value!r}")
    return int(value) if integral else float(value)


FINITE = partial(_number, lo=-math.inf)  # a domain's brightness
INTEGER = partial(_number, lo=-math.inf, integral=True)  # a domain's id
COUNT = partial(_number, lo=1, integral=True)  # sizes and counts: batches, rounds, domains, stage widths, input sides
SEED = partial(_number, lo=0, integral=True)
NUM_CLASSES = partial(_number, lo=2, integral=True)
SEVERITY = partial(_number, lo=1, hi=5, integral=True)
NONNEGATIVE = partial(_number, lo=0.0)  # noise levels, the templates' distance floor, the gate threshold
POSITIVE = partial(_number, lo=0.0, open_lo=True)  # a domain's contrast, the Dirichlet concentration, the ridge lambda
SHARE = partial(_number, lo=0.0, hi=1.0)  # alpha, the source's share of a blend
# An eps must exceed this floor, half the least float32, or the float32 the normalizer adds rounds to 0.
EPS = partial(_number, lo=2.0**-150, open_lo=True)


def integers(name: str, values, rule, length: int | None = None) -> list[int]:
    """`values`, a list of `length` entries or else of one or more, each as the integral `rule` checked it."""
    if not isinstance(values, (list, tuple)) or not values or len(values) != (length or len(values)):
        raise ValueError(f"{name} must be a list of {length or 'one or more'} integers, got {values!r}")
    return [rule(f"{name}[{i}]", v) for i, v in enumerate(values)]


def pooled_shape(name: str, values, stages: int) -> list[int]:
    """`values`, a (C, H, W) input shape, as an int list whose H and W halve evenly through `stages` 2x2 pools."""
    shape = integers(name, values, COUNT, 3)
    if any(side % 2**stages for side in shape[1:]):
        raise ValueError(f"{name} {shape} does not pool evenly through {stages} stages")
    return shape


def one_of(name: str, value, choices: tuple, aliases: dict | None = None) -> str:
    """The entry of `choices` that `value` spells in any case, with its underscore, without it or with a hyphen, or
    the one `aliases` maps it to."""
    spellings = {alias: c for c in choices for alias in (c, c.replace("_", ""), c.replace("_", "-"))} | (aliases or {})
    try:
        return spellings[str(value).strip().lower()]
    except KeyError:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}") from None
