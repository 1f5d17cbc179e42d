"""Correctness checks computed apart from the program.

The reference evaluator knows only ``Feature.compute`` and each
predicate's operator and threshold: it evaluates the DNF pair by pair,
with no memo, kernels, bounds, plans or early-exit bookkeeping shared
with the program.  It walks the rules in a seeded shuffled order, so
agreement with the program (which orders rules by estimated cost) also
checks that labels do not depend on rule order.
"""

from __future__ import annotations

import operator
import random
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro import Feature

#: Captured before any tracing wrapper is installed, so reference
#: evaluation never shows up in per-layer counts.
_COMPUTE = Feature.compute

_OPS = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "==": operator.eq,
}


def rule_spec(function) -> Dict[str, frozenset]:
    """Rule name -> frozenset of (feature, op, threshold): the function's
    content, independent of rule and predicate order."""
    return {
        rule.name: frozenset(
            (p.feature.name, p.op, p.threshold) for p in rule.predicates
        )
        for rule in function.rules
    }


def reference_labels(
    function, candidates, indices: Iterable[int], order_seed: int
) -> Dict[int, bool]:
    """Label ``candidates[i]`` for each index by direct DNF evaluation."""
    rules = [
        [(p.feature, _OPS[p.op], p.threshold) for p in rule.predicates]
        for rule in function.rules
    ]
    random.Random(order_seed).shuffle(rules)
    labels: Dict[int, bool] = {}
    for index in indices:
        pair = candidates[index]
        values: Dict[str, float] = {}
        matched = False
        for rule in rules:
            for feature, compare, threshold in rule:
                value = values.get(feature.name)
                if value is None:
                    value = _COMPUTE(feature, pair.record_a, pair.record_b)
                    values[feature.name] = value
                if not compare(value, threshold):
                    break
            else:
                matched = True
                break
        labels[index] = matched
    return labels


def label_problems(
    what: str, function, candidates, program_labels, sample: Sequence[int],
    order_seed: int,
) -> List[str]:
    """Compare the program's labels with the reference on ``sample`` plus
    every pair the program labels a match."""
    matched = {int(i) for i in range(len(program_labels)) if program_labels[i]}
    indices = sorted(matched.union(sample))
    expected = reference_labels(function, candidates, indices, order_seed)
    wrong = [i for i in indices if bool(program_labels[i]) != expected[i]]
    if not wrong:
        return []
    first = candidates[wrong[0]].pair_id
    return [
        f"{what}: {len(wrong)} of {len(indices)} checked labels differ from "
        f"the reference evaluator (first: {first}, program says "
        f"{bool(program_labels[wrong[0]])})"
    ]


def f1_problems(what: str, matched: Set[Tuple[str, str]],
                gold: Set[Tuple[str, str]], universe: Set[Tuple[str, str]],
                reported_f1: float) -> List[str]:
    """Recompute F1 of ``matched`` against the gold pairs inside
    ``universe`` (the candidate set) and compare with the program's."""
    true_positive = len(matched & gold)
    false_positive = len(matched) - true_positive
    false_negative = len((gold & universe) - matched)
    denominator = 2 * true_positive + false_positive + false_negative
    f1 = 2 * true_positive / denominator if denominator else 1.0
    if abs(f1 - reported_f1) > 1e-12:
        return [f"{what}: F1 from labels is {f1!r}, program reports "
                f"{reported_f1!r}"]
    return []


def direction_problems(what: str, before, after, direction: str) -> List[str]:
    """A tightening edit never adds a match; a loosening one never removes one."""
    if direction == "tighten":
        bad = int((after & ~before).sum())
        verb = "added"
    else:
        bad = int((before & ~after).sum())
        verb = "removed"
    if bad:
        return [f"{what}: a {direction} edit {verb} {bad} match(es)"]
    return []
