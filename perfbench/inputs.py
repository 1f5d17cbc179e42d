"""Seeded inputs for every workload.

The stock products workload (tables, candidates, learned 255-rule
function) is the program's own deterministic build at its stock seed; it
is the fixed object the paper's loop works on.  Everything the benchmark
chooses on top of it -- the order of the cold slices, which pairs the
reference evaluator samples, the edit script, the delta batches and the
order of the service requests -- is drawn from ``--seed`` through
:func:`rng`, so one seed always gives the same inputs.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Tuple

from repro import (
    AddPredicate,
    AddRule,
    Delta,
    DeltaBatch,
    FeatureSpace,
    RelaxPredicate,
    RemovePredicate,
    RemoveRule,
    TightenPredicate,
    build_workload,
    format_function,
    load_dataset,
    parse_function,
)
from repro.core.parser import format_rule

#: The stock products configuration: 96 trees of depth 9, up to 255 rules.
STOCK_SEED = 7
STOCK_TREES = 96
STOCK_DEPTH = 9
STOCK_RULES = 255

#: Pairs per cold-match operation.
SLICE_PAIRS = 2500
#: Cold-match operations per round, each on its own slice.
COLD_ROUND = 2
#: Pairs sampled per reference check, on top of every pair labeled a match.
CHECK_SAMPLE = 150
#: Undo pairs (two edits each) in one edit-loop round.
EDIT_PAIRS = 40
#: Delta batches in one stream-ingest round; even, so updates undo.
STREAM_BATCHES = 16
#: Scale of the generated products tables the live sessions run on.
STREAM_SCALE = 0.25
SERVICE_SCALE = 0.2


def rng(seed: int, label: str) -> random.Random:
    """An independent stream per input kind; string seeding is stable
    across processes and Python hash randomization."""
    return random.Random(f"perfbench:{seed}:{label}")


def build_stock():
    """Tables, blocking and rule learning of the stock products workload."""
    return build_workload(
        "products",
        seed=STOCK_SEED,
        n_trees=STOCK_TREES,
        max_depth=STOCK_DEPTH,
        max_rules=STOCK_RULES,
    )


def stock_text(function) -> str:
    """The function as exact DSL text (thresholds round-trip bit for bit)."""
    return format_function(function, precise=True)


def fresh_function(text: str, dataset):
    """The function over freshly built, corpus-bound feature objects."""
    space = FeatureSpace.build(dataset)
    return parse_function(text, space.resolver()), space


def small_tables(scale: float):
    """Generated products tables at reduced scale (stock seed)."""
    return load_dataset("products", seed=STOCK_SEED, scale=scale)


# ---------------------------------------------------------------- cold_match


def cold_slices(n_candidates: int, seed: int) -> List[List[int]]:
    """The round's slices: fixed, disjoint, interleaved strides of the
    candidate set, so each slice samples the whole blocking order the
    same way and costs about the same; the seed orders them."""
    stride = n_candidates // SLICE_PAIRS
    if stride < COLD_ROUND:
        raise ValueError(
            f"{n_candidates} candidates give fewer than {COLD_ROUND} "
            f"disjoint {SLICE_PAIRS}-pair slices"
        )
    offsets = list(range(COLD_ROUND))
    rng(seed, "cold-slices").shuffle(offsets)
    return [slice_indices(n_candidates, offset) for offset in offsets]


def slice_indices(n_candidates: int, offset: int) -> List[int]:
    """Every ``n // SLICE_PAIRS``-th candidate from ``offset``, capped at
    ``SLICE_PAIRS`` pairs."""
    stride = n_candidates // SLICE_PAIRS
    return list(range(offset, n_candidates, stride))[:SLICE_PAIRS]


def check_sample(n: int, seed: int, label: str) -> List[int]:
    return sorted(rng(seed, label).sample(range(n), min(CHECK_SAMPLE, n)))


# ----------------------------------------------------------------- edit_loop


def _movable(rule) -> list:
    return [p for p in rule.predicates if p.op != "=="]


def _moved(predicate, delta: float, stricter: bool) -> float:
    raises = predicate.op in (">=", ">")
    return predicate.threshold + (delta if raises == stricter else -delta)


def edit_script(function, seed: int) -> List[Tuple[object, str]]:
    """One round of ``EDIT_PAIRS`` edit pairs; each pair's second edit
    undoes its first, so the function is the stock one after every pair.

    Returns ``(change, direction)`` with direction ``"tighten"`` (may only
    remove matches) or ``"loosen"`` (may only add them).
    """
    r = rng(seed, "edits")
    rules = list(function.rules)
    multi = [rule for rule in rules if len(rule.predicates) > 1]
    script: List[Tuple[object, str]] = []
    kinds = ("tighten", "relax", "predicate", "rule")
    for index in range(EDIT_PAIRS):
        kind = kinds[index % len(kinds)]
        if kind in ("tighten", "relax"):
            rule = r.choice([rule for rule in rules if _movable(rule)])
            predicate = r.choice(_movable(rule))
            delta = r.uniform(0.03, 0.2)
            if kind == "tighten":
                moved = _moved(predicate, delta, stricter=True)
                script.append(
                    (TightenPredicate(rule.name, predicate.slot, moved), "tighten")
                )
                script.append(
                    (RelaxPredicate(rule.name, predicate.slot, predicate.threshold),
                     "loosen")
                )
            else:
                moved = _moved(predicate, delta, stricter=False)
                script.append(
                    (RelaxPredicate(rule.name, predicate.slot, moved), "loosen")
                )
                script.append(
                    (TightenPredicate(rule.name, predicate.slot,
                                      predicate.threshold), "tighten")
                )
        elif kind == "predicate":
            rule = r.choice(multi)
            predicate = r.choice(rule.predicates)
            script.append((RemovePredicate(rule.name, predicate.slot), "loosen"))
            script.append((AddPredicate(rule.name, predicate), "tighten"))
        else:
            rule = r.choice(rules)
            script.append((RemoveRule(rule.name), "tighten"))
            script.append((AddRule(rule), "loosen"))
    return script


# ------------------------------------------------------------- stream_ingest


def _title_variant(title: str, donor: str, r: random.Random) -> str:
    tokens = title.split()
    if len(tokens) > 1:
        tokens.pop(r.randrange(len(tokens)))
    extra = donor.split()
    if extra:
        tokens.insert(r.randrange(len(tokens) + 1), r.choice(extra))
    return " ".join(tokens)


def _middle_band(table, degree: Counter) -> list:
    """Records whose candidate-pair count lies in the middle half of their
    table's, in table order: the seed then picks among records of similar
    cost, so batches cost about the same whatever the seed."""
    ids = [record.record_id for record in table]
    ranked = sorted(degree[record_id] for record_id in ids)
    low, high = ranked[len(ranked) // 4], ranked[(3 * len(ranked)) // 4]
    return [table.get(i) for i in ids if low <= degree[i] <= high]


def stream_batches(
    table_a, table_b, pair_ids, seed: int
) -> Tuple[DeltaBatch, List[DeltaBatch]]:
    """A priming batch plus one round of ``STREAM_BATCHES`` batches.

    Every batch holds four deltas: a title (blocking attribute) update, a
    price update, an insert, and the delete of the previous batch's
    insert.  Odd batches restore the title and price the even batch
    before them changed, and the last insert is deleted by the next
    round's first batch, so the tables after every round equal the tables
    after priming.  Which side each delta touches follows a fixed pattern;
    the seed picks the records, among those with a middling number of
    candidate pairs (``pair_ids``: the initial candidate set).
    """
    r = rng(seed, "deltas")
    degree = {"a": Counter(a for a, _ in pair_ids),
              "b": Counter(b for _, b in pair_ids)}
    bands = {"a": _middle_band(table_a, degree["a"]),
             "b": _middle_band(table_b, degree["b"])}

    def pick(side: str):
        return r.choice(bands[side])

    def insert(j: int) -> Delta:
        side = "ab"[j % 2]
        values = pick(side).as_dict()
        values["title"] = _title_variant(
            str(values.get("title") or ""), str(pick(side).get("title") or ""), r
        )
        return Delta("insert", side, f"perfbench-{side}{j}", values)

    inserts = [insert(j) for j in range(STREAM_BATCHES)]
    batches: List[DeltaBatch] = []
    for j in range(0, STREAM_BATCHES, 2):
        title_side, price_side = "ab"[(j // 2) % 2], "ba"[(j // 2) % 2]
        titled, priced = pick(title_side), pick(price_side)
        old_title = titled.get("title")
        new_title = _title_variant(
            str(old_title or ""), str(pick(title_side).get("title") or ""), r
        )
        old_price = priced.get("price")
        try:
            new_price = round(float(old_price) * r.uniform(0.7, 1.3), 2)
        except (TypeError, ValueError):
            new_price = round(r.uniform(10, 500), 2)
        change = [
            Delta("update", title_side, titled.record_id, {"title": new_title}),
            Delta("update", price_side, priced.record_id, {"price": new_price}),
        ]
        undo = [
            Delta("update", title_side, titled.record_id, {"title": old_title}),
            Delta("update", price_side, priced.record_id, {"price": old_price}),
        ]
        for offset, updates in ((0, change), (1, undo)):
            k = j + offset
            previous = inserts[k - 1]
            batches.append(
                DeltaBatch(
                    updates
                    + [
                        inserts[k],
                        Delta("delete", previous.side, previous.record_id),
                    ]
                )
            )
    priming = DeltaBatch([inserts[-1]])
    return priming, batches


# --------------------------------------------------------------- service_mix


def table_payload(table) -> Dict[str, object]:
    return {
        "name": table.name,
        "attributes": list(table.attributes),
        "records": [
            {"id": record.record_id, "values": record.as_dict()}
            for record in table
        ],
    }


#: One connection's round, by request kind.  The mix is synthetic: no
#: recorded analyst traffic exists to take it from.  Reads are 76% of
#: requests and explains 22%, so p50 falls inside the reads and p90
#: inside the explains; edits (3%) are rarer than one request in thirty,
#: so few reads run beside an edit (see README).
SERVICE_ROUND = {"matches": 32, "stats": 80, "explain": 32, "edit": 4}


def service_requests(
    function, session: str, pairs, seed: int, conn: int
) -> List[dict]:
    """One round of requests for connection ``conn``, all to its own
    ``session``: two analysts, each in their own session, sharing one
    server.  Edits come in undo pairs (tighten then relax back, drop a
    rule then add it back), so every whole round leaves the session's
    function as it found it; the reads and explains run between them.

    The set of edit pairs is fixed, like the cold slices: edit costs
    differ by rule far more than request latencies do, and how many reads
    run beside an edit would otherwise follow which rules a seed drew.
    The seed orders the pairs, orders the reads and explains, and picks
    the explained pairs."""
    pool = rng(STOCK_SEED, f"service-edits{conn}")
    r = rng(seed, f"requests{conn}")
    rules = [rule for rule in function.rules if _movable(rule)]
    edit_pairs: List[List[dict]] = []
    for index in range(SERVICE_ROUND["edit"] // 2):
        rule = pool.choice(rules)
        if index % 2 == 0:
            predicate = pool.choice(_movable(rule))
            moved = _moved(predicate, pool.uniform(0.03, 0.2), stricter=True)
            edit_pairs.append([
                {"kind": "tighten", "rule": rule.name,
                 "slot": predicate.slot, "threshold": moved},
                {"kind": "relax", "rule": rule.name,
                 "slot": predicate.slot, "threshold": predicate.threshold},
            ])
        else:
            edit_pairs.append([
                {"kind": "drop_rule", "rule": rule.name},
                {"kind": "add_rule",
                 "rule_dsl": format_rule(rule, precise=True)},
            ])
    r.shuffle(edit_pairs)
    edits = [edit for edit_pair in edit_pairs for edit in edit_pair]
    others: List[dict] = []
    for kind in ("matches", "stats", "explain"):
        for _ in range(SERVICE_ROUND[kind]):
            request = {"kind": kind, "method": "GET",
                       "path": f"/sessions/{session}/{kind}"}
            if kind == "explain":
                a_id, b_id = r.choice(pairs)
                request.update(method="POST",
                               body={"a_id": a_id, "b_id": b_id})
            others.append(request)
    r.shuffle(others)
    # Equal stretches of reads and explains, each followed by one edit.
    stretch = len(others) // len(edits)
    requests: List[dict] = []
    for index, edit in enumerate(edits):
        requests += others[index * stretch:(index + 1) * stretch]
        requests.append({"kind": "edit", "method": "POST",
                         "path": f"/sessions/{session}/edit", "body": edit})
    return requests + others[len(edits) * stretch:]
