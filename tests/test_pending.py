"""The co-partitioned reservoir's driver-side composition, without Spark.

``CoPartitionedReservoir`` turns every reservoir operation into pending
decisions on the driver (``PendingDecisions``) and picks rows only when
its store realizes them. Here ``ListPieces``, Python lists in place of
the Spark store, realizes them as ``SparkPieces`` does: a batch's
partitions are stored whole, each with a random order of its rows drawn
when it is stored (Spark's ``rand`` over a checkpointed piece), a merge
concatenates whole partitions into ``P``, and an extract returns a
``LazyRow`` that names its row by place, which ``insert_rows`` puts back
as a piece of one row and which is read only after later keeps, merges
and clears.
Over many seeds, the realized latent sample (items in A, items extracted
as π) must have the law it has in a ``ListReservoir``, and after every
operation the items must be some of the items before it plus the rows it
added.
"""
from collections import Counter

import numpy as np
import pytest

from repro.core.latent import ListReservoir
from repro.distributed.reservoir import CoPartitionedReservoir, LazyRow, Place
from tbsbench.checks import chi2_sf

P = 1  # merge above 4 partitions, so some ops compose and some merge
SCRIPT_SEED = 1987  # a script with every operation, the clear late in it
OPS = ("insert_all", "keep_random", "extract_one", "replace_random", "insert_rows", "clear")
STRATEGIES = ["dist", "cent"]


class ListPieces:
    """``SparkPieces`` with Python lists for its pieces. A row's place
    holds its partition's rows and order as they were when it was
    named; a row put back is a piece of that one row."""

    def __init__(self, rng):
        self.rng = rng  # draws each stored partition's order
        self.schema = None
        self.clear()

    def clear(self):
        self.parts, self.orders = [], []

    def add(self, batch, sizes):
        self.schema = True
        if not isinstance(batch, list):  # a row put back; a LazyRow stays unread
            batch = [at(batch.place) if isinstance(batch, LazyRow) else batch]
        start = 0
        for size in sizes:
            self.parts.append(batch[start : start + size])
            self.orders.append(self.rng.permutation(size).tolist())
            start += size

    def view(self, pending):
        parts = []
        for j, rows in enumerate(self.parts):
            if pending.strategy == "dist":
                offsets = self.orders[j][pending.lo[j] : pending.lo[j] + pending.keep[j]]
            else:
                offsets = pending.offsets(j).tolist()
            assert len(offsets) == pending.keep[j]
            parts.append([rows[off] for off in sorted(offsets)])
        return parts

    def row(self, pid, offset=None, *, rank=0):
        place = Place((self.parts[pid], self.orders[pid]), pid, offset, rank)
        return LazyRow(place, lambda place: {"label": at(place)})

    def merge(self, view, P):
        # coalesce: whole partitions grouped into at most P
        groups = [sum(view[g::P], []) for g in range(min(P, len(view)))]
        self.clear()
        self.add(sum(groups, []), [len(g) for g in groups])
        return [len(g) for g in groups]


def at(place):
    """The label stored at a ``ListPieces`` place, read without keeping it."""
    rows, order = place.piece
    if place.offset is None:
        return rows[order[place.rank]]
    return rows[place.offset]


def value(item):
    """An item's label: a ``LazyRow`` is read (and keeps it)."""
    return item["label"] if isinstance(item, LazyRow) else item


def list_reservoir(strategy, rng, order_rng):
    return CoPartitionedReservoir(
        None, strategy=strategy, seed=rng, target_partitions=P, pieces=ListPieces(order_rng)
    )


def items(reservoir):
    if isinstance(reservoir, ListReservoir):
        return list(reservoir)
    return [row for part in reservoir.df for row in part]


def random_script(rng, n_ops, max_items=6):
    """A feasible sequence of reservoir operations on at most
    ``max_items`` items at a time, batches in 1-3 partitions."""
    script, count, label, extracted = [], 0, 0, False
    for _ in range(n_ops):
        ops = ["insert_all"] if count < max_items else []
        if count:
            ops += ["keep_random", "extract_one", "replace_random", "clear"]
        if count < max_items and extracted:
            ops += ["insert_rows"]
        op = ops[rng.integers(len(ops))]
        if op == "insert_all":
            b = int(rng.integers(1, max_items - count + 1))
            cuts = np.sort(rng.choice(np.arange(1, b), size=min(int(rng.integers(3)), b - 1), replace=False))
            sizes = np.diff(np.concatenate([[0], cuts, [b]])).tolist()
            script.append((op, list(range(label, label + b)), sizes))
            count, label = count + b, label + b
        elif op == "keep_random":
            k = int(rng.integers(0, count))
            script.append((op, k))
            count = k
        elif op == "extract_one":
            script.append((op,))
            count, extracted = count - 1, True
        elif op == "replace_random":
            b = int(rng.integers(1, 4))
            m = int(rng.integers(1, min(b, count) + 1))
            script.append((op, m, list(range(label, label + b)), [b - b // 2, b // 2] if b > 1 else [b]))
            label += b
        elif op == "clear":
            script.append((op,))
            count = 0
        else:  # put back the last item extracted (Swap1)
            script.append((op,))
            count += 1
    return script


def run(script, reservoir):
    """Play the script; the outcome is (items left, items extracted).
    After every operation, the items are some of the items before it
    plus the rows it added, and an extracted item was one of them. An
    extracted ``LazyRow`` goes back through ``insert_rows`` as it is and
    is read only at the end, to the label its place named at first."""
    extracted, labels, before = [], [], set()
    for op, *args in script:
        added = set()
        if op == "extract_one":
            extracted.append(reservoir.extract_one())
            labels.append(at(extracted[-1].place) if isinstance(extracted[-1], LazyRow) else extracted[-1])
            assert labels[-1] in before, (labels[-1], before)
            before.discard(labels[-1])
        elif op == "insert_rows":
            reservoir.insert_rows([extracted[-1]])
            added = {labels[-1]}
        else:
            getattr(reservoir, op)(*args)
            if op in ("insert_all", "replace_random"):
                added = set(args[-2])
        after = set(items(reservoir))
        assert after <= before | added, (op, after, before, added)
        before = after
    assert [value(item) for item in extracted] == labels
    return tuple(sorted(before)), tuple(labels)


def homogeneity_p(a: Counter, b: Counter) -> float:
    """Chi-square test that two equal-sized samples share one law; cells
    with fewer than 10 draws in all are pooled."""
    cells = set(a) | set(b)
    rare = [c for c in cells if a[c] + b[c] < 10]
    pairs = [(a[c], b[c]) for c in cells if c not in rare]
    pairs.append((sum(a[c] for c in rare), sum(b[c] for c in rare)))
    stat = sum((x - y) ** 2 / (x + y) for x, y in pairs if x + y)
    df = sum(1 for x, y in pairs if x + y) - 1
    return chi2_sf(stat, df) if df > 0 else 1.0


TRIALS = 20_000


_LISTED = {}  # a script's outcome counts on ListReservoir, shared by both strategies


def laws(script, strategy):
    """Outcome counts of ``TRIALS`` plays of the script on each reservoir;
    the plays on one reservoir draw from one generator."""
    key = repr(script)
    if key not in _LISTED:
        list_rng = np.random.default_rng([7, 2])
        _LISTED[key] = Counter(run(script, ListReservoir((), list_rng)) for _ in range(TRIALS))
    rng, order_rng = (np.random.default_rng([7, i]) for i in range(2))
    pending = Counter(run(script, list_reservoir(strategy, rng, order_rng)) for _ in range(TRIALS))
    return pending, _LISTED[key]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_joint_law_matches_list_reservoir(strategy):
    """Keeps and extracts compose between merges: two keeps around an
    extract whose row is put back as a one-row piece, an extract from a
    partition that already lost a row, a replacement that merges the
    reservoir, and an extract after it. The realized (A, π) has
    the law of the same script on a ``ListReservoir``."""
    script = [
        ("insert_all", [0, 1, 2, 3, 4], [2, 3]),
        ("keep_random", 4),
        ("extract_one",),
        ("insert_rows",),  # the extracted row, now a one-row piece
        ("extract_one",),
        ("keep_random", 2),
        ("replace_random", 1, [5, 6], [1, 1]),
        ("extract_one",),
    ]
    pending, listed = laws(script, strategy)
    p = homogeneity_p(pending, listed)
    assert p > 1e-4, p


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_random_script(strategy):
    """A random script of every reservoir operation, on at most 6 items."""
    script = random_script(np.random.default_rng(SCRIPT_SEED), n_ops=8)
    assert {op for op, *_ in script} == set(OPS), script
    pending, listed = laws(script, strategy)
    p = homogeneity_p(pending, listed)
    assert p > 1e-4, (p, script)
