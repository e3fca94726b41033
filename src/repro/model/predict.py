"""Closed-form HBSP^k cost predictions for the Section-4 algorithms.

Two families of functions:

* ``predict_gather_plan`` / ``predict_broadcast_plan`` — *exact*
  h-relation evaluations of the paper's algorithms under a per-level
  :class:`~repro.tuning.plan.SchedulePlan`, on an arbitrary HBSP^k
  parameter set (any k, any root, any workload distribution), returning
  an itemised :class:`~repro.model.cost.CostLedger`.  This is the one
  scalar definition of the Section-4 arithmetic and the reference the
  vectorized ``model.kernels`` are tested against.  ``predict_gather``
  / ``predict_broadcast`` are the same functions at the paper's hand
  schedule: they convert their arguments to a plan
  (:func:`~repro.tuning.plan.default_plan` /
  :func:`~repro.tuning.plan.plan_from_phases`) and differ only in the
  ledger's name.
* ``paper_*`` — the paper's *simplified* formulas, verbatim
  (e.g. HBSP^1 gather ``= g·n + L_{1,0}``), used by tests and by the
  Section-4 analysis benchmarks to show where the simplifications hold.

The first family and every ``predict_*_cost`` of :mod:`repro.collectives`
and :mod:`repro.apps` are written with the step-cost bodies defined here
— :func:`charge_fan` (an ascent or a descent of the machine tree) and
:func:`charge_exchange` (a flat exchange) — so a new cost column is
added in this module once for the whole scalar toolkit.

Conventions: ``n`` counts data items, ``item_bytes`` converts items to
the bytes that ``g`` (seconds/byte) is expressed against.  Volumes
follow the paper's accounting — a machine's ``h`` is the largest number
of units it *sends or receives* in the step, and a processor never
sends data to itself.

Modelling conventions for the schedule space:

* **segmentation** (``segments = S``): every sender splits its payload
  into ``S`` chunks (:func:`~repro.tuning.plan.split_segments`) and the
  level runs ``S`` chunked sub-steps, each charging its own
  ``g·h + L`` — latency multiplies, peak h-relation shrinks.
* **binomial**: ⌈log₂C⌉ rounds over the child-coordinator positions,
  rotated so the cluster coordinator sits at relative position 0.  In
  round ``t`` the holder at relative ``q`` (``q mod 2^{t+1} = 2^t``)
  sends its accumulated window ``[q, q+2^t)`` down to ``q - 2^t``
  (gather), or position ``q < 2^t`` forwards the full payload up to
  ``q + 2^t`` (broadcast); each round charges ``g·h + L`` with the
  h-relation over that round's senders and receivers.  Clusters with
  fewer rounds than the level's worst simply drop out of the later
  rounds' worst-cluster scans.
"""

from __future__ import annotations

import typing as t

from repro.bytemark.ranking import partition_items
from repro.errors import CollectiveError, ModelError
from repro.model.cost import CostLedger
from repro.model.params import HBSPParams, Key
from repro.tuning.plan import (
    PhaseSpec,
    SchedulePlan,
    binomial_rounds,
    check_plan,
    default_plan,
    plan_from_phases,
    segment_suffix,
    split_segments,
)
from repro.util.units import BYTES_PER_INT

__all__ = [
    "default_counts",
    "predict_gather",
    "predict_broadcast",
    "predict_gather_plan",
    "predict_broadcast_plan",
    "paper_gather_hbsp1",
    "paper_gather_hbsp2_super2",
    "paper_broadcast_hbsp1_one_phase",
    "paper_broadcast_hbsp1_two_phase",
    "paper_broadcast_hbsp2_super2_one_phase",
    "paper_broadcast_hbsp2_super2_two_phase",
]


def default_counts(params: HBSPParams, n: int) -> list[int]:
    """Balanced workloads: ``x_{0,j} = c_{0,j}·n`` as whole items."""
    fractions = {str(j): params.c_of(0, j) for j in range(params.p)}
    part = partition_items(n, fractions)
    return [part[str(j)] for j in range(params.p)]


def _coordinator_leaf(params: HBSPParams, key: Key, root: int | None) -> int:
    """Leaf (level-0 index) acting as coordinator of subtree ``key``.

    Read off ``params.table`` (:meth:`~repro.model.params.LevelTable.coordinators`):
    the fastest member, unless the subtree holds ``root``.
    """
    level, j = key
    return params.table.levels[level].coordinators(root)[j]


# ---------------------------------------------------------------------------
# Argument checks, shared with the vectorized kernels
# ---------------------------------------------------------------------------
#
# ``model.kernels`` screens whole grids with array comparisons and hands
# the first offending point to these same functions, so both
# representations reject the same inputs with the same error.

def check_inputs(
    params: HBSPParams, n: int, root: int | None, what: str = "n"
) -> int:
    """Reject a negative size ``what`` or a foreign root; resolve the root."""
    if n < 0:
        raise CollectiveError(f"{what} must be >= 0, got {n}")
    if root is None:
        root = params.table.fastest
    if not 0 <= root < params.p:
        raise CollectiveError(f"root {root} out of range for p={params.p}")
    return root


def check_counts(counts: t.Sequence[int], n: int, p: int) -> None:
    """Reject a per-processor workload that is not ``n`` items over ``p``."""
    if len(counts) != p:
        raise CollectiveError(f"counts must have p={p} entries")
    if p and min(counts) < 0:
        raise CollectiveError(f"counts must be >= 0, got {min(counts)}")
    if sum(counts) != n:
        raise CollectiveError(f"counts sum to {sum(counts)}, expected n={n}")


def check_item_bytes(item_bytes: int) -> int:
    if item_bytes < 1:
        raise CollectiveError(f"item_bytes must be >= 1, got {item_bytes}")
    return item_bytes


def check_fractions(fractions: t.Sequence[float] | None, p: int) -> None:
    if fractions is not None and len(fractions) != p:
        raise CollectiveError(f"fractions must have p={p} entries")


def check_workload(
    params: HBSPParams,
    n: int,
    root: int | None,
    counts: t.Sequence[int] | None,
    item_bytes: int,
) -> tuple[int, t.Sequence[int]]:
    """Check a counts-driven collective's arguments; resolve root and counts."""
    root = check_inputs(params, n, root)
    check_item_bytes(item_bytes)
    if counts is None:
        counts = default_counts(params, n)
    else:
        check_counts(counts, n, params.p)
    return root, counts


# ---------------------------------------------------------------------------
# The Section-4 arithmetic, once: per-level clusters, worst-cluster charge
# ---------------------------------------------------------------------------

#: One cluster of a level:
#: (key, children, r_coord, child_r, own_pos, L, coord) — ``child_r[i]``
#: is the slowness of child ``i``'s coordinator, ``own_pos`` the child
#: whose coordinator is the cluster's own (it keeps its data local: no
#: self-send) and ``coord`` that coordinator's level-0 index.
Cluster = tuple[Key, list[Key], float, list[float], int, float, int]


def clusters(
    params: HBSPParams, level: int, root: int, *, singletons: bool = True
) -> list[Cluster]:
    """Per-cluster facts of one level, shared by all its sub-steps.

    ``singletons=False`` leaves out one-child wrapper clusters, which
    have nobody to send to: only the gather charges their barrier.
    """
    here, below = params.table.levels[level], params.table.levels[level - 1]
    child_coords = below.coordinators(root)
    starts, L = here.child_start.tolist(), here.L.tolist()
    out = []
    for j, coord in enumerate(here.coordinators(root)):
        start, stop = starts[j], starts[j + 1]
        if not singletons and stop - start <= 1:
            continue
        coords = child_coords[start:stop]
        out.append(
            (
                (level, j),
                [(level - 1, i) for i in range(start, stop)],
                params.r_of(0, coord),
                [params.r_of(0, c) for c in coords],
                coords.index(coord),
                L[j],
                coord,
            )
        )
    return out


def _h(loads: t.Iterable[tuple[float, float]]) -> float:
    """``h_relation`` without per-load checks: the loads come from checked inputs, and a
    NaN or inf one still fails ``charge`` (``max``/``charge_worst`` keep a leading NaN)."""
    return max([r * h for r, h in loads], default=0.0)


def charge_worst(
    ledger: CostLedger,
    level: int,
    candidates: t.Iterable[tuple[float, float, float, str]],
) -> None:
    """Charge the level's costliest cluster: the super^i-step time.

    ``candidates`` yields each concurrent cluster's ``(w, gh, L,
    label)``; the first one with the largest ``w + gh + L`` is charged
    (strict ``>``, the kernels' first-max ``argmax``), nothing when no
    cluster takes part.
    """
    worst: tuple[float, float, float, str] | None = None
    worst_total = 0.0
    for candidate in candidates:
        w, gh, L, _ = candidate
        total = w + gh + L
        if worst is None or total > worst_total:
            worst, worst_total = candidate, total
    if worst is not None:
        w, gh, L, label = worst
        ledger.charge(label, level=level, w=w, gh=gh, L=L)


def _charge_binomial(
    ledger: CostLedger,
    level: int,
    g: float,
    level_clusters: t.Sequence[Cluster],
    what: str,
    loads_of: t.Callable[[int, int, int, list[float], int], list[tuple[float, int]]],
) -> None:
    """Charge a binomial-tree level: one worst-cluster step per round.

    ``loads_of(index, C, own_pos, child_r, 2^t)`` gives round ``t``'s
    ``(r, h)`` loads in cluster ``index`` (``C`` children).  Clusters
    run ⌈log₂C⌉ rounds and drop out of the later rounds' scans.
    """
    rounds = [binomial_rounds(len(cluster[1])) for cluster in level_clusters]
    for t_round in range(max(rounds, default=0)):
        candidates = []
        for index, (key, children, _, child_r, own_pos, L, _) in enumerate(
            level_clusters
        ):
            if rounds[index] <= t_round:
                continue
            loads = loads_of(index, len(children), own_pos, child_r, 1 << t_round)
            label = f"super{level}: binomial {what} round {t_round + 1} in {key}"
            candidates.append((0.0, g * _h(loads), L, label))
        charge_worst(ledger, level, candidates)


def fan_loads(
    r_coord: float,
    child_r: t.Sequence[float],
    own_pos: int,
    volumes: t.Sequence[int],
) -> list[tuple[float, int]]:
    """``(r, h)`` loads of one coordinator fan-in or fan-out.

    Every child coordinator but the cluster's own moves its
    ``volumes[i]`` bytes; the cluster coordinator moves all of them.
    """
    peers = [(child_r[i], v) for i, v in enumerate(volumes) if i != own_pos]
    return [(r_coord, sum(v for _, v in peers))] + peers


def charge_fan(
    ledger: CostLedger,
    g: float,
    level: int,
    level_clusters: t.Sequence[Cluster],
    volumes: t.Sequence[t.Sequence[int]],
    what: str,
    *,
    suffix: str = "",
    work: t.Sequence[float] | None = None,
) -> None:
    """Charge one ascent or descent step of the machine tree.

    In every cluster of the level, concurrently, the child coordinators
    send their ``volumes[i][c]`` bytes to the cluster's coordinator (an
    ascent: gather, reduce) or receive them from it (a descent:
    broadcast, scatter) — the same h-relation either way.  ``work[i]``
    is the seconds cluster ``i``'s coordinator computes in the step (the
    reduction's combine); the costliest cluster is charged, labelled
    ``super<level><suffix>: <what> <key>``.
    """
    candidates = []
    for i, (key, _, r_coord, child_r, own_pos, L, _) in enumerate(level_clusters):
        gh = g * _h(fan_loads(r_coord, child_r, own_pos, volumes[i]))
        w = 0.0 if work is None else work[i]
        candidates.append((w, gh, L, f"super{level}{suffix}: {what} {key}"))
    charge_worst(ledger, level, candidates)


def charge_exchange(
    ledger: CostLedger,
    params: HBSPParams,
    label: str,
    volumes: t.Sequence[int],
    *,
    w: float = 0.0,
) -> None:
    """Charge a flat exchange: one super-step among all ``p`` processors.

    ``volumes[j]`` is the larger of the bytes processor ``j`` sends and
    receives; ``w`` the slowest local computation folded into the step.
    The barrier is the whole machine's.
    """
    ledger.charge_step(
        label,
        level=1,
        g=params.g,
        loads=[(params.r_of(0, j), v) for j, v in enumerate(volumes)],
        w=w,
        L=params.L_of(params.k, 0),
    )


def _gather_ledger(
    params: HBSPParams,
    n: int,
    plan: SchedulePlan,
    root: int | None,
    counts: t.Sequence[int] | None,
    item_bytes: int,
    name: str,
) -> CostLedger:
    """The gather's cost under ``plan``, charged to a ledger ``name``."""
    root, counts = check_workload(params, n, root, counts, item_bytes)
    ledger = CostLedger(name)
    if params.k == 0 or params.p == 1:
        return ledger  # nothing to communicate
    g = params.g

    # Items held by the coordinator of each subtree as the gather
    # ascends: starts as each leaf's own count.
    subtree_total: dict[Key, int] = {(0, j): int(counts[j]) for j in range(params.p)}

    for level in range(1, params.k + 1):
        schedule = plan.level(level)
        level_clusters = clusters(params, level, root)
        held = [[subtree_total[c] for c in cluster[1]] for cluster in level_clusters]
        for cluster, totals in zip(level_clusters, held):
            subtree_total[cluster[0]] = sum(totals)
        if schedule.algorithm == "flat":
            S = schedule.segments
            for s in range(S):
                # Chunk s of each child's total, split_segments' rule.
                volumes = [
                    [(c + S - 1 - s) // S * item_bytes for c in totals]
                    for totals in held
                ]
                charge_fan(
                    ledger, g, level, level_clusters, volumes, "gather into",
                    suffix=segment_suffix(s, S),
                )
        else:  # binomial

            def window_loads(index, C, own_pos, child_r, half):
                totals, loads = held[index], []
                for q in range(half, C, 2 * half):
                    window = sum(
                        totals[(own_pos + u) % C]
                        for u in range(q, min(q + half, C))
                    )
                    volume = window * item_bytes
                    loads.append((child_r[(own_pos + q) % C], volume))
                    loads.append((child_r[(own_pos + q - half) % C], volume))
                return loads

            _charge_binomial(
                ledger, level, g, level_clusters, "gather", window_loads
            )
    return ledger


def first_phase_shares(
    params: HBSPParams, children: t.Sequence[Key], n: int, balanced: bool
) -> list[int]:
    """Items each child receives in a two-phase level's scatter.

    An equal split, or with ``balanced`` one proportional to each child
    subtree's summed ``c`` (Fig. 4(b)'s balanced first phase).  The
    program and the prediction both split with this function.
    """
    m = len(children)
    if not balanced:
        return split_segments(n, m)
    weights = {
        str(i): sum(params.c_of(0, leaf) for leaf in params.leaf_indices(*child))
        for i, child in enumerate(children)
    }
    total_w = sum(weights.values())
    part = partition_items(n, {k_: v / total_w for k_, v in weights.items()})
    return [part[str(i)] for i in range(m)]


def _broadcast_ledger(
    params: HBSPParams,
    n: int,
    plan: SchedulePlan,
    root: int | None,
    fractions: t.Sequence[float] | None,
    item_bytes: int,
    name: str,
) -> CostLedger:
    """The broadcast's cost under ``plan``, charged to a ledger ``name``."""
    root = check_inputs(params, n, root)
    check_item_bytes(item_bytes)
    check_fractions(fractions, params.p)
    ledger = CostLedger(name)
    if params.k == 0 or params.p == 1 or n == 0:
        return ledger
    g = params.g

    for level in range(params.k, 0, -1):
        schedule = plan.level(level)
        level_clusters = clusters(params, level, root, singletons=False)
        if schedule.algorithm == "one":
            S = schedule.segments
            for s, chunk in enumerate(split_segments(n, S)):
                volumes = [
                    [chunk * item_bytes] * len(cluster[1])
                    for cluster in level_clusters
                ]
                charge_fan(
                    ledger, g, level, level_clusters, volumes, "one-phase bcast in",
                    suffix=segment_suffix(s, S),
                )
        elif schedule.algorithm == "two":
            candidates = []
            for key, children, r_coord, child_r, own_pos, L, _ in level_clusters:
                m = len(children)
                shares = first_phase_shares(params, children, n, fractions is not None)
                # Phase A: coordinator scatters shares.
                loads_a = fan_loads(
                    r_coord, child_r, own_pos, [x * item_bytes for x in shares]
                )
                # Phase B: total exchange of shares among children.
                loads_b = [
                    (child_r[i], max(shares[i] * (m - 1), n - shares[i]) * item_bytes)
                    for i in range(m)
                ]
                gh = g * (_h(loads_a) + _h(loads_b))
                label = f"super{level}: two-phase bcast in {key}"
                candidates.append((0.0, gh, 2 * L, label))
            charge_worst(ledger, level, candidates)
        else:  # binomial
            volume = n * item_bytes

            def doubling_loads(index, m, own_pos, child_r, half):
                loads = []
                for q in range(min(half, m - half)):
                    loads.append((child_r[(own_pos + q) % m], volume))
                    loads.append((child_r[(own_pos + q + half) % m], volume))
                return loads

            _charge_binomial(
                ledger, level, g, level_clusters, "bcast", doubling_loads
            )
    return ledger


# ---------------------------------------------------------------------------
# Public predictors: a plan, or the paper's hand schedule as one
# ---------------------------------------------------------------------------

def predict_gather(
    params: HBSPParams,
    n: int,
    *,
    root: int | None = None,
    counts: t.Sequence[int] | None = None,
    item_bytes: int = BYTES_PER_INT,
) -> CostLedger:
    """Cost of the HBSP^k gather (Sections 4.2–4.3, generalised).

    Level by level, every cluster gathers onto its coordinator
    (concurrently — the super^i-step costs the *largest* cluster time),
    then coordinators forward their subtree totals upward until the
    root holds all ``n`` items.

    ``counts[j]`` is processor ``j``'s initial item count (default:
    the balanced workload ``c_{0,j}·n``).  ``root`` overrides the
    coordinator of its own chain (default: the fastest processor).
    """
    plan = default_plan("gather", params.k)
    name = f"gather(k={params.k}, n={n})"
    return _gather_ledger(params, n, plan, root, counts, item_bytes, name)


def predict_broadcast(
    params: HBSPParams,
    n: int,
    *,
    root: int | None = None,
    phases: PhaseSpec = "two",
    fractions: t.Sequence[float] | None = None,
    item_bytes: int = BYTES_PER_INT,
) -> CostLedger:
    """Cost of the HBSP^k one-to-all broadcast (Sections 4.4–4.5).

    Top-down: at each level the cluster coordinator distributes the
    ``n`` items to its child coordinators using a one-phase or
    two-phase scheme, then every child cluster broadcasts internally
    (concurrently; the super^i-step costs the largest cluster time).

    Parameters
    ----------
    phases:
        ``"one"``/``"two"`` for all levels, or a mapping
        ``{level: "one"|"two"}`` (e.g. the paper's HBSP^2 variants use
        either at level 2 and two-phase at level 1).
    fractions:
        Optional per-processor ``c`` fractions selecting the two-phase
        scheme's *balanced* first phase (Fig. 4(b)): each child's share
        is proportional to its subtree's summed ``c``.  Equal split
        when omitted.
    """
    plan = plan_from_phases(phases, params.k)
    name = f"broadcast(k={params.k}, n={n}, phases={phases!r})"
    return _broadcast_ledger(params, n, plan, root, fractions, item_bytes, name)


def predict_gather_plan(
    params: HBSPParams,
    n: int,
    plan: SchedulePlan,
    *,
    root: int | None = None,
    counts: t.Sequence[int] | None = None,
    item_bytes: int = BYTES_PER_INT,
) -> CostLedger:
    """Cost of the HBSP^k gather under an explicit schedule plan.

    ``plan`` is a :class:`repro.tuning.plan.SchedulePlan` with
    ``op == "gather"`` and one :class:`~repro.tuning.plan.LevelSchedule`
    per hierarchy level; :func:`predict_gather` is this function at
    ``default_plan("gather", k)``.
    """
    check_plan(plan, "gather", params.k)
    name = f"gather(k={params.k}, n={n}, plan={plan.key})"
    return _gather_ledger(params, n, plan, root, counts, item_bytes, name)


def predict_broadcast_plan(
    params: HBSPParams,
    n: int,
    plan: SchedulePlan,
    *,
    root: int | None = None,
    fractions: t.Sequence[float] | None = None,
    item_bytes: int = BYTES_PER_INT,
) -> CostLedger:
    """Cost of the HBSP^k broadcast under an explicit schedule plan.

    :func:`predict_broadcast` is this function at
    ``plan_from_phases(phases, k)``; ``fractions`` selects the
    c-weighted first-phase shares for two-phase levels, as there.
    """
    check_plan(plan, "broadcast", params.k)
    name = f"broadcast(k={params.k}, n={n}, plan={plan.key})"
    return _broadcast_ledger(params, n, plan, root, fractions, item_bytes, name)


# ---------------------------------------------------------------------------
# The paper's simplified formulas (verbatim from Section 4)
# ---------------------------------------------------------------------------

def _nbytes(n: int, item_bytes: int) -> float:
    return float(n) * item_bytes


def paper_gather_hbsp1(params: HBSPParams, n: int, *, item_bytes: int = BYTES_PER_INT) -> float:
    """Section 4.2: balanced HBSP^1 gather costs ``g·n + L_{1,0}``."""
    if params.k != 1:
        raise ModelError("paper formula applies to HBSP^1 machines")
    return params.g * _nbytes(n, item_bytes) + params.L_of(1, 0)


def paper_gather_hbsp2_super2(
    params: HBSPParams, n: int, *, item_bytes: int = BYTES_PER_INT
) -> float:
    """Section 4.3: the balanced HBSP^2 gather super²-step is ``g·n + L_{2,0}``."""
    if params.k != 2:
        raise ModelError("paper formula applies to HBSP^2 machines")
    return params.g * _nbytes(n, item_bytes) + params.L_of(2, 0)


def paper_broadcast_hbsp1_one_phase(
    params: HBSPParams, n: int, *, item_bytes: int = BYTES_PER_INT
) -> float:
    """Section 4.4: one-phase HBSP^1 broadcast costs ``g·n·m + L_{1,0}``.

    (The paper prints ``m_{2,0}`` in this formula; on an HBSP^1 machine
    the sender fan-out is ``m_{1,0}``.)
    """
    if params.k != 1:
        raise ModelError("paper formula applies to HBSP^1 machines")
    return params.g * _nbytes(n, item_bytes) * params.m_of(1, 0) + params.L_of(1, 0)


def paper_broadcast_hbsp1_two_phase(
    params: HBSPParams, n: int, *, item_bytes: int = BYTES_PER_INT
) -> float:
    """Section 4.4: two-phase HBSP^1 broadcast costs ``g·n(1+r_{0,s}) + 2L_{1,0}``."""
    if params.k != 1:
        raise ModelError("paper formula applies to HBSP^1 machines")
    r_s = params.slowest_r(0)
    return params.g * _nbytes(n, item_bytes) * (1.0 + r_s) + 2 * params.L_of(1, 0)


def paper_broadcast_hbsp2_super2_one_phase(
    params: HBSPParams, n: int, *, item_bytes: int = BYTES_PER_INT
) -> float:
    """Section 4.4 HBSP^2 analysis, one-phase super²-step.

    ``g·max(r_{1,s}·n, r_{2,0}·n·m_{2,0}) + L_{2,0}``.
    """
    if params.k != 2:
        raise ModelError("paper formula applies to HBSP^2 machines")
    r_1s = params.slowest_r(1)
    r_root = params.r_of(2, 0)
    m = params.m_of(2, 0)
    nb = _nbytes(n, item_bytes)
    return params.g * max(r_1s * nb, r_root * nb * m) + params.L_of(2, 0)


def paper_broadcast_hbsp2_super2_two_phase(
    params: HBSPParams, n: int, *, item_bytes: int = BYTES_PER_INT
) -> float:
    """Section 4.4 HBSP^2 analysis, two-phase super²-steps.

    First step: ``g·max(r_{1,s}·n/m_{2,0}, r_{2,0}·n)``;
    second step: ``g·r_{1,s}·n``; plus ``2L_{2,0}``.
    """
    if params.k != 2:
        raise ModelError("paper formula applies to HBSP^2 machines")
    r_1s = params.slowest_r(1)
    r_root = params.r_of(2, 0)
    m = params.m_of(2, 0)
    nb = _nbytes(n, item_bytes)
    first = max(r_1s * nb / m, r_root * nb)
    second = r_1s * nb
    return params.g * (first + second) + 2 * params.L_of(2, 0)
