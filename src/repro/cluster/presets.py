"""Ready-made cluster topologies.

The defaults are calibrated to late-1990s hardware in the spirit of the
paper's testbed:

* 100 Mbit/s switched Ethernet ≈ 12.5 MB/s ⇒ wire gap 8e-8 s/byte;
* workstation CPUs spanning a ~4x BYTEmark range;
* NIC/protocol-stack speeds spanning a ~2.5x range (the model's ``r``);
* message pack/unpack (PVM XDR encoding) costs a few CPU ops per byte,
  with packing costlier than unpacking.

Absolute values matter less than the ratios — the experiments report
*improvement factors*, which depend only on relative speeds.
"""

from __future__ import annotations

import typing as t

from repro.cluster.discover.generators import GENERATORS, build_generated
from repro.cluster.machine import MachineSpec
from repro.cluster.network import NetworkSpec
from repro.cluster.topology import Cluster, ClusterTopology
from repro.errors import ReproError, ValidationError
from repro.util.validation import check_known, check_positive, check_positive_int

__all__ = [
    "ETHERNET_100",
    "ETHERNET_10",
    "SMP_BUS",
    "CAMPUS_ATM",
    "WAN",
    "ucf_testbed",
    "smp_sgi_lan",
    "flat_cluster",
    "two_lans",
    "multi_lan",
    "grid_three_level",
    "deep_hierarchy",
    "PRESETS",
    "build_preset",
    "build_any",
]

#: 100 Mbit/s switched Ethernet (the testbed's interconnect).
ETHERNET_100 = NetworkSpec(
    "ethernet-100", gap=8e-8, latency=1.5e-4, sync_base=8e-4, sync_per_member=2.5e-4
)

#: 10 Mbit/s shared Ethernet (an order of magnitude slower).
ETHERNET_10 = NetworkSpec(
    "ethernet-10", gap=8e-7, latency=6e-4, sync_base=2.5e-3, sync_per_member=8e-4
)

#: An SMP memory bus: far faster than any LAN.
SMP_BUS = NetworkSpec(
    "smp-bus", gap=2e-9, latency=3e-6, sync_base=2e-5, sync_per_member=4e-6
)

#: A campus backbone joining machine rooms (slower sync, higher latency).
CAMPUS_ATM = NetworkSpec(
    "campus-atm", gap=2.5e-7, latency=1.2e-3, sync_base=6e-3, sync_per_member=1.2e-3
)

#: A wide-area link (grid scenarios; §3 of the paper).
WAN = NetworkSpec(
    "wan", gap=2e-6, latency=2.5e-2, sync_base=8e-2, sync_per_member=1e-2
)


#: The ten-workstation pool of the UCF testbed: name, CPU rate, NIC gap.
#: CPU rates span a ~4x BYTEmark-style spread.  NIC (protocol-stack)
#: slowness spans only ~1.25x: on the testbed every machine sat on the
#: same 100 Mbit/s Ethernet, so communication was wire-bound and the
#: interesting heterogeneity lived in the CPUs (pack/unpack/compute) —
#: this is what makes the broadcast root choice "negligible" (Fig. 4)
#: while the gather root choice matters (Fig. 3).
_UCF_POOL: tuple[tuple[str, float, float], ...] = (
    ("sgi-octane", 1.00e8, 8.00e-8),   # the fastest machine: r = 1
    ("sun-ultra2", 8.00e7, 8.20e-8),
    ("sgi-o2", 7.00e7, 8.41e-8),
    ("sun-ultra1", 5.50e7, 8.62e-8),
    ("sgi-indigo2", 4.50e7, 8.84e-8),
    ("sun-sparc20", 4.00e7, 9.06e-8),
    ("sgi-indy", 3.50e7, 9.29e-8),
    ("sun-sparc10", 3.00e7, 9.52e-8),
    ("sun-sparc5", 2.75e7, 9.76e-8),
    ("sun-classic", 2.50e7, 1.00e-7),  # the slowest machine: r = 1.25
)


def _workstation(name: str, cpu_rate: float, nic_gap: float) -> MachineSpec:
    return MachineSpec(
        name=name,
        cpu_rate=cpu_rate,
        nic_gap=nic_gap,
        pack_cost=2.0,
        unpack_cost=0.8,
        msg_overhead=5000.0,
    )


def ucf_testbed(p: int = 10) -> ClusterTopology:
    """The paper's testbed: ``p`` (≤ 10) heterogeneous workstations.

    Machines come from a fixed pool of ten SUN/SGI-class specs joined
    by 100 Mbit/s Ethernet.  For ``p < 10`` the subset always spans the
    full speed range (it includes the fastest and the slowest machine,
    with the rest chosen at even spacing across the ranking) so the
    root-selection experiments stay meaningful at every ``p``.
    """
    p = check_positive_int("p", p)
    if p > len(_UCF_POOL):
        raise ValidationError(f"ucf_testbed supports at most {len(_UCF_POOL)} machines")
    if p == len(_UCF_POOL):
        picks: t.Sequence[int] = range(len(_UCF_POOL))
    elif p == 1:
        picks = (0,)
    else:
        # Even spacing across the speed-sorted pool, endpoints included.
        last = len(_UCF_POOL) - 1
        picks = sorted({round(i * last / (p - 1)) for i in range(p)})
        # Rounding can merge adjacent picks; fill from unused slots.
        pool = [i for i in range(len(_UCF_POOL)) if i not in picks]
        while len(picks) < p:
            picks.append(pool.pop(0))
        picks = sorted(picks)
    machines = [_workstation(*_UCF_POOL[i]) for i in picks]
    return ClusterTopology(Cluster("ucf-lan", ETHERNET_100, machines))


def flat_cluster(
    p: int,
    *,
    slowdown: float = 4.0,
    nic_slowdown: float = 1.25,
    network: NetworkSpec = ETHERNET_100,
    name: str = "lan",
    cpu_fast: float = 1e8,
    nic_fast: float = 8e-8,
) -> ClusterTopology:
    """A parametric 1-level heterogeneous cluster.

    Machine ``j`` (0-based) has its CPU interpolated geometrically
    between the fastest machine and one ``slowdown`` times slower, and
    its NIC between the fastest and ``nic_slowdown`` times slower, so
    machine 0 is the fastest and machine ``p-1`` the slowest.
    ``slowdown = nic_slowdown = 1`` yields a homogeneous (pure BSP)
    cluster.
    """
    p = check_positive_int("p", p)
    check_positive("slowdown", slowdown)
    check_positive("nic_slowdown", nic_slowdown)
    if slowdown < 1 or nic_slowdown < 1:
        raise ValidationError("slowdown factors must be >= 1")
    machines = []
    for j in range(p):
        frac = j / (p - 1) if p > 1 else 0.0
        machines.append(
            _workstation(
                f"{name}-m{j}",
                cpu_fast / slowdown**frac,
                nic_fast * nic_slowdown**frac,
            )
        )
    return ClusterTopology(Cluster(name, network, machines))


def smp_sgi_lan() -> ClusterTopology:
    """The HBSP^2 machine of Figure 1: an SMP, an SGI box, and a LAN.

    Level 1 holds three HBSP^1 machines — a four-processor symmetric
    multiprocessor (fast bus), a lone SGI workstation, and a LAN of
    four workstations — joined at level 2 by a campus network.
    """
    smp = Cluster(
        "smp",
        SMP_BUS,
        [_workstation(f"smp-cpu{i}", 9.0e7, 8.5e-8) for i in range(4)],
    )
    lan = Cluster(
        "lan",
        ETHERNET_100,
        [
            _workstation("lan-sun0", 6.0e7, 8.6e-8),
            _workstation("lan-sun1", 5.0e7, 8.9e-8),
            _workstation("lan-indy", 3.5e7, 9.3e-8),
            _workstation("lan-classic", 2.5e7, 1.0e-7),
        ],
    )
    sgi = _workstation("sgi-octane", 1.0e8, 8.0e-8)
    return ClusterTopology(Cluster("campus", CAMPUS_ATM, [smp, sgi, lan]))


def two_lans(
    p_per_lan: int = 4,
    *,
    slowdown: float = 4.0,
    nic_slowdown: float = 1.25,
    backbone: NetworkSpec = CAMPUS_ATM,
) -> ClusterTopology:
    """A parametric HBSP^2 machine: two heterogeneous LANs on a backbone."""
    p_per_lan = check_positive_int("p_per_lan", p_per_lan)
    lans = []
    for idx in range(2):
        machines = []
        for j in range(p_per_lan):
            # Interleave speeds so each LAN spans the whole range but
            # the two LANs are not identical.
            rank = (j * 2 + idx) / max(1, p_per_lan * 2 - 1)
            machines.append(
                _workstation(
                    f"lan{idx}-m{j}",
                    1e8 / slowdown**rank,
                    8e-8 * nic_slowdown**rank,
                )
            )
        lans.append(Cluster(f"lan{idx}", ETHERNET_100, machines))
    return ClusterTopology(Cluster("campus", backbone, lans))


def multi_lan(
    lan_count: int,
    p_per_lan: int = 4,
    *,
    slowdown: float = 4.0,
    nic_slowdown: float = 1.25,
    backbone: NetworkSpec = CAMPUS_ATM,
) -> ClusterTopology:
    """A parametric HBSP^2 machine: ``lan_count`` LANs on a backbone.

    Used by the Section-4.4 regime analysis, which needs ``m_{2,0}``
    (the number of level-1 clusters) to vary against ``r_{1,s}``.
    Machine speeds interleave across LANs as in :func:`two_lans`.
    """
    lan_count = check_positive_int("lan_count", lan_count)
    p_per_lan = check_positive_int("p_per_lan", p_per_lan)
    total = lan_count * p_per_lan
    lans = []
    for idx in range(lan_count):
        machines = []
        for j in range(p_per_lan):
            rank = (j * lan_count + idx) / max(1, total - 1)
            machines.append(
                _workstation(
                    f"lan{idx}-m{j}",
                    1e8 / slowdown**rank,
                    8e-8 * nic_slowdown**rank,
                )
            )
        lans.append(Cluster(f"lan{idx}", ETHERNET_100, machines))
    return ClusterTopology(Cluster("campus", backbone, lans))


def deep_hierarchy(
    k: int,
    fan_out: int = 2,
    *,
    slowdown: float = 4.0,
    nic_slowdown: float = 1.25,
    level_scale: float = 2.5,
) -> ClusterTopology:
    """An arbitrary-depth HBSP^k machine (generality testing).

    Builds a complete ``fan_out``-ary tree of height ``k``: each level
    uses a network ``level_scale`` times slower than the one below
    (Section 1's order-of-magnitude-per-level guidance, geometrically).
    Leaf speeds interpolate across ``slowdown``/``nic_slowdown`` ranges
    in leaf order, so every preset is heterogeneous at level 0 too.
    """
    k = check_positive_int("k", k)
    fan_out = check_positive_int("fan_out", fan_out)
    total = fan_out**k
    counter = 0

    def build(level: int, prefix: str) -> Cluster:
        nonlocal counter
        network = ETHERNET_100.scaled(
            1.0 / level_scale ** (level - 1), name=f"net-l{level}-{prefix}"
        )
        children: list[Cluster | MachineSpec] = []
        for i in range(fan_out):
            if level == 1:
                rank = counter / max(1, total - 1)
                children.append(
                    _workstation(
                        f"{prefix}m{i}",
                        1e8 / slowdown**rank,
                        8e-8 * nic_slowdown**rank,
                    )
                )
                counter += 1
            else:
                children.append(build(level - 1, f"{prefix}{i}."))
        return Cluster(f"c-{prefix or 'root'}", network, children)

    return ClusterTopology(build(k, ""))


def grid_three_level(
    sites: int = 2,
    lans_per_site: int = 2,
    p_per_lan: int = 3,
    *,
    slowdown: float = 4.0,
    nic_slowdown: float = 1.5,
) -> ClusterTopology:
    """A k = 3 computational-grid topology (Section 3's grid claim).

    ``sites`` campuses hang off a WAN; each campus backbone joins
    ``lans_per_site`` Ethernet LANs of ``p_per_lan`` heterogeneous
    workstations.
    """
    sites = check_positive_int("sites", sites)
    lans_per_site = check_positive_int("lans_per_site", lans_per_site)
    p_per_lan = check_positive_int("p_per_lan", p_per_lan)
    total = sites * lans_per_site * p_per_lan
    site_nodes = []
    counter = 0
    for s in range(sites):
        lan_nodes = []
        for l in range(lans_per_site):
            machines = []
            for j in range(p_per_lan):
                rank = counter / max(1, total - 1)
                machines.append(
                    _workstation(
                        f"s{s}l{l}-m{j}",
                        1e8 / slowdown**rank,
                        8e-8 * nic_slowdown**rank,
                    )
                )
                counter += 1
            lan_nodes.append(Cluster(f"site{s}-lan{l}", ETHERNET_100, machines))
        site_nodes.append(Cluster(f"site{s}", CAMPUS_ATM, lan_nodes))
    return ClusterTopology(Cluster("grid", WAN, site_nodes))


#: Preset name -> (factory taking an optional size, description).
PRESETS: dict[str, tuple[t.Callable[[int | None], ClusterTopology], str]] = {
    "testbed": (
        lambda p: ucf_testbed(p if p is not None else 10),
        "the paper's SUN/SGI testbed (k=1, p<=10; default 10)",
    ),
    "flat": (
        lambda p: flat_cluster(p if p is not None else 8),
        "parametric heterogeneous Ethernet LAN (k=1; default p=8)",
    ),
    "fig1": (
        lambda p: smp_sgi_lan(),
        "the paper's Figure-1 machine: SMP + SGI + LAN (k=2, p=9)",
    ),
    "two-lans": (
        lambda p: two_lans(p if p is not None else 4),
        "two LANs on a campus backbone (k=2; default 4 per LAN)",
    ),
    "multi-lan": (
        lambda p: multi_lan(p if p is not None else 3),
        "N LANs on a campus backbone (k=2; default 3 LANs)",
    ),
    "grid": (
        lambda p: grid_three_level(),
        "two-site computational grid over a WAN (k=3, p=12)",
    ),
    "deep": (
        lambda p: deep_hierarchy(p if p is not None else 4),
        "complete binary hierarchy of depth k (default k=4)",
    ),
}


def build_preset(spec: str) -> ClusterTopology:
    """Build a preset from ``name`` or ``name:size``."""
    name, _, size_text = spec.partition(":")
    check_known("preset", name, sorted(PRESETS), ReproError)
    try:
        size = int(size_text) if size_text else None
    except ValueError:
        raise ReproError(
            f"preset size must be an integer, got {size_text!r} in {spec!r}"
        ) from None
    return PRESETS[name][0](size)


def build_any(spec: str) -> ClusterTopology:
    """Build from a generator spec (``family:key=value,...``) or a preset."""
    family = spec.partition(":")[0]
    if family in GENERATORS:
        return build_generated(spec)
    check_known("preset or generator", family, sorted([*PRESETS, *GENERATORS]), ReproError)
    return build_preset(spec)
