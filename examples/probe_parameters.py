#!/usr/bin/env python3
"""Probing HBSP parameters empirically, BSPlib style.

The model "assumes that such costs have been determined appropriately"
(Section 3.3).  This example determines them two ways and compares:

1. **calibration** — derive g, r, L from the declared machine specs;
2. **probing** — measure them by running micro-benchmarks (empty
   supersteps, two-size ping messages) on the simulated machine, the
   way BSPlib's bsp_probe parameterises real hardware.

It finishes with an ASCII Gantt chart of a gather, showing where the
simulated time actually goes (the root's solid run of drains).

Run:  python examples/probe_parameters.py
"""

from repro import ucf_testbed, run_gather
from repro.model import calibrate, probe_params
from repro.obs import gantt, observe
from repro.util.tables import AsciiTable


def main() -> None:
    topology = ucf_testbed(6)
    params = calibrate(topology)
    report = probe_params(topology)

    table = AsciiTable(
        "calibrated vs probed parameters (probed values include "
        "pack/unpack, hence 'effective')",
        ["machine", "r (calibrated)", "r (probed)"],
    )
    for j, machine in enumerate(topology.machines):
        table.add_row([machine.name, params.r_of(0, j), report.r[j]])
    print(table.render())
    print(f"g: calibrated {params.g:.3g} s/B, probed (effective) {report.g:.3g} s/B")
    print(f"L(1,0): calibrated {params.L_of(1, 0):.6f} s, "
          f"probed {report.L[(1, 0)]:.6f} s")
    print()

    with observe(spans=True) as observation:
        run_gather(topology, 100_000)
    print("where a gather's time goes (the gather root at the top):")
    machines = [machine.name for machine in topology.machines]
    print(gantt(observation.tracer, width=64, actors=machines))


if __name__ == "__main__":
    main()
