"""Experiment F2 (Figure 2): the two-campus + cloud unit case.

Runs the full blended deployment — CWB and GZ MR classrooms plus the
cloud VR classroom with KAIST/MIT/Cambridge online users — and verifies
Figure 2's promise: "the intervention of a participant in any of these
classrooms will be visible to the attendants in the other two classrooms
through his or her avatar representation."
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


import numpy as np

from benchmarks.conftest import emit, header
from repro.core.unitcase import build_unit_case, unit_case_roster
from repro.metrics.stats import percentile
from repro.simkit import Simulator


def run_f2():
    sim = Simulator(seed=42)
    deployment = build_unit_case(sim, students_per_campus=5, remote_per_city=2)
    deployment.run(duration=8.0)
    return deployment


def test_f2_unit_case(benchmark):
    deployment = benchmark.pedantic(run_f2, rounds=1, iterations=1)
    report = deployment.report()
    roster = unit_case_roster(deployment)

    header("F2 — Figure 2 unit case (CWB + GZ + online, 8 simulated seconds)")
    emit("Roster:")
    for where, people in sorted(roster.items()):
        emit(f"  {where:<24} {len(people):3d}")
    emit()
    emit("Visibility (fraction of expected avatar placements delivered):")
    emit(f"  campus -> other campus (MR)   {report.cross_campus_visibility():6.1%}")
    emit(f"  online users -> MR rooms      {report.remote_visibility_at_campuses():6.1%}")
    emit(f"  everyone -> VR classroom      {report.cloud_visibility():6.1%}")
    staleness = report.staleness_cross_campus_ms()
    emit()
    emit(f"Cross-campus avatar staleness: mean {np.mean(staleness):6.1f} ms, "
         f"p95 {percentile(staleness, 95):6.1f} ms")
    for pid in ("kaist-0", "mit-0", "cambridge_uk-0"):
        latency = deployment.remote_clients[pid].snapshot_latency.summary_ms()
        emit(f"Remote {pid:<16} snapshot latency mean {latency.mean:6.1f} ms "
             f"(sees {len(report.remote_client_entities(pid))} avatars)")

    assert report.cross_campus_visibility() == 1.0
    assert report.remote_visibility_at_campuses() == 1.0
    assert report.cloud_visibility() == 1.0
    # Remote Europe/US users: WAN latency is high but bounded.
    assert deployment.remote_clients["cambridge_uk-0"].snapshot_latency.summary().mean < 0.5


def main(argv=None):
    import argparse

    from benchmarks._emit import write_bench_json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode (this bench is already quick)")
    args = parser.parse_args(argv)
    deployment = run_f2()
    report = deployment.report()
    path = write_bench_json(
        "f2", "cloud_visibility", report.cloud_visibility(), "fraction",
        params={
            "cross_campus_visibility": report.cross_campus_visibility(),
            "remote_visibility": report.remote_visibility_at_campuses(),
            "staleness_mean_ms": float(
                np.mean(report.staleness_cross_campus_ms())),
        })
    print(f"cloud visibility {report.cloud_visibility():.0%}; wrote {path}")
    return deployment


if __name__ == "__main__":
    main()
