"""Integration tests: the full blended deployment (Figure 2 / Figure 3)."""

import numpy as np
import pytest

from repro.core.metaverse import MetaverseClassroom
from repro.core.participant import Participant, Role
from repro.core.unitcase import build_unit_case, unit_case_roster
from repro.simkit import Simulator


@pytest.fixture(scope="module")
def unit_case():
    """One shared unit-case run (module-scoped: it is the expensive test)."""
    sim = Simulator(seed=42)
    deployment = build_unit_case(sim, students_per_campus=3, remote_per_city=1)
    deployment.run(duration=6.0)
    return deployment, deployment.report()


def test_unit_case_roster(unit_case):
    deployment, _report = unit_case
    roster = unit_case_roster(deployment)
    assert set(roster) == {
        "cwb", "gz", "online:kaist", "online:mit", "online:cambridge_uk"
    }
    assert len(roster["cwb"]) == 4  # 3 students + instructor


def test_f2_cross_campus_visibility(unit_case):
    """Figure 2: each campus displays the other campus's participants."""
    _deployment, report = unit_case
    assert report.cross_campus_visibility() == 1.0


def test_f2_remote_users_visible_in_both_mr_classrooms(unit_case):
    _deployment, report = unit_case
    assert report.remote_visibility_at_campuses() == 1.0


def test_f2_everyone_in_the_vr_classroom(unit_case):
    _deployment, report = unit_case
    assert report.cloud_visibility() == 1.0


def test_f2_remote_clients_see_both_campuses_and_each_other(unit_case):
    deployment, report = unit_case
    seen = set(report.remote_client_entities("kaist-0"))
    assert "instructor" in seen
    assert any(pid.startswith("gz-student") for pid in seen)
    assert "mit-0" in seen
    assert "kaist-0" not in seen  # no self echo


def test_f3_staleness_within_interactive_bounds(unit_case):
    """Section 3.3: actions must synchronize in (near) real time."""
    _deployment, report = unit_case
    staleness = report.staleness_cross_campus_ms()
    assert staleness
    # Edge tick 20 Hz + backbone: newest data under ~200 ms old.
    assert float(np.mean(staleness)) < 200.0


def test_f3_pipeline_budgets_recorded(unit_case):
    deployment, _report = unit_case
    cwb = deployment.campuses["cwb"]
    assert "wifi_uplink" in cwb.uplink_budget.stages
    assert "edge_generate" in cwb.edge.budget.stages
    assert "inter_site" in cwb.edge.budget.stages
    inter_site_ms = cwb.edge.budget.tracker("inter_site").summary_ms()
    # CWB<->GZ is ~100 km: a few ms propagation + tick quantization.
    assert inter_site_ms.mean < 150.0


def test_seats_not_double_booked(unit_case):
    deployment, _report = unit_case
    for campus in deployment.campuses.values():
        occupants = [
            campus.seat_map.occupant(seat_id)
            for seat_id in campus.seat_map.seats
            if campus.seat_map.occupant(seat_id) is not None
        ]
        assert len(occupants) == len(set(occupants))


def test_deployment_wiring_guards():
    sim = Simulator()
    deployment = MetaverseClassroom(sim)
    with pytest.raises(RuntimeError):
        deployment.run(duration=1.0)
    deployment.add_campus("cwb", city="hkust_cwb")
    with pytest.raises(ValueError):
        deployment.add_campus("cwb", city="hkust_gz")
    with pytest.raises(KeyError):
        deployment.add_campus("x", city="atlantis")
    with pytest.raises(KeyError):
        deployment.add_participant(Participant("a", campus="mars"))
    with pytest.raises(KeyError):
        deployment.add_participant(Participant("b", city="atlantis"))
    deployment.add_participant(Participant("alice", campus="cwb"))
    with pytest.raises(ValueError):
        deployment.add_participant(Participant("alice", campus="cwb"))
    deployment.wire()
    with pytest.raises(RuntimeError):
        deployment.wire()
    with pytest.raises(RuntimeError):
        deployment.add_campus("late", city="tokyo")
    with pytest.raises(ValueError):
        deployment.run(duration=0.0)


def test_unit_case_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        build_unit_case(sim, students_per_campus=0)
    with pytest.raises(ValueError):
        build_unit_case(sim, remote_per_city=-1)


def test_unit_case_runs_back_to_back():
    # Every periodic process must end at its horizon, so the edge avatar
    # ticks are released before the next run() starts them again.
    sim = Simulator(seed=11)
    deployment = build_unit_case(sim, students_per_campus=1, remote_per_city=1)
    deployment.run(duration=1.0)
    assert not any(
        campus.edge._running for campus in deployment.campuses.values())
    deployment.run(duration=1.0)
    assert sim.now == 2.0


def test_remote_instructor_goes_on_stage():
    sim = Simulator(seed=7)
    deployment = MetaverseClassroom(sim)
    deployment.add_campus("cwb", city="hkust_cwb")
    deployment.add_participant(Participant("local", campus="cwb"))
    deployment.add_participant(
        Participant("guest", city="mit", role=Role.SPEAKER)
    )
    deployment.wire()
    deployment.run(duration=3.0)
    # The guest speaker stands on the VR stage (near the origin).
    offsets = deployment.cloud._seat_offsets
    assert np.linalg.norm(offsets["guest"]) < 1.5
