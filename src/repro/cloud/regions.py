"""Regional server placement over the remote population's geography."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.metrics.stats import percentile
from repro.net.geo import CITY_REGIONS, WORLD_CITIES, GeoPoint
from repro.net.latency import WanLatencyModel
from repro.workload.population import RemotePopulation, RemoteUser

#: Cities where a real operator could rent servers.
DEFAULT_CANDIDATE_SITES = (
    "hkust_cwb", "tokyo", "singapore", "seoul", "mumbai", "dubai",
    "london", "paris", "new_york", "san_francisco", "sao_paulo", "sydney",
)


@dataclass
class RegionalPlan:
    """Chosen server sites and the user → site assignment."""

    sites: List[str]
    assignment: Dict[str, str] = field(default_factory=dict)  # user_id -> site
    rtts: Dict[str, float] = field(default_factory=dict)      # user_id -> seconds

    def rtt_array(self) -> np.ndarray:
        return np.array(sorted(self.rtts.values()))

    def _require_rtts(self, statistic: str) -> np.ndarray:
        rtts = self.rtt_array()
        if rtts.size == 0:
            raise ValueError(
                f"{statistic} is undefined: the plan has no user RTTs "
                "(zero remote users)")
        return rtts

    def mean_rtt(self) -> float:
        """Mean user RTT; raises ``ValueError`` when the plan has no users."""
        return float(self._require_rtts("mean_rtt").mean())

    def p95_rtt(self) -> float:
        """95th-percentile user RTT; raises ``ValueError`` with no users."""
        return float(percentile(self._require_rtts("p95_rtt"), 95.0))

    def fraction_above(self, threshold_s: float) -> float:
        """Fraction of users whose RTT exceeds ``threshold_s``.

        Well-defined for an empty plan: with zero remote users, zero of
        them (0.0) are above any threshold — not NaN.
        """
        rtts = self.rtt_array()
        if rtts.size == 0:
            return 0.0
        return float((rtts > threshold_s).mean())


def _user_site_rtt(
    user: RemoteUser, site: str, model: WanLatencyModel
) -> float:
    return model.rtt(
        user.geo,
        WORLD_CITIES[site],
        user.region,
        CITY_REGIONS[site],
        sample_jitter=False,
    )


def plan_regions(
    population: RemotePopulation,
    k: int,
    model: Optional[WanLatencyModel] = None,
    candidates: Sequence[str] = DEFAULT_CANDIDATE_SITES,
    exclude: Sequence[str] = (),
) -> RegionalPlan:
    """Greedy k-median placement of ``k`` regional servers.

    Iteratively adds the candidate site that most reduces the population's
    total RTT — the standard greedy approximation (1 - 1/e of optimal for
    this submodular objective), plenty for the experiment's purpose.
    Users are then assigned to their closest chosen site.

    ``exclude`` removes sites from candidacy — the re-plan path after a
    regional outage plans around the dead site without touching the
    candidate catalogue.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not population.users:
        raise ValueError("population is empty")
    if model is None:
        model = WanLatencyModel()
    excluded = set(exclude)
    candidates = [site for site in candidates if site not in excluded]
    if not candidates:
        raise ValueError("every candidate site is excluded")
    if k > len(candidates):
        raise ValueError(f"k={k} exceeds the {len(candidates)} candidate sites")

    # Precompute user x candidate RTTs.
    rtt = {
        (user.user_id, site): _user_site_rtt(user, site, model)
        for user in population.users
        for site in candidates
    }
    chosen: List[str] = []
    best_per_user: Dict[str, float] = {
        user.user_id: float("inf") for user in population.users
    }
    for _ in range(k):
        best_site, best_total = None, float("inf")
        for site in candidates:
            if site in chosen:
                continue
            total = sum(
                min(best_per_user[user.user_id], rtt[(user.user_id, site)])
                for user in population.users
            )
            if total < best_total:
                best_site, best_total = site, total
        chosen.append(best_site)
        for user in population.users:
            best_per_user[user.user_id] = min(
                best_per_user[user.user_id], rtt[(user.user_id, best_site)]
            )

    plan = RegionalPlan(sites=chosen)
    for user in population.users:
        site = min(chosen, key=lambda s: rtt[(user.user_id, s)])
        plan.assignment[user.user_id] = site
        plan.rtts[user.user_id] = rtt[(user.user_id, site)]
    return plan


def reassign_after_outage(
    plan: RegionalPlan,
    dead_site: str,
    population: RemotePopulation,
    model: Optional[WanLatencyModel] = None,
) -> RegionalPlan:
    """Fast failover assignment when ``dead_site`` drops out of ``plan``.

    Users on surviving sites keep their assignment (and RTT) untouched —
    failover must not churn healthy sessions — while the dead site's users
    are reassigned to their nearest surviving site.  For a from-scratch
    placement that avoids the dead site, call :func:`plan_regions` with
    ``exclude=(dead_site,)`` instead.
    """
    if dead_site not in plan.sites:
        raise ValueError(f"{dead_site!r} is not in the plan")
    survivors = [site for site in plan.sites if site != dead_site]
    if not survivors:
        raise ValueError("no surviving site to fail over to")
    if model is None:
        model = WanLatencyModel()
    users = {user.user_id: user for user in population.users}
    new_plan = RegionalPlan(sites=survivors)
    for user_id, site in plan.assignment.items():
        if site != dead_site:
            new_plan.assignment[user_id] = site
            new_plan.rtts[user_id] = plan.rtts[user_id]
            continue
        user = users[user_id]
        best = min(survivors, key=lambda s: _user_site_rtt(user, s, model))
        new_plan.assignment[user_id] = best
        new_plan.rtts[user_id] = _user_site_rtt(user, best, model)
    return new_plan


def single_server_plan(
    population: RemotePopulation,
    site: str = "hkust_cwb",
    model: Optional[WanLatencyModel] = None,
) -> RegionalPlan:
    """The baseline: every user served by one site."""
    if model is None:
        model = WanLatencyModel()
    plan = RegionalPlan(sites=[site])
    for user in population.users:
        plan.assignment[user.user_id] = site
        plan.rtts[user.user_id] = _user_site_rtt(user, site, model)
    return plan
