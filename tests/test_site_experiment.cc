/**
 * @file
 * End-to-end site-mode experiment tests: determinism, per-level
 * rollup stats, the compositional site trace, and parent-budget
 * awareness of the per-row managers.
 */

#include <gtest/gtest.h>

#include "core/oversub_experiment.hh"

namespace {

using namespace polca;
using namespace polca::core;

ExperimentConfig
smallSite(double siteBudgetFraction = 1.0)
{
    ExperimentConfig config;
    config.seed = 5;
    config.duration = sim::secondsToTicks(180);
    config.topology.enabled = true;
    config.topology.siteBudgetFraction = siteBudgetFraction;
    cluster::TopologyRowGroup a;
    a.name = "a100";
    a.rows = 2;
    a.racksPerRow = 2;
    a.serversPerRack = 3;
    config.topology.groups.push_back(a);
    cluster::TopologyRowGroup h;
    h.name = "h100";
    h.rows = 1;
    h.racksPerRow = 2;
    h.serversPerRack = 3;
    h.server = "DGX-H100";
    h.model = "Llama2-70B";
    config.topology.groups.push_back(h);
    return config;
}

} // namespace

TEST(SiteExperiment, ProducesPreOrderDomainRollup)
{
    ExperimentResult result = runOversubExperiment(smallSite());

    // site + 3 rows + 6 racks, pre-order, site first.
    ASSERT_EQ(result.domains.size(), 10u);
    EXPECT_EQ(result.domains[0].path, "site");
    EXPECT_EQ(result.domains[0].level, "site");
    EXPECT_EQ(result.domains[0].servers, 18);
    EXPECT_EQ(result.domains[1].path, "site.a1000");
    EXPECT_EQ(result.domains[1].level, "row");
    EXPECT_EQ(result.domains[2].path, "site.a1000.rack0");
    EXPECT_EQ(result.domains[2].level, "rack");
    EXPECT_EQ(result.domains[2].servers, 3);
    EXPECT_EQ(result.domains[7].path, "site.h1000");

    // Every domain saw power; rows saw completions.
    for (const DomainStats &d : result.domains) {
        EXPECT_GT(d.peakWatts, 0.0) << d.path;
        EXPECT_GT(d.provisionedWatts, 0.0) << d.path;
        if (d.level == "row") {
            EXPECT_GT(d.completions, 0u) << d.path;
        }
    }
    EXPECT_GT(result.lowCompletions + result.highCompletions, 0u);
}

TEST(SiteExperiment, SameSeedIsDeterministic)
{
    ExperimentResult a = runOversubExperiment(smallSite());
    ExperimentResult b = runOversubExperiment(smallSite());

    EXPECT_EQ(a.lowCompletions, b.lowCompletions);
    EXPECT_EQ(a.highCompletions, b.highCompletions);
    EXPECT_EQ(a.low.p99, b.low.p99);
    EXPECT_EQ(a.high.p99, b.high.p99);
    EXPECT_EQ(a.capCommands, b.capCommands);
    EXPECT_EQ(a.energyKwh, b.energyKwh);
    ASSERT_EQ(a.domains.size(), b.domains.size());
    for (std::size_t i = 0; i < a.domains.size(); ++i) {
        EXPECT_EQ(a.domains[i].path, b.domains[i].path);
        EXPECT_EQ(a.domains[i].peakWatts, b.domains[i].peakWatts);
        EXPECT_EQ(a.domains[i].meanWatts, b.domains[i].meanWatts);
        EXPECT_EQ(a.domains[i].completions,
                  b.domains[i].completions);
    }
}

TEST(SiteExperiment, SiteTraceIsRowSumAtEveryTick)
{
    ExperimentConfig config = smallSite();
    config.recordRowSeries = true;
    ExperimentResult result = runOversubExperiment(config);

    ASSERT_FALSE(result.rowPowerSeries.empty());
    ASSERT_EQ(result.domainPowerSeries.size(), 3u);
    for (std::size_t i = 0; i < result.rowPowerSeries.size(); ++i) {
        double sum = 0.0;
        for (const DomainPowerSeries &row : result.domainPowerSeries)
            sum += row.series.at(i).value;
        // Exact float identity: the site manager reads per-row
        // rollups left to right at the same instant.
        EXPECT_EQ(result.rowPowerSeries.at(i).value, sum)
            << "tick " << i;
    }
}

TEST(SiteExperiment, TighterSiteBudgetThrottlesRows)
{
    ExperimentResult loose = runOversubExperiment(smallSite(1.0));
    ExperimentResult tight = runOversubExperiment(smallSite(0.6));

    // Parent-budget awareness: per-row managers cap against their
    // share of the site budget, so shrinking only the *site* budget
    // must produce more capping without any row config change.
    EXPECT_GT(tight.capCommands, loose.capCommands);
}

TEST(SiteExperiment, UnmanagedSiteRunsWithoutManagers)
{
    ExperimentConfig config = smallSite();
    config.managed = false;
    ExperimentResult result = runOversubExperiment(config);
    EXPECT_EQ(result.capCommands, 0u);
    EXPECT_GT(result.lowCompletions + result.highCompletions, 0u);
}

TEST(SiteExperimentDeath, RejectsFaultsChaosAndExternalTrace)
{
    ExperimentConfig faulted = smallSite();
    faults::ServerCrash crash;
    crash.at = sim::secondsToTicks(60);
    faulted.faultPlan.crashes.push_back(crash);
    EXPECT_DEATH(runOversubExperiment(faulted),
                 "site mode does not support fault/chaos injection");

    ExperimentConfig chaotic = smallSite();
    chaotic.chaos.enabled = true;
    EXPECT_DEATH(runOversubExperiment(chaotic),
                 "site mode does not support fault/chaos injection");

    workload::Trace external;
    ExperimentConfig traced = smallSite();
    traced.externalTrace = &external;
    EXPECT_DEATH(runOversubExperiment(traced),
                 "site mode does not support external traces");
}
