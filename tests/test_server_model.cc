/** @file Unit tests for the DGX server power model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "power/server_model.hh"
#include "sim/random.hh"

using namespace polca::power;

namespace {

/** Server power from scratch: each GPU's formula, then host + GPUs. */
double
serverPowerFromScratch(const ServerModel &server)
{
    double gpuWatts = 0.0;
    for (std::size_t i = 0; i < server.numGpus(); ++i) {
        const GpuPowerModel &gpu = server.gpu(i);
        gpuWatts += gpu.powerAtClock(gpu.effectiveClockMhz());
    }
    const ServerSpec &spec = server.spec();
    double gpuIdle = static_cast<double>(server.numGpus()) *
        spec.gpu.idleWatts;
    double host = spec.hostIdleWatts +
        spec.hostGpuTrackingFactor * std::max(0.0, gpuWatts - gpuIdle);
    return host + gpuWatts;
}

/**
 * Apply one seeded random server mutator.  Per-GPU mutators get a
 * random GPU subset; values come from small sets so that repeated
 * inputs (the skipped GPU refreshes) are frequent.
 */
void
mutateRandomly(ServerModel &server, polca::sim::Rng &rng)
{
    const double clocks[] = {210.0, 705.0, 1110.0, 1275.0, 1410.0};
    const GpuActivity activities[] = {GpuActivity::idle(), {1.05, 0.5},
                                      {0.35, 0.9}, {1.1, 0.55}};
    auto pick = [&rng](std::int64_t n) {
        return static_cast<std::size_t>(rng.uniformInt(0, n - 1));
    };
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < server.numGpus(); ++i) {
        if (rng.uniformInt(0, 1) == 0)
            ids.push_back(i);
    }
    switch (rng.uniformInt(0, 10)) {
      case 0:
        server.setActivity(ids, activities[pick(4)]);
        break;
      case 1:
        server.lockClock(ids, clocks[pick(5)]);
        break;
      case 2:
        server.setActivityAll(activities[pick(4)]);
        break;
      case 3:
        server.lockClockAll(clocks[pick(5)]);
        break;
      case 4:
        server.unlockClockAll();
        break;
      case 5:
        server.setPowerCapAll(rng.uniform(280.0, 420.0));
        break;
      case 6:
        server.clearPowerCapAll();
        break;
      case 7:
        server.setPowerBrakeAll(rng.uniformInt(0, 3) == 0);
        break;
      default:
        server.stepCapControllers();
        break;
    }
}

} // namespace

TEST(ServerSpec, ProvisionedBreakdownSumsToRated)
{
    ServerSpec spec = ServerSpec::dgxA100_80gb();
    double total = 0.0;
    for (const auto &[name, watts] : spec.provisionedBreakdown())
        total += watts;
    EXPECT_NEAR(total, spec.ratedPowerWatts, 1e-9);
}

TEST(ServerSpec, GpusAreAboutHalfOfProvisionedPower)
{
    // Figure 3: ~50 % of provisioned power goes to GPUs.
    ServerSpec spec = ServerSpec::dgxA100_80gb();
    double fraction = spec.provisionedGpuWatts() / spec.ratedPowerWatts;
    EXPECT_NEAR(fraction, 0.50, 0.03);
}

TEST(ServerSpec, FansAreAboutQuarterOfProvisionedPower)
{
    // Figure 3 / Section 5: fans are nearly 25 % of server power.
    ServerSpec spec = ServerSpec::dgxA100_80gb();
    EXPECT_NEAR(spec.provisionedFansWatts / spec.ratedPowerWatts, 0.25,
                0.02);
}

TEST(ServerModel, IdlePower)
{
    ServerModel server(ServerSpec::dgxA100_80gb());
    double expected = server.spec().hostIdleWatts +
        8 * server.spec().gpu.idleWatts;
    EXPECT_DOUBLE_EQ(server.powerWatts(), expected);
}

TEST(ServerModel, PeakStaysUnderRatedPower)
{
    // Section 5: observed peak (~5.7 kW) never hits the 6.5 kW
    // rating — the derating opportunity.
    ServerModel server(ServerSpec::dgxA100_80gb());
    // Worst observed phase: a saturated prompt burst.
    server.setActivityAll({1.1, 0.55});
    EXPECT_LT(server.powerWatts(), server.spec().ratedPowerWatts);
    EXPECT_GT(server.powerWatts(), 5400.0);
    EXPECT_LT(server.powerWatts(), 5900.0);
}

TEST(ServerModel, GpusAreMajorityOfLoadedPower)
{
    // Insight 8: GPUs ~60 % of server power under load.
    ServerModel server(ServerSpec::dgxA100_80gb());
    server.setActivityAll({1.0, 0.6});
    double fraction = server.gpuPowerWatts() / server.powerWatts();
    EXPECT_GT(fraction, 0.55);
    EXPECT_LT(fraction, 0.70);
}

TEST(ServerModel, HostPowerTracksGpuPower)
{
    ServerModel server(ServerSpec::dgxA100_80gb());
    EXPECT_DOUBLE_EQ(server.hostPowerWatts(),
                     server.spec().hostIdleWatts);
    server.setActivityAll({1.0, 0.5});
    double gpuDynamic = server.gpuPowerWatts() -
        8 * server.spec().gpu.idleWatts;
    EXPECT_DOUBLE_EQ(server.hostPowerWatts(),
                     server.spec().hostIdleWatts +
                         server.spec().hostGpuTrackingFactor *
                             gpuDynamic);
}

TEST(ServerModel, FrequencyCappingReclaimsHostPowerToo)
{
    // Fans/VR losses follow GPU draw, so locking clocks reduces
    // host power as well — part of why row-level capping works.
    ServerModel server(ServerSpec::dgxA100_80gb());
    server.setActivityAll({0.55, 0.9});  // token-phase-like
    double before = server.hostPowerWatts();
    server.lockClockAll(1110.0);
    EXPECT_LT(server.hostPowerWatts(), before);
}

TEST(ServerModel, FleetControlsReachAllGpus)
{
    ServerModel server(ServerSpec::dgxA100_80gb());
    server.lockClockAll(1200.0);
    for (std::size_t i = 0; i < server.numGpus(); ++i)
        EXPECT_DOUBLE_EQ(server.gpu(i).effectiveClockMhz(), 1200.0);
    server.unlockClockAll();
    for (std::size_t i = 0; i < server.numGpus(); ++i)
        EXPECT_FALSE(server.gpu(i).clockLocked());
    server.setPowerBrakeAll(true);
    for (std::size_t i = 0; i < server.numGpus(); ++i)
        EXPECT_TRUE(server.gpu(i).powerBrake());
}

TEST(ServerModel, WorstSlowdownPicksSlowestGpu)
{
    ServerModel server(ServerSpec::dgxA100_80gb());
    server.lockClock({3}, 705.0);
    EXPECT_NEAR(server.worstSlowdownFactor(1.0), 2.0, 1e-9);
}

TEST(ServerModel, PerGpuActivityIndependent)
{
    ServerModel server(ServerSpec::dgxA100_80gb());
    server.setActivity({0}, {1.0, 0.5});
    double p = server.gpuPowerWatts();
    double idle = server.spec().gpu.idleWatts;
    EXPECT_GT(p, 7 * idle + 300.0);
    EXPECT_LT(p, 7 * idle + 500.0);
}

TEST(ServerModel, H100SpecsLoad)
{
    ServerModel server(ServerSpec::dgxH100());
    EXPECT_EQ(server.numGpus(), 8u);
    EXPECT_DOUBLE_EQ(server.spec().ratedPowerWatts, 10200.0);
}

TEST(ServerModel, CapControllersStepAcrossGpus)
{
    ServerModel server(ServerSpec::dgxA100_80gb());
    server.setActivityAll({1.05, 0.5});
    server.setPowerCapAll(325.0);
    for (int i = 0; i < 200; ++i)
        server.stepCapControllers();
    for (std::size_t i = 0; i < server.numGpus(); ++i)
        EXPECT_LE(server.gpu(i).powerWatts(), 330.0);
    server.clearPowerCapAll();
    EXPECT_GT(server.gpu(0).powerWatts(), 400.0);
}

TEST(ServerModel, StoredPowerIsFormulaBitwise)
{
    // powerWatts() is refreshed by the mutators, not computed on
    // read; after any sequence of them it must equal the host-plus-GPU
    // formula over every GPU's formula exactly.  A copy taken
    // mid-sequence (the snapshot path) must stay exact as both
    // diverge.
    polca::sim::Rng rng(14);
    ServerModel server(ServerSpec::dgxA100_80gb());
    for (int step = 0; step < 3000; ++step) {
        mutateRandomly(server, rng);
        ASSERT_EQ(server.powerWatts(), serverPowerFromScratch(server))
            << "step " << step;
    }
    ServerModel copy = server;
    ASSERT_EQ(copy.powerWatts(), server.powerWatts());
    polca::sim::Rng copyRng(15);
    for (int step = 0; step < 3000; ++step) {
        mutateRandomly(server, rng);
        mutateRandomly(copy, copyRng);
        ASSERT_EQ(server.powerWatts(), serverPowerFromScratch(server))
            << "step " << step;
        ASSERT_EQ(copy.powerWatts(), serverPowerFromScratch(copy))
            << "copy step " << step;
    }
}
