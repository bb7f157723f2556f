/** @file Unit and property tests for the GPU power model and knobs. */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "power/gpu_power_model.hh"
#include "sim/random.hh"

using namespace polca::power;

namespace {

GpuPowerModel
a100()
{
    return GpuPowerModel(GpuSpec::a100_80gb());
}

/** Prompt-like activity calibrated to exceed TDP slightly. */
constexpr GpuActivity promptActivity{1.05, 0.5};

/** Token-like activity: low compute, high memory. */
constexpr GpuActivity tokenActivity{0.35, 0.9};

/**
 * Apply one seeded random mutator.  Values come from small sets so
 * that repeats of the same lock, activity or brake state (the skipped
 * refreshes) are frequent; the cap controller is stepped most often
 * so that it both throttles and recovers.
 */
void
mutateRandomly(GpuPowerModel &gpu, polca::sim::Rng &rng)
{
    const double clocks[] = {210.0, 705.0, 1110.0, 1275.0, 1410.0};
    const GpuActivity activities[] = {GpuActivity::idle(), promptActivity,
                                      tokenActivity, {1.1, 0.55}};
    auto pick = [&rng](std::int64_t n) {
        return static_cast<std::size_t>(rng.uniformInt(0, n - 1));
    };
    switch (rng.uniformInt(0, 9)) {
      case 0:
        gpu.setActivity(activities[pick(4)]);
        break;
      case 1:
        gpu.lockClock(clocks[pick(5)]);
        break;
      case 2:
        gpu.unlockClock();
        break;
      case 3:
        gpu.setPowerCap(rng.uniform(280.0, 420.0));
        break;
      case 4:
        gpu.clearPowerCap();
        break;
      case 5:
        gpu.setPowerBrake(rng.uniformInt(0, 3) == 0);
        break;
      default:
        gpu.stepCapController();
        break;
    }
}

} // namespace

TEST(GpuSpec, CatalogLookup)
{
    EXPECT_EQ(GpuSpec::byName("A100-80GB").tdpWatts, 400.0);
    EXPECT_EQ(GpuSpec::byName("A100-40GB").memoryGb, 40.0);
    EXPECT_EQ(GpuSpec::byName("H100-80GB").tdpWatts, 700.0);
}

TEST(GpuSpecDeath, UnknownNameFatal)
{
    EXPECT_DEATH(GpuSpec::byName("B200"), "unknown GPU");
}

TEST(GpuPowerModel, IdlePowerAtZeroActivity)
{
    GpuPowerModel gpu = a100();
    EXPECT_DOUBLE_EQ(gpu.powerWatts(), gpu.spec().idleWatts);
}

TEST(GpuPowerModel, PromptActivityExceedsTdp)
{
    // Insight 4: prompt phases reach or exceed TDP.
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    EXPECT_GT(gpu.powerWatts(), gpu.spec().tdpWatts);
    EXPECT_LT(gpu.powerWatts(), gpu.spec().tdpWatts * 1.15);
}

TEST(GpuPowerModel, TokenActivityWellBelowTdp)
{
    GpuPowerModel gpu = a100();
    gpu.setActivity(tokenActivity);
    double ratio = gpu.powerWatts() / gpu.spec().tdpWatts;
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 0.8);
}

TEST(GpuPowerModel, PowerMonotonicInActivity)
{
    GpuPowerModel gpu = a100();
    double last = 0.0;
    for (double a = 0.0; a <= 1.1; a += 0.1) {
        gpu.setActivity({a, a * 0.5});
        double p = gpu.powerWatts();
        EXPECT_GT(p, last);
        last = p;
    }
}

TEST(GpuPowerModel, PowerMonotonicInClock)
{
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    double last = 1e9;
    for (double mhz = 1410.0; mhz >= 210.0; mhz -= 100.0) {
        gpu.lockClock(mhz);
        double p = gpu.powerWatts();
        EXPECT_LT(p, last);
        last = p;
    }
}

TEST(GpuPowerModel, LockClampedToLegalRange)
{
    GpuPowerModel gpu = a100();
    gpu.lockClock(50.0);
    EXPECT_DOUBLE_EQ(gpu.effectiveClockMhz(), gpu.spec().minSmClockMhz);
    gpu.lockClock(5000.0);
    EXPECT_DOUBLE_EQ(gpu.effectiveClockMhz(), gpu.spec().maxSmClockMhz);
}

TEST(GpuPowerModel, UnlockRestoresMaxClock)
{
    GpuPowerModel gpu = a100();
    gpu.lockClock(1100.0);
    EXPECT_TRUE(gpu.clockLocked());
    gpu.unlockClock();
    EXPECT_FALSE(gpu.clockLocked());
    EXPECT_DOUBLE_EQ(gpu.effectiveClockMhz(), gpu.spec().maxSmClockMhz);
}

TEST(GpuPowerModel, FrequencyLockReclaimsPaperRange)
{
    // Fig 10: a 1.1 GHz lock reclaims roughly 20 % of peak power.
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    double uncapped = gpu.powerWatts();
    gpu.lockClock(1100.0);
    double reduction = 1.0 - gpu.powerWatts() / uncapped;
    EXPECT_GT(reduction, 0.15);
    EXPECT_LT(reduction, 0.30);
}

TEST(GpuPowerModel, PowerBrakeDropsPowerDrastically)
{
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    double before = gpu.powerWatts();
    gpu.setPowerBrake(true);
    EXPECT_DOUBLE_EQ(gpu.effectiveClockMhz(),
                     gpu.spec().powerBrakeClockMhz);
    EXPECT_LT(gpu.powerWatts(), before * 0.55);
    gpu.setPowerBrake(false);
    EXPECT_DOUBLE_EQ(gpu.powerWatts(), before);
}

TEST(GpuPowerModel, BrakeOverridesLock)
{
    GpuPowerModel gpu = a100();
    gpu.lockClock(1300.0);
    gpu.setPowerBrake(true);
    EXPECT_DOUBLE_EQ(gpu.effectiveClockMhz(),
                     gpu.spec().powerBrakeClockMhz);
    gpu.setPowerBrake(false);
    EXPECT_DOUBLE_EQ(gpu.effectiveClockMhz(), 1300.0);
}

TEST(GpuPowerModel, CapControllerConvergesUnderCap)
{
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    gpu.setPowerCap(325.0);
    // Before any controller step the cap has no effect (reactive).
    EXPECT_GT(gpu.powerWatts(), 325.0);
    for (int i = 0; i < 200; ++i)
        gpu.stepCapController();
    EXPECT_LE(gpu.powerWatts(), 325.0 * 1.01);
    EXPECT_GT(gpu.powerWatts(), 325.0 * 0.85);
}

TEST(GpuPowerModel, CapOvershootOnSuddenSpike)
{
    // Fig 9b: prompt spikes exceed the cap before the controller
    // reacts.
    GpuPowerModel gpu = a100();
    gpu.setPowerCap(325.0);
    gpu.setActivity(tokenActivity);
    for (int i = 0; i < 200; ++i)
        gpu.stepCapController();
    // Token phase sits under the cap without throttling...
    EXPECT_LT(gpu.powerWatts(), 325.0);
    // ...so a sudden prompt spike overshoots it.
    gpu.setActivity(promptActivity);
    EXPECT_GT(gpu.powerWatts(), 325.0);
}

TEST(GpuPowerModel, CapRecoveryIsGradual)
{
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    gpu.setPowerCap(325.0);
    for (int i = 0; i < 200; ++i)
        gpu.stepCapController();
    double throttled = gpu.effectiveClockMhz();
    // Load drops; clock must recover but not instantly.
    gpu.setActivity(tokenActivity);
    gpu.stepCapController();
    double oneStep = gpu.effectiveClockMhz();
    EXPECT_GT(oneStep, throttled);
    EXPECT_LT(oneStep, gpu.spec().maxSmClockMhz);
    for (int i = 0; i < 500; ++i)
        gpu.stepCapController();
    EXPECT_NEAR(gpu.effectiveClockMhz(), gpu.spec().maxSmClockMhz, 1.0);
}

TEST(GpuPowerModel, ClearPowerCapRestores)
{
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    gpu.setPowerCap(325.0);
    for (int i = 0; i < 100; ++i)
        gpu.stepCapController();
    gpu.clearPowerCap();
    EXPECT_FALSE(gpu.powerCapped());
    EXPECT_DOUBLE_EQ(gpu.effectiveClockMhz(), gpu.spec().maxSmClockMhz);
}

TEST(GpuPowerModel, CapClampedToLegalRange)
{
    GpuPowerModel gpu = a100();
    gpu.setPowerCap(100.0);
    EXPECT_DOUBLE_EQ(gpu.powerCapWatts(), gpu.spec().minPowerCapWatts);
    gpu.setPowerCap(9999.0);
    EXPECT_DOUBLE_EQ(gpu.powerCapWatts(), gpu.spec().maxPowerCapWatts);
}

TEST(GpuPowerModel, SlowdownIdentityAtMaxClock)
{
    GpuPowerModel gpu = a100();
    EXPECT_DOUBLE_EQ(gpu.slowdownFactor(1.0), 1.0);
    EXPECT_DOUBLE_EQ(gpu.slowdownFactor(0.0), 1.0);
}

TEST(GpuPowerModel, SlowdownScalesWithComputeBoundFraction)
{
    GpuPowerModel gpu = a100();
    gpu.lockClock(705.0);  // half of max
    EXPECT_NEAR(gpu.slowdownFactor(1.0), 2.0, 1e-9);
    EXPECT_NEAR(gpu.slowdownFactor(0.5), 1.5, 1e-9);
    EXPECT_DOUBLE_EQ(gpu.slowdownFactor(0.0), 1.0);
}

TEST(GpuPowerModel, StoredPowerIsFormulaBitwise)
{
    // powerWatts() is refreshed by the mutators, not computed on
    // read; after any sequence of them it must equal the formula at
    // the effective clock exactly.  A copy taken mid-sequence (the
    // snapshot path) must stay exact as both diverge.
    polca::sim::Rng rng(14);
    GpuPowerModel gpu = a100();
    for (int step = 0; step < 4000; ++step) {
        mutateRandomly(gpu, rng);
        ASSERT_EQ(gpu.powerWatts(),
                  gpu.powerAtClock(gpu.effectiveClockMhz()))
            << "step " << step;
    }
    GpuPowerModel copy = gpu;
    ASSERT_EQ(copy.powerWatts(), gpu.powerWatts());
    polca::sim::Rng copyRng(15);
    for (int step = 0; step < 4000; ++step) {
        mutateRandomly(gpu, rng);
        mutateRandomly(copy, copyRng);
        ASSERT_EQ(gpu.powerWatts(),
                  gpu.powerAtClock(gpu.effectiveClockMhz()))
            << "step " << step;
        ASSERT_EQ(copy.powerWatts(),
                  copy.powerAtClock(copy.effectiveClockMhz()))
            << "copy step " << step;
    }
}

TEST(GpuPowerModelDeath, NegativeActivityPanics)
{
    GpuPowerModel gpu = a100();
    EXPECT_DEATH(gpu.setActivity({-0.1, 0.0}), "negative activity");
}

TEST(GpuPowerModelDeath, BadComputeBoundFractionPanics)
{
    GpuPowerModel gpu = a100();
    EXPECT_DEATH(gpu.slowdownFactor(1.5), "outside");
}

/**
 * Property sweep: superlinear power/performance trade-off of
 * Insight 7 — relative power reduction always exceeds relative
 * performance loss across the supported lock range for a
 * memory-bound (token-like) phase.
 */
class FrequencySweep : public ::testing::TestWithParam<double>
{
};

TEST_P(FrequencySweep, PowerSavingsBeatPerfLossForTokenPhase)
{
    double mhz = GetParam();
    GpuPowerModel gpu = a100();
    gpu.setActivity(tokenActivity);
    double basePower = gpu.powerWatts();

    gpu.lockClock(mhz);
    double powerReduction = 1.0 - gpu.powerWatts() / basePower;
    double perfLoss = 1.0 - 1.0 / gpu.slowdownFactor(0.35);

    EXPECT_GT(powerReduction, perfLoss);
}

TEST_P(FrequencySweep, PeakPowerNeverBelowIdle)
{
    GpuPowerModel gpu = a100();
    gpu.setActivity(promptActivity);
    gpu.lockClock(GetParam());
    EXPECT_GE(gpu.powerWatts(), gpu.spec().idleWatts);
}

INSTANTIATE_TEST_SUITE_P(LockRange, FrequencySweep,
                         ::testing::Values(1100.0, 1150.0, 1200.0,
                                           1275.0, 1305.0, 1350.0,
                                           1400.0));
