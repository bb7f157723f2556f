/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate: the
 * event kernel, the GPU and server power models, and an end-to-end
 * simulated cluster-hour, so performance regressions in the simulator
 * itself are visible.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/dispatcher.hh"
#include "core/oversub_experiment.hh"
#include "core/sweep_runner.hh"
#include "llm/model_spec.hh"
#include "llm/phase_model.hh"
#include "obs/observability.hh"
#include "power/gpu_power_model.hh"
#include "power/server_model.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/timeseries.hh"

using namespace polca;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue queue;
        int fired = 0;
        for (int i = 0; i < state.range(0); ++i)
            std::ignore = queue.schedule((i * 7919) % 100000, [&] { ++fired; });
        queue.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

/** Fire-and-forget fast path: no Handle, no control block. */
void
BM_EventQueuePostRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue queue;
        queue.reserve(static_cast<std::size_t>(state.range(0)));
        int fired = 0;
        for (int i = 0; i < state.range(0); ++i)
            queue.post((i * 7919) % 100000, [&] { ++fired; });
        queue.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueuePostRun)->Arg(1000)->Arg(100000);

/** A read of the stored GPU power: the formula runs in the mutators. */
void
BM_GpuPowerEvaluation(benchmark::State &state)
{
    power::GpuPowerModel gpu(power::GpuSpec::a100_80gb());
    gpu.setActivity({0.8, 0.6});
    gpu.lockClock(1200.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gpu.powerWatts());
    }
}
BENCHMARK(BM_GpuPowerEvaluation);

/** The clock-change refresh: two std::pow plus the power formula. */
void
BM_GpuClockChange(benchmark::State &state)
{
    power::GpuPowerModel gpu(power::GpuSpec::a100_80gb());
    gpu.setActivity({0.8, 0.6});
    const std::vector<double> clocks{1110.0, 1275.0};
    std::size_t flip = 0;
    for (auto _ : state) {
        gpu.lockClock(clocks[flip++ & 1]);
        benchmark::DoNotOptimize(gpu.powerWatts());
    }
}
BENCHMARK(BM_GpuClockChange);

/** A read of one server's power: what every domain sample sums. */
void
BM_ServerPower(benchmark::State &state)
{
    power::ServerModel server(power::ServerSpec::dgxA100_80gb());
    server.setActivityAll({0.55, 0.9});
    server.lockClockAll(1275.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(server.powerWatts());
    }
}
BENCHMARK(BM_ServerPower);

/**
 * A phase change on one server: all 8 GPUs get new activity and the
 * server total is refreshed.  Alternates prompt- and token-like
 * activity so every call changes the inputs.
 */
void
BM_ServerSetActivity(benchmark::State &state)
{
    power::ServerModel server(power::ServerSpec::dgxA100_80gb());
    server.lockClockAll(1275.0);
    const std::vector<power::GpuActivity> activities{{1.05, 0.5},
                                                     {0.35, 0.9}};
    std::size_t flip = 0;
    for (auto _ : state) {
        server.setActivityAll(activities[flip++ & 1]);
        benchmark::DoNotOptimize(server.powerWatts());
    }
}
BENCHMARK(BM_ServerSetActivity);

void
BM_CapControllerStep(benchmark::State &state)
{
    power::GpuPowerModel gpu(power::GpuSpec::a100_80gb());
    gpu.setActivity({1.05, 0.5});
    gpu.setPowerCap(325.0);
    for (auto _ : state) {
        gpu.stepCapController();
        benchmark::DoNotOptimize(gpu.effectiveClockMhz());
    }
}
BENCHMARK(BM_CapControllerStep);

/**
 * One dispatch decision in a range(0)-server pool with every other
 * server busy (buffer free), so the idle and buffered classes are
 * both non-empty: count the idle class, draw, walk to the pick.
 * range(0) is a 40-server row, a 1,008-server site_10k row (whose
 * two priority pools hold 504 each) and all 10,080 site servers in
 * one pool.
 */
void
BM_DispatchRoute(benchmark::State &state)
{
    sim::Simulation sim;
    llm::ModelCatalog catalog;
    cluster::Dispatcher dispatcher(sim, sim::Rng(3));
    std::vector<std::unique_ptr<cluster::InferenceServer>> servers;
    workload::Request request;
    request.inputTokens = 1024;
    request.outputTokens = 64;
    for (int i = 0; i < state.range(0); ++i) {
        servers.push_back(std::make_unique<cluster::InferenceServer>(
            sim, power::ServerSpec::dgxA100_80gb(),
            catalog.byName("BLOOM-176B"), workload::Priority::Low, i));
        dispatcher.addServer(servers.back().get());
        if (i % 2 == 1)
            servers.back()->submit(request);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dispatcher.pickServer(workload::Priority::Low));
    }
}
BENCHMARK(BM_DispatchRoute)->Arg(40)->Arg(1008)->Arg(10080);

void
BM_PhaseModelLatency(benchmark::State &state)
{
    llm::ModelCatalog catalog;
    llm::PhaseModel phases(catalog.byName("BLOOM-176B"));
    llm::InferenceConfig config;
    config.inputTokens = 2048;
    config.outputTokens = 512;
    for (auto _ : state) {
        benchmark::DoNotOptimize(phases.totalLatency(config));
    }
}
BENCHMARK(BM_PhaseModelLatency);

void
BM_TimeSeriesMaxRise(benchmark::State &state)
{
    sim::TimeSeries series;
    for (int i = 0; i < state.range(0); ++i) {
        series.add(i * 1000,
                   static_cast<double>((i * 2654435761u) % 1000));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            series.maxRiseWithin(sim::secondsToTicks(2)));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TimeSeriesMaxRise)->Arg(100000);

void
BM_ClusterHourEndToEnd(benchmark::State &state)
{
    sim::setQuiet(true);
    for (auto _ : state) {
        core::ExperimentConfig config;
        config.row.baseServers = static_cast<int>(state.range(0));
        config.row.addedServerFraction = 0.30;
        config.duration = sim::secondsToTicks(3600.0);
        config.seed = 9;
        core::ExperimentResult result =
            runOversubExperiment(config);
        benchmark::DoNotOptimize(result.lowCompletions);
    }
}
BENCHMARK(BM_ClusterHourEndToEnd)->Arg(10)->Arg(40)
    ->Unit(benchmark::kMillisecond);

/**
 * Same cluster-hour with a metrics sink attached and interval stats
 * snapshotting every simulated 60 s.  CI compares this against
 * BM_ClusterHourEndToEnd with a 2 % bench_compare threshold: the
 * observability pipeline must stay effectively free.
 */
void
BM_ClusterHourEndToEndIntervalStats(benchmark::State &state)
{
    sim::setQuiet(true);
    for (auto _ : state) {
        obs::Observability sink;
        core::ExperimentConfig config;
        config.row.baseServers = static_cast<int>(state.range(0));
        config.row.addedServerFraction = 0.30;
        config.duration = sim::secondsToTicks(3600.0);
        config.seed = 9;
        config.obs = &sink;
        config.obsOptions.metricsInterval = sim::secondsToTicks(60.0);
        core::ExperimentResult result =
            runOversubExperiment(config);
        benchmark::DoNotOptimize(result.lowCompletions);
        benchmark::DoNotOptimize(sink.interval.rows());
    }
}
BENCHMARK(BM_ClusterHourEndToEndIntervalStats)->Arg(10)->Arg(40)
    ->Unit(benchmark::kMillisecond);

/**
 * Site-mode end to end: a heterogeneous power-domain tree
 * (range(0) rows per group x two groups, 20 servers per row) for a
 * simulated 10 minutes.  Exercises the per-rack/row/site rollup
 * managers and breakers on top of the serving cells; CI gates it
 * with bench_compare like the flat cluster-hour run.
 */
void
BM_SiteEndToEnd(benchmark::State &state)
{
    sim::setQuiet(true);
    for (auto _ : state) {
        core::ExperimentConfig config;
        config.duration = sim::secondsToTicks(600.0);
        config.seed = 9;
        config.topology.enabled = true;
        config.topology.rowBudgetFraction = 0.9;
        cluster::TopologyRowGroup a100;
        a100.name = "a100";
        a100.rows = static_cast<int>(state.range(0));
        a100.racksPerRow = 2;
        a100.serversPerRack = 10;
        config.topology.groups.push_back(a100);
        cluster::TopologyRowGroup h100;
        h100.name = "h100";
        h100.rows = static_cast<int>(state.range(0));
        h100.racksPerRow = 2;
        h100.serversPerRack = 10;
        h100.server = "DGX-H100";
        h100.model = "Llama2-70B";
        config.topology.groups.push_back(h100);
        core::ExperimentResult result =
            runOversubExperiment(config);
        benchmark::DoNotOptimize(result.lowCompletions);
        benchmark::DoNotOptimize(result.domains.size());
    }
}
BENCHMARK(BM_SiteEndToEnd)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * Merged-cursor grid summation across range(0) server-power series
 * of 10k samples each (the hot loop behind every per-domain rollup
 * in the results pipeline).  SetItemsProcessed reports
 * series x samples so items/s stays comparable across Arg values.
 */
void
BM_SumOnGrid(benchmark::State &state)
{
    const int count = static_cast<int>(state.range(0));
    const int samples = 10000;
    std::vector<sim::TimeSeries> series(
        static_cast<std::size_t>(count));
    std::vector<const sim::TimeSeries *> sources;
    for (int s = 0; s < count; ++s) {
        series[static_cast<std::size_t>(s)].reserve(samples);
        for (int i = 0; i < samples; ++i) {
            // Offset per series so sample times interleave off-grid.
            series[static_cast<std::size_t>(s)].add(
                i * 2000 + s * 7,
                static_cast<double>((i * 2654435761u + s) % 1000));
        }
        sources.push_back(&series[static_cast<std::size_t>(s)]);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::sumOnGrid(sources, 2000).size());
    }
    state.SetItemsProcessed(state.iterations() * count * samples);
}
BENCHMARK(BM_SumOnGrid)->Arg(8)->Arg(64);

/**
 * Checkpoint/branch sweep execution against full re-simulation: the
 * same two-point policy sweep plus per-point baselines, where all
 * four runs share a 3000 s warmup prefix of a 3600 s horizon.
 * Arg(0) runs every point from scratch (4 x 3600 simulated
 * seconds); Arg(1) simulates the warmup once and forks the other
 * three runs from the in-memory snapshot (3000 + 4 x 600).  The
 * branched variant must stay >= 2x faster; CI gates both rows via
 * tools/bench_compare against BENCH_simperf.json.
 */
void
BM_SweepBranchVsFull(benchmark::State &state)
{
    sim::setQuiet(true);
    const bool branch = state.range(0) == 1;
    auto makeConfig = [](core::PolicyConfig policy) {
        core::ExperimentConfig config;
        config.row.baseServers = 10;
        config.row.addedServerFraction = 0.30;
        config.duration = sim::secondsToTicks(3600.0);
        config.warmup = sim::secondsToTicks(3000.0);
        config.seed = 9;
        config.policy = std::move(policy);
        return config;
    };
    for (auto _ : state) {
        std::vector<core::SweepPoint> points;
        points.push_back(
            {"polca", makeConfig(core::PolicyConfig::polca()),
             "shared-warmup"});
        points.push_back(
            {"1tlp",
             makeConfig(core::PolicyConfig::oneThreshLowPri()),
             "shared-warmup"});
        core::SweepOptions options;
        options.runBaseline = true;
        options.echoProgress = false;
        options.branch = branch;
        core::SweepRunner runner(std::move(points), options);
        benchmark::DoNotOptimize(runner.run().size());
    }
}
BENCHMARK(BM_SweepBranchVsFull)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
