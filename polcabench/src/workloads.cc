#include "workloads.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>

#include "core/oversub_experiment.hh"
#include "core/run_artifacts.hh"
#include "core/sweep_runner.hh"
#include "llm/model_spec.hh"
#include "llm/phase_model.hh"
#include "obs/observability.hh"
#include "sim/random.hh"
#include "workload/trace_gen.hh"

namespace polcabench {

namespace core = polca::core;
namespace config = polca::config;
namespace obs = polca::obs;
namespace sim = polca::sim;
namespace workload = polca::workload;

namespace {

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "polcabench: %s\n", message.c_str());
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        die("cannot read " + path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

config::ScenarioSet
checked(config::ScenarioSet set, const config::Diagnostics &diag,
        const std::string &what)
{
    if (!diag.ok())
        die(what + ":\n" + diag.str());
    if (set.points.empty())
        die(what + ": resolved to no points");
    return set;
}

/** The two sweep seeds a benchmark seed expands to. */
std::string
sweepSeedAxis(std::uint64_t seed)
{
    return "\"experiment.seed\" = [" + std::to_string(seed) + ", " +
        std::to_string(seed + 1) + "]\n";
}

double
gaugeValue(obs::Observability &sink, const std::string &name)
{
    return sink.metrics.has(name) ? sink.metrics.gauge(name).value()
                                  : 0.0;
}

/** Attach @p sink the way `polcactl run --out-dir` does, plus the
 *  trace recorder and interval stats when @p traced. */
void
observe(core::ExperimentConfig &config, obs::Observability &sink,
        bool traced)
{
    if (traced) {
        sink.trace.setCategoryMask(obs::kAllTraceCategories);
        config.obsOptions.metricsInterval = sim::secondsToTicks(60);
    }
    config.obs = &sink;
}

/**
 * In-memory invariants of one finished run: completions never exceed
 * arrivals per class, and in site mode the recorded site power trace
 * is, tick by tick, the bitwise left-to-right sum of the row traces.
 */
bool
checkRun(const core::ExperimentResult &r, const std::string &what,
         std::vector<std::string> &problems)
{
    std::size_t before = problems.size();
    if (r.lowCompletions > r.lowArrivals)
        problems.push_back(what + ": low-priority completions exceed "
                           "arrivals");
    if (r.highCompletions > r.highArrivals)
        problems.push_back(what + ": high-priority completions exceed "
                           "arrivals");
    if (r.lowArrivals + r.highArrivals == 0)
        problems.push_back(what + ": no requests arrived");
    if (!r.domainPowerSeries.empty()) {
        const sim::TimeSeries &site = r.rowPowerSeries;
        for (std::size_t i = 0; i < site.size(); ++i) {
            double sum = 0.0;
            for (const core::DomainPowerSeries &row : r.domainPowerSeries)
                sum += i < row.series.size() ? row.series.at(i).value
                                             : 0.0;
            if (sum != site.at(i).value) {
                problems.push_back(
                    what + ": site power at sample " +
                    std::to_string(i) + " is not the sum of its rows");
                break;
            }
        }
    }
    return problems.size() == before;
}

std::string
sloVerdict(const std::string &label, const core::NormalizedLatency &low,
           const core::NormalizedLatency &high, std::uint64_t brakes)
{
    bool met = core::meetsSlos(low, high, brakes, workload::paperSlos());
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s: %s (lp p50 %.4f p99 %.4f, hp p50 %.4f p99 %.4f, "
                  "brakes %llu)",
                  label.c_str(), met ? "MET" : "VIOLATED", low.p50,
                  low.p99, high.p50, high.p99,
                  static_cast<unsigned long long>(brakes));
    return buf;
}

std::string
resolvedText(const config::ResolvedScenario &point)
{
    std::ostringstream os;
    config::dumpResolved(point.config, point.tree, os);
    return os.str();
}

void
writeDir(const std::string &dir, const config::ResolvedScenario &point,
         const core::ExperimentConfig &cfg,
         const core::ExperimentResult &result,
         const core::NormalizedLatency &low,
         const core::NormalizedLatency &high,
         const obs::Observability *sink, RepResult &rep,
         SpanRecorder *spans)
{
    SpanRecorder::Scope span(spans, "obs.write_run_dir");
    core::RunDirOptions options;
    options.dir = dir;
    options.command = "run";
    options.resolvedConfig = resolvedText(point);
    bool ok = !core::writeRunDir(options, cfg, result, low, high, sink)
                   .empty();
    rep.writeS += span.elapsed();
    ++rep.writes;
    if (!ok)
        rep.problems.push_back("cannot write run directory " + dir);
}

RepResult
runSingle(const BenchOptions &bench, const RepOptions &options,
          SpanRecorder *spans)
{
    RepResult rep;
    SpanRecorder::Scope whole(spans, "workload." + bench.workload);
    config::ScenarioSet set;
    {
        SpanRecorder::Scope span(spans, "config.load");
        set = loadWorkload(bench);
        rep.loadS = span.elapsed();
    }
    const config::ResolvedScenario &point = set.points.front();
    core::ExperimentConfig cfg = point.config;
    obs::Observability sink;
    observe(cfg, sink, options.traced);

    core::ExperimentResult result;
    {
        SpanRecorder::Scope span(spans, "core.run_managed");
        result = core::runOversubExperiment(cfg);
    }
    core::ExperimentConfig baseCfg = core::unthrottledBaseline(cfg);
    obs::Observability baseSink;
    observe(baseCfg, baseSink, options.traced);
    core::ExperimentResult baseline;
    {
        SpanRecorder::Scope span(spans, "core.run_baseline");
        baseline = core::runOversubExperiment(baseCfg);
    }
    core::NormalizedLatency low =
        core::normalizeLatency(result.low, baseline.low);
    core::NormalizedLatency high =
        core::normalizeLatency(result.high, baseline.high);
    writeDir(options.outDir + "/run", point, cfg, result, low, high,
             &sink, rep, spans);
    rep.wallS = whole.elapsed();

    rep.simSeconds = 2.0 * sim::ticksToSeconds(cfg.duration);
    rep.steppedSeconds = rep.simSeconds;
    rep.events = gaugeValue(sink, "sim.events_processed") +
        gaugeValue(baseSink, "sim.events_processed");
    rep.runs = 2;
    rep.failedRuns += checkRun(result, "managed", rep.problems) ? 0 : 1;
    rep.failedRuns += checkRun(baseline, "baseline", rep.problems) ? 0 : 1;
    rep.slo.push_back(sloVerdict("seed=" + std::to_string(cfg.seed),
                                 low, high, result.powerBrakeEvents));
    return rep;
}

RepResult
runSweep(const BenchOptions &bench, const RepOptions &options,
         SpanRecorder *spans)
{
    RepResult rep;
    SpanRecorder::Scope whole(spans, "workload." + bench.workload);
    config::ScenarioSet set;
    {
        SpanRecorder::Scope span(spans, "config.load");
        set = loadWorkload(bench);
        rep.loadS = span.elapsed();
    }

    // One metrics sink per point, as the sweep's own per-point
    // fallback sink would be; kept here so the run directories and
    // the event counts can read it after the sweep.
    std::vector<std::unique_ptr<obs::Observability>> sinks;
    std::vector<core::SweepPoint> points;
    // Each warmup group's boundary, as its leader's hook sees it: the
    // snapshot and the events executed up to it.  A hook fires only
    // on a live warmup, on its own worker thread, and writes only its
    // own point's slot.
    std::size_t n = set.points.size();
    std::vector<std::shared_ptr<const core::WarmupSnapshot>> snapshots(n);
    std::vector<double> boundaryEvents(n, 0.0);
    for (const config::ResolvedScenario &point : set.points) {
        core::ExperimentConfig cfg = point.config;
        sinks.push_back(std::make_unique<obs::Observability>());
        observe(cfg, *sinks.back(), options.traced);
        cfg.onWarmupSnapshot =
            [&snapshots, &boundaryEvents, sink = sinks.back().get(),
             i = points.size()](
                std::shared_ptr<const core::WarmupSnapshot> snap) {
                boundaryEvents[i] =
                    gaugeValue(*sink, "sim.events_processed");
                snapshots[i] = std::move(snap);
            };
        points.push_back({point.label, cfg,
                          cfg.warmup > 0
                              ? config::warmupDigest(cfg, point.tree)
                              : std::string()});
    }
    core::SweepOptions sweep;
    sweep.artifactDir = options.outDir + "/sweep";
    sweep.echoProgress = false;
    sweep.jobs = options.jobs > 0 ? options.jobs : set.jobs;
    rep.jobs = sweep.jobs;
    sweep.branch = options.branch < 0 ? set.branch : options.branch == 1;

    core::SweepRunner runner(points, sweep);
    {
        SpanRecorder::Scope span(spans, "core.sweep_run");
        runner.run();
    }
    const std::vector<core::SweepPointResult> &results = runner.results();
    if (results.size() != points.size())
        rep.problems.push_back("sweep returned " +
                               std::to_string(results.size()) +
                               " results for " +
                               std::to_string(points.size()) + " points");

    for (std::size_t i = 0; i < results.size(); ++i) {
        const core::SweepPointResult &r = results[i];
        const core::ExperimentConfig &cfg = points[i].config;
        std::string dir = options.outDir + "/points/" +
            core::SweepRunner::artifactStem(r.label, i);
        writeDir(dir + "/managed", set.points[i], cfg, r.result,
                 r.lowNorm, r.highNorm, sinks[i].get(), rep, spans);
        writeDir(dir + "/baseline", set.points[i],
                 core::unthrottledBaseline(cfg), r.baseline, {}, {},
                 nullptr, rep, spans);
    }
    rep.wallS = whole.elapsed();

    // The point whose live warmup each group branched from.
    std::map<std::string, std::size_t> leaders;
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
        if (snapshots[i])
            leaders[points[i].warmupKey] = i;
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
        const core::SweepPointResult &r = results[i];
        const core::ExperimentConfig &cfg = points[i].config;
        double horizon = sim::ticksToSeconds(cfg.duration);
        rep.simSeconds += 2.0 * horizon;
        auto leader = leaders.find(points[i].warmupKey);
        bool grouped = sweep.branch && leader != leaders.end();
        if (grouped) {
            double warmup = sim::ticksToSeconds(cfg.warmup);
            if (leader->second == i)
                rep.steppedSeconds += warmup;
            rep.steppedSeconds += 2.0 * (horizon - warmup);
        } else {
            rep.steppedSeconds += 2.0 * horizon;
        }
        // A branched run restores the leader's event count at the
        // boundary, so only the events after it are its own.
        double prefix = grouped ? boundaryEvents[leader->second] : 0.0;
        rep.events += gaugeValue(*sinks[i], "sim.events_processed");
        if (grouped && leader->second != i)
            rep.events -= prefix;
        if (options.countEvents) {
            // The baseline exactly as the sweep ran it, but observed.
            core::ExperimentConfig base = core::unthrottledBaseline(cfg);
            obs::Observability baseSink;
            base.obs = &baseSink;
            base.onWarmupSnapshot = nullptr;
            if (grouped)
                base.resumeFrom = snapshots[leader->second];
            std::ignore = core::runOversubExperiment(base);
            rep.events +=
                gaugeValue(baseSink, "sim.events_processed") - prefix;
        }
        rep.runs += 2;
        rep.failedRuns +=
            checkRun(r.result, r.label + " managed", rep.problems) ? 0 : 1;
        rep.failedRuns +=
            checkRun(r.baseline, r.label + " baseline", rep.problems)
                ? 0 : 1;
        rep.slo.push_back(sloVerdict(r.label, r.lowNorm, r.highNorm,
                                     r.result.powerBrakeEvents));
    }
    return rep;
}

} // namespace

bool
knownWorkload(const std::string &name)
{
    return name == "row_day" || name == "site_minute" ||
        name == "sweep_branch";
}

bool
isSweep(const BenchOptions &bench)
{
    return bench.workload == "sweep_branch";
}

config::ScenarioSet
loadWorkload(const BenchOptions &bench)
{
    std::string seed = "experiment.seed=" + std::to_string(bench.seed);
    config::Diagnostics diag;
    if (bench.workload == "row_day") {
        std::string path = bench.root + "/scenarios/quickstart.toml";
        return checked(
            config::loadScenarioFile(
                path,
                {bench.tiny ? "experiment.duration=10min"
                            : "experiment.duration=1d",
                 seed},
                diag),
            diag, path);
    }
    if (bench.workload == "site_minute") {
        std::string path = bench.root + "/scenarios/site_10k.toml";
        std::vector<std::string> overrides{
            seed, "experiment.record_row_series=true"};
        if (bench.tiny)
            overrides.push_back("experiment.duration=6");
        return checked(config::loadScenarioFile(path, overrides, diag),
                       diag, path);
    }
    if (bench.workload == "sweep_branch") {
        std::string path =
            bench.root + "/polcabench/scenarios/sweep_branch.toml";
        std::vector<std::string> overrides;
        if (bench.tiny) {
            overrides = {"experiment.duration=20min",
                         "experiment.warmup=15min"};
        }
        return checked(
            config::loadScenarioString(
                readFile(path) + sweepSeedAxis(bench.seed),
                "sweep_branch", overrides, diag),
            diag, path);
    }
    die("unknown workload '" + bench.workload + "'");
}

std::vector<workload::Trace>
generateTraces(const core::ExperimentConfig &cfg)
{
    // Mirrors the harness: a flat row generates one trace for all its
    // deployed servers from seed ^ 0x7ace; a site generates one per
    // row, each seeded by the row's name.
    struct RowTrace
    {
        int servers;
        polca::llm::ModelSpec model;
        std::uint64_t seed;
    };
    std::vector<RowTrace> rows;
    polca::llm::ModelCatalog catalog;
    if (cfg.topology.enabled) {
        sim::Rng master(cfg.seed ^ 0x7ace);
        for (const polca::cluster::TopologyRowGroup &group :
             cfg.topology.groups) {
            for (int r = 0; r < group.rows; ++r) {
                rows.push_back(
                    {group.racksPerRow * group.serversPerRack,
                     catalog.byName(group.model),
                     master.forkPath(group.name + std::to_string(r))
                         .seed()});
            }
        }
    } else {
        int base = cfg.row.baseServers;
        rows.push_back(
            {base + static_cast<int>(std::lround(
                        cfg.row.addedServerFraction * base)),
             config::effectiveModelSpec(cfg.row), cfg.seed ^ 0x7ace});
    }

    std::vector<workload::Trace> traces;
    for (const RowTrace &row : rows) {
        workload::TraceGenerator generator(cfg.mix);
        polca::llm::PhaseModel phases(row.model);
        workload::TraceGenOptions options;
        options.duration = cfg.duration;
        options.numServers = row.servers;
        options.serviceSecondsPerRequest =
            generator.expectedServiceSeconds(phases);
        options.diurnal = cfg.diurnal;
        options.seed = row.seed;
        traces.push_back(generator.generate(options));
    }
    return traces;
}

RepResult
runRep(const BenchOptions &bench, const RepOptions &options,
       SpanRecorder *spans)
{
    return isSweep(bench) ? runSweep(bench, options, spans)
                          : runSingle(bench, options, spans);
}

namespace {

double
measureSetup(const BenchOptions &bench)
{
    double start = nowSeconds();
    config::ScenarioSet set = loadWorkload(bench);
    core::ExperimentConfig cfg = set.points.front().config;
    std::ignore = generateTraces(cfg);

    core::ExperimentConfig build = cfg;
    build.duration = build.row.telemetryInterval;
    build.warmup = 0;
    obs::Observability sink;
    build.obs = &sink;
    std::ignore = core::runOversubExperiment(build);
    return nowSeconds() - start;
}

} // namespace

void
measureSetups(const BenchOptions &bench, std::vector<double> &samples)
{
    std::size_t taken = 0;
    double start = nowSeconds();
    for (; taken < kMinSetups || nowSeconds() - start < kSetupBudgetS;
         ++taken)
        samples.push_back(measureSetup(bench));
}

} // namespace polcabench
