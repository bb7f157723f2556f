#include "probes.hh"

#include <algorithm>
#include <array>
#include <memory>

#include "cluster/row.hh"
#include "cluster/topology.hh"
#include "config/scenario.hh"
#include "core/oversub_experiment.hh"
#include "core/power_manager.hh"
#include "llm/model_spec.hh"
#include "llm/phase_model.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"
#include "workload/trace_gen.hh"

namespace polcabench {

namespace cluster = polca::cluster;
namespace config = polca::config;
namespace core = polca::core;
namespace llm = polca::llm;
namespace power = polca::power;
namespace sim = polca::sim;
namespace telemetry = polca::telemetry;
namespace workload = polca::workload;

namespace {

/** Results of timed loops land here so no loop is dead code. */
volatile double g_keep = 0.0;

/**
 * Host nanoseconds per call: the median of five rounds, each
 * repeating @p body (which makes @p calls calls) for at least 20 ms.
 */
template <class Body>
double
nsPerCall(Body &&body, std::size_t calls)
{
    std::array<double, 5> rounds{};
    for (double &round : rounds) {
        std::size_t n = 0;
        double start = nowSeconds();
        double elapsed = 0.0;
        do {
            body();
            n += calls;
            elapsed = nowSeconds() - start;
        } while (elapsed < 0.02);
        round = elapsed * 1e9 / static_cast<double>(n);
    }
    std::sort(rounds.begin(), rounds.end());
    return rounds[2];
}

/** At most @p limit elements of @p all, evenly spaced. */
template <class T>
std::vector<T>
spread(const std::vector<T> &all, std::size_t limit)
{
    if (all.size() <= limit)
        return all;
    std::vector<T> picked;
    for (std::size_t i = 0; i < limit; ++i)
        picked.push_back(all[i * all.size() / limit]);
    return picked;
}

/** The flat row the harness builds: pool split balanced by the
 *  mix's work share when the scenario asks for it. */
cluster::RowConfig
resolvedRow(const core::ExperimentConfig &cfg)
{
    cluster::RowConfig row = cfg.row;
    if (cfg.autoBalancePools) {
        llm::PhaseModel phases(
            llm::ModelCatalog().byName(row.modelName));
        row.lpServerFraction = workload::TraceGenerator(cfg.mix)
                                   .lowPriorityWorkShare(phases);
    }
    return row;
}

/** One row of the workload as a stand-alone serving cell: the flat
 *  row itself, or the first row of the site's first group. */
core::ExperimentConfig
servingCell(const core::ExperimentConfig &cfg, sim::Tick horizon)
{
    core::ExperimentConfig cell = cfg;
    cell.duration = horizon;
    if (cfg.topology.enabled) {
        const cluster::TopologyRowGroup &group = cfg.topology.groups.at(0);
        cell.topology.enabled = false;
        cell.autoBalancePools = false;
        cell.row.serverSpec = cluster::serverSpecForPreset(group.server);
        cell.row.modelName = group.model;
        cell.row.modelOverride.reset();
        cell.row.baseServers = group.racksPerRow * group.serversPerRack;
        cell.row.addedServerFraction = 0.0;
        cell.row.lpServerFraction = group.lpServerFraction;
        cell.row.provisionedPerServerWatts =
            group.provisionedPerServerWatts;
        cell.row.telemetryInterval = cfg.topology.telemetryInterval;
    }
    cell.row = resolvedRow(cell);
    return cell;
}

/** Host microseconds per request to replay @p cell's trace through
 *  its dispatcher and servers, no power manager attached. */
double
serveMicrosPerRequest(const core::ExperimentConfig &cell,
                      SpanRecorder *spans)
{
    std::vector<workload::Trace> traces = generateTraces(cell);
    sim::Simulation sim(cell.seed);
    cluster::Row row(sim, cell.row, sim.rng().fork(0xA110));
    SpanRecorder::Scope span(spans, "cluster.serve_replay");
    row.dispatcher().injectTrace(traces.front());
    sim.runUntil(cell.duration);
    return span.elapsed() * 1e6 /
        static_cast<double>(std::max<std::size_t>(traces.front().size(), 1));
}

/** Warmup and branch costs of one sweep point, through the public
 *  warmup hook and resumeFrom. */
void
probeBranching(const config::ScenarioSet &set, ProbeValues &out,
               SpanRecorder *spans)
{
    core::ExperimentConfig leader = set.points.front().config;
    std::string key =
        config::warmupDigest(leader, set.points.front().tree);
    std::shared_ptr<const core::WarmupSnapshot> snapshot;
    double start = nowSeconds();
    double boundary = start;
    leader.onWarmupSnapshot =
        [&](std::shared_ptr<const core::WarmupSnapshot> snap) {
            snapshot = std::move(snap);
            boundary = nowSeconds();
        };
    {
        SpanRecorder::Scope span(spans, "core.warmup_run");
        std::ignore = core::runOversubExperiment(leader);
    }
    out.emplace_back("core.warmup_run_s", boundary - start);

    // A member of the leader's warmup group with another policy.
    core::ExperimentConfig member = leader;
    for (std::size_t i = 1; i < set.points.size(); ++i) {
        if (config::warmupDigest(set.points[i].config,
                                 set.points[i].tree) == key) {
            member = set.points[i].config;
            break;
        }
    }
    member.onWarmupSnapshot = nullptr;
    member.resumeFrom = snapshot;
    SpanRecorder::Scope span(spans, "core.branch_point");
    std::ignore = core::runOversubExperiment(member);
    out.emplace_back("core.branch_point_s", span.elapsed());
}

} // namespace

ProbeValues
runProbes(const BenchOptions &bench, SpanRecorder *spans)
{
    SpanRecorder::Scope whole(spans, "probe." + bench.workload);
    ProbeValues out;
    config::ScenarioSet set = loadWorkload(bench);
    const core::ExperimentConfig &cfg = set.points.front().config;

    std::vector<workload::Trace> traces;
    {
        SpanRecorder::Scope span(spans, "workload.trace_gen");
        traces = generateTraces(cfg);
        out.emplace_back("workload.trace_gen_s", span.elapsed());
    }
    double requests = 0.0;
    for (const workload::Trace &trace : traces)
        requests += static_cast<double>(trace.size());
    out.emplace_back("workload.requests", requests);

    // The workload's world, from public constructors, with one POLCA
    // manager per row as the harness attaches them.
    sim::Simulation sim(cfg.seed);
    std::unique_ptr<cluster::Row> row;
    std::unique_ptr<cluster::Site> site;
    {
        SpanRecorder::Scope span(spans, "cluster.build");
        if (cfg.topology.enabled) {
            site = std::make_unique<cluster::Site>(
                sim, cfg.topology, cfg.row, sim.rng().fork(0xA110));
        } else {
            row = std::make_unique<cluster::Row>(
                sim, resolvedRow(cfg), sim.rng().fork(0xA110));
        }
        out.emplace_back("cluster.site_build_s", span.elapsed());
    }
    std::vector<std::unique_ptr<core::PowerManager>> managers;
    auto manage = [&](telemetry::RowManager &telemetry, double budget,
                      sim::Rng rng, cluster::PowerDomain &domain) {
        auto manager = std::make_unique<core::PowerManager>(
            sim, telemetry, budget, cfg.policy, rng.fork(0x90CA),
            cfg.manager);
        for (workload::Priority pool :
             {workload::Priority::Low, workload::Priority::High}) {
            for (cluster::InferenceServer *server : domain.pool(pool))
                manager->addTarget(pool, server);
        }
        manager->start();
        managers.push_back(std::move(manager));
    };
    std::vector<cluster::InferenceServer *> servers;
    // The pool a request's dispatch scans is its priority's, sized by
    // the row's pool split: the mean over the row's requests of the
    // size of their pool (the flat row, or the site's first row).
    auto meanPool = [](cluster::PowerDomain &domain,
                       const workload::Trace &trace) {
        double low = static_cast<double>(
            domain.pool(workload::Priority::Low).size());
        double high = static_cast<double>(
            domain.pool(workload::Priority::High).size());
        double sum = 0.0;
        for (const workload::Request &r : trace.requests())
            sum += r.priority == workload::Priority::Low ? low : high;
        return sum / static_cast<double>(
                         std::max<std::size_t>(trace.size(), 1));
    };
    double poolServers = 0.0;
    if (row) {
        manage(row->rowManager(), row->provisionedWatts(), sim.rng(),
               row->domain());
        row->dispatcher().injectTrace(traces.front());
        servers = row->servers();
        poolServers = meanPool(row->domain(), traces.front());
    } else {
        for (std::size_t i = 0; i < site->rows().size(); ++i) {
            cluster::Site::SiteRow &siteRow = site->rows()[i];
            if (cfg.managed && cfg.topology.manageRows) {
                manage(*siteRow.domain->manager(),
                       siteRow.domain->effectiveBudgetWatts(),
                       siteRow.rng, *siteRow.domain);
            }
            siteRow.dispatcher->injectTrace(traces[i]);
        }
        servers = site->root().servers();
        poolServers =
            meanPool(*site->rows().front().domain, traces.front());
    }
    out.emplace_back("cluster.pool_servers", poolServers);
    {
        SpanRecorder::Scope span(spans, "sim.run_to_half_horizon");
        sim.runUntil(cfg.duration / 2);
    }

    // Power layer, on the mid-run servers' own models.
    std::vector<cluster::InferenceServer *> sample = spread(servers, 256);
    double acc = 0.0;
    {
        SpanRecorder::Scope span(spans, "power.probe");
        out.emplace_back(
            "power.server_eval_ns", nsPerCall([&] {
                for (const cluster::InferenceServer *s : sample)
                    acc += s->serverModel().powerWatts();
            }, sample.size()));
        std::size_t gpuCalls = 0;
        for (const cluster::InferenceServer *s : sample)
            gpuCalls += s->serverModel().numGpus();
        out.emplace_back(
            "power.gpu_eval_ns", nsPerCall([&] {
                for (const cluster::InferenceServer *s : sample) {
                    const power::ServerModel &model = s->serverModel();
                    for (std::size_t g = 0; g < model.numGpus(); ++g)
                        acc += model.gpu(g).powerWatts();
                }
            }, gpuCalls));

        // Mutating probes work on copies of the mid-run GPU models so
        // the simulated world is left untouched.
        llm::PhaseModel phases(servers.front()->model());
        llm::InferenceConfig request;
        std::array<power::GpuActivity, 2> activities{
            phases.promptActivity(request), phases.tokenActivity(request)};
        std::vector<power::GpuPowerModel> gpus;
        for (const cluster::InferenceServer *s : sample)
            gpus.push_back(s->serverModel().gpu(0));
        std::size_t flip = 0;
        out.emplace_back(
            "power.set_activity_ns", nsPerCall([&] {
                for (power::GpuPowerModel &gpu : gpus)
                    gpu.setActivity(activities[flip++ & 1]);
            }, gpus.size()));
        for (power::GpuPowerModel &gpu : gpus) {
            gpu.setActivity(activities[0]);
            gpu.setPowerCap(0.75 * gpu.powerWatts());
        }
        out.emplace_back(
            "power.cap_step_ns", nsPerCall([&] {
                for (power::GpuPowerModel &gpu : gpus) {
                    gpu.stepCapController();
                    acc += gpu.effectiveClockMhz();
                }
            }, gpus.size()));
    }

    {
        SpanRecorder::Scope span(spans, "llm.probe");
        llm::PhaseModel phases(servers.front()->model());
        std::vector<workload::Request> reqs =
            spread(traces.front().requests(), 4096);
        out.emplace_back(
            "llm.phase_latency_ns", nsPerCall([&] {
                for (const workload::Request &r : reqs) {
                    llm::InferenceConfig c;
                    c.inputTokens = r.inputTokens;
                    c.outputTokens = r.outputTokens;
                    acc += static_cast<double>(phases.totalLatency(c));
                }
            }, reqs.size()));
    }

    // Telemetry: one readNow() per domain level of the mid-run tree.
    {
        SpanRecorder::Scope span(spans, "telemetry.probe");
        std::array<std::vector<telemetry::DomainManager *>, 3> levels;
        auto levelIndex = [](cluster::DomainLevel level) {
            return level == cluster::DomainLevel::Rack ? 0
                : level == cluster::DomainLevel::Row   ? 1
                                                       : 2;
        };
        cluster::PowerDomain &root = row ? row->domain() : site->root();
        root.visit([&](cluster::PowerDomain &domain) {
            if (!domain.isLeaf() && domain.manager())
                levels[static_cast<std::size_t>(
                           levelIndex(domain.level()))]
                    .push_back(domain.manager());
        });
        const std::array<const char *, 3> names{"rack", "row", "site"};
        for (std::size_t l = 0; l < levels.size(); ++l) {
            std::vector<telemetry::DomainManager *> picked =
                spread(levels[l], 64);
            double us = picked.empty() ? 0.0
                : nsPerCall([&] {
                      for (telemetry::DomainManager *m : picked)
                          acc += m->readNow();
                  }, picked.size()) / 1000.0;
            out.emplace_back(std::string("telemetry.read_us.") + names[l],
                             us);
            out.emplace_back(std::string("telemetry.managers.") + names[l],
                             static_cast<double>(levels[l].size()));
        }
        out.emplace_back("telemetry.interval_s",
                         sim::ticksToSeconds(
                             cfg.topology.enabled
                                 ? cfg.topology.telemetryInterval
                                 : cfg.row.telemetryInterval));
    }

    // Event kernel at the mid-run queue depth: background events
    // parked beyond the horizon, a batch of posts drained per round.
    {
        SpanRecorder::Scope span(spans, "sim.probe");
        std::size_t depth = sim.queue().size();
        sim::EventQueue queue;
        std::uint64_t fired = 0;
        auto noop = [&fired] { ++fired; };
        constexpr std::size_t batch = 1024;
        queue.reserve(depth + batch);
        for (std::size_t i = 0; i < depth; ++i)
            queue.post(sim::secondsToTicks(1e9), noop);
        out.emplace_back(
            "sim.post_run_ns", nsPerCall([&] {
                sim::Tick base = queue.now();
                for (std::size_t i = 0; i < batch; ++i)
                    queue.post(base + 1 +
                                   static_cast<sim::Tick>((i * 7919) % 997),
                               noop);
                queue.runUntil(base + 1000);
            }, batch));
        out.emplace_back("sim.queue_depth", static_cast<double>(depth));
        acc += static_cast<double>(fired);
    }

    {
        SpanRecorder::Scope span(spans, "cluster.probe");
        sim::Tick replay = std::min(cfg.duration,
                                    cfg.topology.enabled
                                        ? sim::secondsToTicks(60)
                                        : sim::secondsToTicks(2 * 3600));
        out.emplace_back("cluster.serve_us_per_req",
                         serveMicrosPerRequest(servingCell(cfg, replay),
                                               spans));
    }

    if (isSweep(bench)) {
        probeBranching(set, out, spans);
    } else {
        out.emplace_back("core.warmup_run_s", 0.0);
        out.emplace_back("core.branch_point_s", 0.0);
    }
    g_keep = acc;
    return out;
}

} // namespace polcabench
