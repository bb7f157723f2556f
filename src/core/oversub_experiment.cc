#include "core/oversub_experiment.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>

#include "core/contracts.hh"
#include "core/warmup_snapshot.hh"
#include "faults/fault_injector.hh"
#include "llm/phase_model.hh"
#include "sim/logging.hh"
#include "telemetry/energy_meter.hh"
#include "workload/trace_gen.hh"

namespace polca::core {

LatencyStats
LatencyStats::from(const sim::Sampler &sampler)
{
    LatencyStats stats;
    stats.count = sampler.count();
    if (sampler.empty())
        return stats;
    stats.p50 = sampler.quantile(0.50);
    stats.p99 = sampler.quantile(0.99);
    stats.max = sampler.max();
    stats.mean = sampler.mean();
    return stats;
}

ExperimentConfig
unthrottledBaseline(ExperimentConfig config)
{
    config.managed = false;
    config.recordRowSeries = false;
    // The baseline is the ideal unthrottled reference: no injected
    // faults, so normalized latencies isolate the policy's cost.
    config.faultPlan = faults::FaultPlan();
    config.chaos.enabled = false;
    config.safety.monitor = false;
    return config;
}

namespace {

/** Merge a generated chaos plan into the explicit plan. */
void
mergeFaultPlans(faults::FaultPlan &into, faults::FaultPlan add)
{
    auto append = [](auto &dst, auto &src) {
        dst.insert(dst.end(), src.begin(), src.end());
    };
    append(into.blackouts, add.blackouts);
    append(into.sensorFaults, add.sensorFaults);
    append(into.oobOutages, add.oobOutages);
    append(into.crashes, add.crashes);
    append(into.controllerCrashes, add.controllerCrashes);
    if (add.burstyLoss.enabled)
        into.burstyLoss = add.burstyLoss;
}

/** Row knobs resolved from the experiment config (series recording,
 *  work-share pool balancing). */
cluster::RowConfig
resolvedRowConfig(const ExperimentConfig &config)
{
    cluster::RowConfig rowConfig = config.row;
    rowConfig.recordPowerSeries = config.recordRowSeries;
    if (config.autoBalancePools) {
        llm::ModelCatalog catalog;
        llm::PhaseModel phases(catalog.byName(rowConfig.modelName));
        rowConfig.lpServerFraction =
            workload::TraceGenerator(config.mix)
                .lowPriorityWorkShare(phases);
    }
    return rowConfig;
}

/**
 * One serving cell: a row-level power domain with its own traffic,
 * dispatcher, and (when managed) POLCA manager and safety monitor.
 * The flat row is one cell; a site has one per Site::rows() entry.
 */
struct ServingCell
{
    cluster::PowerDomain *domain = nullptr;
    cluster::Dispatcher *dispatcher = nullptr;
    const llm::ModelSpec *model = nullptr;

    /** Stream the cell's manager forks from. */
    const sim::Rng *rng = nullptr;
    std::uint64_t traceSeed = 0;

    /** @name Safety-limit inputs (also the flat row's breaker) */
    /** @{ */
    double budgetWatts = 0.0;
    double breakerLimitWatts = 0.0;
    sim::Tick breakerGrace = 0;
    /** @} */
};

/**
 * One run's live components: the flat row or the site tree, served
 * as a list of cells.  The build/control-plane/capture/restore split
 * exists for the warmup-branch machinery; a warmup == 0 run
 * assembles everything in the original single-pass order, so its
 * event trajectory stays pinned bit-for-bit.
 */
struct World
{
    explicit World(const ExperimentConfig &cfg)
        : config(cfg), sim(cfg.seed)
    {
    }

    const ExperimentConfig &config;
    sim::Simulation sim;

    /** Exactly one is set. */
    std::unique_ptr<cluster::Row> row;
    std::unique_ptr<cluster::Site> site;

    cluster::PowerDomain *root = nullptr;
    std::vector<ServingCell> cells;
    bool manageCells = false;
    bool recordSeries = false;
    obs::Observability *obs = nullptr;

    /** Per-domain telemetry statistics, fed by manager listeners.
     *  Keyed by node for the rollup; snapshots enumerate them in
     *  deterministic pre-order instead of pointer order. */
    std::map<const cluster::PowerDomain *, sim::Accumulator> wattsAcc;

    /** One generated trace per cell, shared so branches skip
     *  regeneration; null when the run feeds an external trace. */
    std::shared_ptr<const std::vector<workload::Trace>> traces;

    std::unique_ptr<telemetry::EnergyMeter> energy;
    sim::Accumulator utilization;
    std::vector<std::unique_ptr<PowerManager>> managers;
    std::unique_ptr<faults::FaultInjector> injector;
    std::vector<std::unique_ptr<SafetyMonitor>> monitors;
    std::unique_ptr<sim::Simulation::PeriodicTask> statsTask;

    /** The trace cell @p i is fed from. */
    const workload::Trace &trace(std::size_t i) const
    {
        return config.externalTrace ? *config.externalTrace
                                    : (*traces)[i];
    }
};

/** The paper's flat row: one cell, manager stream sim.rng(). */
void
buildRowCells(World &world)
{
    const ExperimentConfig &config = world.config;
    world.row = std::make_unique<cluster::Row>(
        world.sim, resolvedRowConfig(config),
        world.sim.rng().fork(0xA110));
    cluster::Row &row = *world.row;
    world.root = &row.domain();
    world.manageCells = config.managed;
    world.recordSeries = config.recordRowSeries;

    ServingCell cell;
    cell.domain = &row.domain();
    cell.dispatcher = &row.dispatcher();
    cell.model = &row.model();
    cell.rng = &world.sim.rng();
    cell.traceSeed = config.seed ^ 0x7ace;
    cell.budgetWatts = row.provisionedWatts();
    cell.breakerLimitWatts =
        cell.budgetWatts * config.breakerLimitFraction;
    cell.breakerGrace = config.breakerTripDuration;
    world.cells.push_back(cell);
}

/** The site tree: one cell per row, streams keyed by row name. */
void
buildSiteCells(World &world)
{
    const ExperimentConfig &config = world.config;
    cluster::TopologyConfig topology = config.topology;
    topology.recordSeries =
        config.topology.recordSeries || config.recordRowSeries;
    world.site = std::make_unique<cluster::Site>(
        world.sim, topology, config.row, world.sim.rng().fork(0xA110));
    world.root = &world.site->root();
    world.manageCells = config.managed && topology.manageRows;
    world.recordSeries = topology.recordSeries;

    // One trace per row, keyed by row *name* (forkPath of the trace
    // master seed), so a row's offered load is invariant to the rest
    // of the site layout.
    sim::Rng traceMaster(config.seed ^ 0x7ace);
    for (cluster::Site::SiteRow &row : world.site->rows()) {
        const telemetry::BreakerModel *breaker = row.domain->breaker();
        ServingCell cell;
        cell.domain = row.domain;
        cell.dispatcher = row.dispatcher.get();
        cell.model = &row.model;
        cell.rng = &row.rng;
        cell.traceSeed = traceMaster.forkPath(row.name).seed();
        cell.budgetWatts = row.domain->budgetWatts();
        cell.breakerLimitWatts = breaker ? breaker->breakerLimitWatts()
                                         : cell.budgetWatts / 0.8;
        cell.breakerGrace = config.topology.breakerTripDuration;
        world.cells.push_back(cell);
    }
}

void
attachObservability(World &world)
{
    obs::Observability *obs = world.obs;
    if (!obs)
        return;
    sim::Simulation &sim = world.sim;
    // The root manager fills the flat telemetry namespace, so
    // dashboards (and the report timeline) read the row or site
    // rollup from telemetry.latest_row_watts.
    world.root->manager()->attachObservability(obs);
    if (world.site) {
        world.root->visit([obs](cluster::PowerDomain &domain) {
            if (domain.isLeaf())
                return;
            if (domain.manager())
                domain.manager()->attachDomainObservability(
                    obs, domain.path());
            if (domain.breaker())
                domain.breaker()->attachObservability(
                    obs, domain.path() + ".breaker");
        });
    }
    for (ServingCell &cell : world.cells)
        cell.dispatcher->attachObservability(obs);
    for (cluster::InferenceServer *server : world.root->servers())
        server->attachObservability(obs);
    // Sim-core stats: the sim layer cannot depend on obs, so the
    // harness registers gauge sources over the queue's own
    // accessors; freezeGauges() at the run end snapshots them.
    obs->metrics
        .gauge("sim.events_processed", "event callbacks executed")
        .setSource([&sim] {
            return static_cast<double>(sim.queue().numProcessed());
        });
    obs->metrics
        .gauge("sim.queue_high_water",
               "most events pending at once")
        .setSource([&sim] {
            return static_cast<double>(
                sim.queue().highWaterMark());
        });
    obs->metrics
        .gauge("sim.final_time_s", "simulated time at run end")
        .setSource(
            [&sim] { return sim::ticksToSeconds(sim.now()); });
}

void
makeTraces(World &world, const WarmupSnapshot *resume)
{
    const ExperimentConfig &config = world.config;
    if (config.externalTrace)
        return;
    // A branch adopts the snapshot's traces instead of regenerating
    // the identical ones.
    if (resume) {
        POLCA_CHECK(resume->traces,
                    "warmup snapshot carries no traces but the branch "
                    "has no external trace either");
        POLCA_CHECK(resume->traces->size() == world.cells.size(),
                    "snapshot has ", resume->traces->size(),
                    " traces, world has ", world.cells.size(),
                    " cells");
        world.traces = resume->traces;
        return;
    }
    // Generated at an offered load matched to the cell's deployed
    // server count (oversubscribed rows serve proportionally more
    // traffic — that is the point of adding servers).
    auto traces = std::make_shared<std::vector<workload::Trace>>();
    traces->reserve(world.cells.size());
    for (const ServingCell &cell : world.cells) {
        workload::TraceGenerator generator(config.mix);
        llm::PhaseModel phases(*cell.model);
        workload::TraceGenOptions traceOptions;
        traceOptions.duration = config.duration;
        traceOptions.numServers = cell.domain->numServers();
        traceOptions.serviceSecondsPerRequest =
            generator.expectedServiceSeconds(phases);
        traceOptions.diurnal = config.diurnal;
        traceOptions.seed = cell.traceSeed;
        traces->push_back(generator.generate(traceOptions));
    }
    world.traces = std::move(traces);
}

void
buildManagers(World &world)
{
    const ExperimentConfig &config = world.config;
    if (!world.manageCells)
        return;
    // One POLCA manager per cell, capping against the cell's
    // *effective* budget: its own budget shrunk by any tighter
    // ancestor budget shared out pro rata (parent-budget awareness).
    for (ServingCell &cell : world.cells) {
        auto manager = std::make_unique<PowerManager>(
            world.sim, *cell.domain->manager(),
            cell.domain->effectiveBudgetWatts(), config.policy,
            cell.rng->fork(0x90CA), config.manager);
        if (world.obs)
            manager->attachObservability(world.obs);
        for (workload::Priority pool :
             {workload::Priority::Low, workload::Priority::High}) {
            for (cluster::InferenceServer *server :
                 cell.domain->pool(pool))
                manager->addTarget(pool, server);
        }
        manager->start();
        world.managers.push_back(std::move(manager));
    }
}

/** The flat row's breaker; site breakers are armed by the Site
 *  builder from the topology's per-level limits. */
void
armRowBreaker(World &world)
{
    if (world.site || !world.config.modelBreaker)
        return;
    // The physical breaker watches the raw electrical draw — not
    // the row telemetry — so it keeps seeing power through
    // telemetry blackouts.
    const ServingCell &cell = world.cells.front();
    telemetry::BreakerModel::Config breakerConfig;
    breakerConfig.provisionedWatts = cell.budgetWatts;
    breakerConfig.breakerLimitWatts = cell.breakerLimitWatts;
    breakerConfig.tripDuration = cell.breakerGrace;
    world.root->armBreaker(breakerConfig);
    if (world.obs)
        world.root->breaker()->attachObservability(world.obs);
}

/** Faults act on the flat row only: site mode rejects fault plans,
 *  chaos, and external traces before the world is built. */
void
buildInjector(World &world)
{
    const ExperimentConfig &config = world.config;
    // Fault plan = explicit scenario faults plus (when enabled) a
    // chaos plan drawn from the run seed, so a chaos campaign
    // replays bit-identically.
    faults::FaultPlan plan = config.faultPlan;
    if (config.chaos.enabled) {
        sim::Rng chaosRng = world.sim.rng().fork(0xC4A0);
        mergeFaultPlans(plan,
                        faults::generateChaosPlan(
                            config.chaos, config.duration,
                            world.root->numServers(), chaosRng));
    }
    if (plan.empty())
        return;
    world.injector = std::make_unique<faults::FaultInjector>(
        world.sim, plan, world.sim.rng().fork(0xFA17));
    if (world.obs)
        world.injector->attachObservability(world.obs);
    world.injector->attachTelemetry(*world.root->manager());
    world.injector->attachServers(world.root->servers());
    for (const std::unique_ptr<PowerManager> &manager : world.managers) {
        for (workload::Priority pool :
             {workload::Priority::Low, workload::Priority::High})
            world.injector->attachChannels(manager->channels(pool));
        world.injector->attachController(manager.get());
    }
    world.injector->start();
}

SafetyMonitor::Limits
safetyLimits(const ExperimentConfig &config, const ServingCell &cell)
{
    SafetyMonitor::Limits limits;
    limits.provisionedWatts = cell.budgetWatts;
    limits.breakerLimitWatts = cell.breakerLimitWatts;
    limits.breakerGrace = cell.breakerGrace;
    limits.failSafeDeadline =
        config.manager.watchdogTimeout + config.safety.failSafeMargin;
    limits.capReleaseDeadline = config.safety.capReleaseDeadline;
    limits.maxBrakeTimeFraction = config.safety.maxBrakeTimeFraction;
    limits.checkInterval = config.safety.checkInterval;
    // Quiet = below every release threshold, so no rule (or the
    // brake) has any reason to stay engaged.
    limits.quietUtilization = config.policy.powerBrakeEnabled
        ? config.policy.powerBrakeReleaseFraction
        : 1.0;
    for (const ThresholdRule &rule : config.policy.rules) {
        limits.quietUtilization =
            std::min(limits.quietUtilization, rule.uncapFraction);
        if (limits.capFloorMhz == 0.0 ||
            rule.lockMhz < limits.capFloorMhz)
            limits.capFloorMhz = rule.lockMhz;
    }
    return limits;
}

void
buildMonitors(World &world)
{
    const ExperimentConfig &config = world.config;
    if (!config.safety.monitor)
        return;
    // Each monitor watches its cell's ground-truth power (what the
    // breaker sees), delivered telemetry, and the manager's posture.
    for (std::size_t i = 0; i < world.cells.size(); ++i) {
        cluster::PowerDomain *domain = world.cells[i].domain;
        auto monitor = std::make_unique<SafetyMonitor>(
            world.sim, safetyLimits(config, world.cells[i]),
            [domain] { return domain->powerWatts(); },
            i < world.managers.size() ? world.managers[i].get()
                                      : nullptr);
        if (world.obs)
            monitor->attachObservability(world.obs);
        monitor->attachTelemetry(*domain->manager());
        monitor->start();
        world.monitors.push_back(std::move(monitor));
    }
}

/** The control plane, started at t = warmup in deferred runs:
 *  managers, then injector, then monitors — the same relative order
 *  a warmup == 0 run constructs them in. */
void
startControlPlane(World &world)
{
    buildManagers(world);
    buildInjector(world);
    buildMonitors(world);
}

/**
 * Assemble the physical world at t = 0.  With @p deferControl the
 * control plane is left for startControlPlane() at the warmup
 * boundary; without it every component is created inline in the
 * original (determinism-pinned) order.  With @p resume the traces
 * are adopted from the snapshot and not injected — restoreWorld()
 * re-arms each dispatcher's in-flight arrival instead.
 */
void
buildWorld(World &world, bool deferControl,
           const WarmupSnapshot *resume)
{
    const ExperimentConfig &config = world.config;
    if (config.topology.enabled)
        buildSiteCells(world);
    else
        buildRowCells(world);
    cluster::PowerDomain &root = *world.root;

    if (config.powerScaleFactor != 1.0) {
        for (cluster::InferenceServer *server : root.servers())
            server->setPowerScaleFactor(config.powerScaleFactor);
    }

    root.visit([&world, &config](cluster::PowerDomain &domain) {
        telemetry::DomainManager *manager = domain.manager();
        if (!manager)
            return;
        // One telemetry sample lands per interval for the whole
        // run: size each recording buffer up front so the steady
        // state never reallocates.
        manager->reserveSeries(config.duration);
        sim::Accumulator &acc = world.wattsAcc[&domain];
        manager->addListener(
            [&acc](sim::Tick, double watts) { acc.add(watts); });
    });

    world.obs = config.obs;
    attachObservability(world);
    makeTraces(world, resume);

    world.energy = std::make_unique<telemetry::EnergyMeter>(
        world.sim, [&root] { return root.powerWatts(); });
    world.energy->start();

    // Track utilization against the root budget independently of
    // management so that unthrottled baselines also report max/mean
    // utilization.
    sim::Accumulator &utilization = world.utilization;
    double rootBudget = root.budgetWatts();
    root.manager()->addListener(
        [&utilization, rootBudget](sim::Tick, double watts) {
            utilization.add(watts / rootBudget);
        });

    if (!deferControl)
        buildManagers(world);
    armRowBreaker(world);
    if (!deferControl) {
        buildInjector(world);
        buildMonitors(world);
    }

    if (!resume) {
        for (std::size_t i = 0; i < world.cells.size(); ++i)
            world.cells[i].dispatcher->injectTrace(world.trace(i));
    }

    // Interval stats: snapshot the registry on a fixed sim-time
    // cadence.  Counters are delta'd inside IntervalStats; the
    // registry itself is never reset, so the end-of-run cumulative
    // dump is unaffected and reconciles with the column sums.
    obs::Observability *obs = world.obs;
    if (obs && config.obsOptions.metricsInterval > 0) {
        world.statsTask = world.sim.every(
            config.obsOptions.metricsInterval, [obs](sim::Tick at) {
                obs->interval.snapshot(sim::ticksToSeconds(at),
                                       obs->metrics);
            });
    }
}

/** Capture the physical world at the warmup boundary (pure read).
 *  Domain-owned state is enumerated in pre-order over the tree, so
 *  the rebuilt world can zip itself back together positionally. */
WarmupSnapshot
captureSnapshot(World &world)
{
    WarmupSnapshot snap;
    snap.warmup = world.config.warmup;
    snap.simState.queue = world.sim.queue().captureState();
    snap.traces = world.traces;
    for (const ServingCell &cell : world.cells)
        snap.dispatchers.push_back(cell.dispatcher->saveState());
    for (cluster::InferenceServer *server : world.root->servers())
        snap.servers.push_back(server->saveState());
    world.root->visit([&](cluster::PowerDomain &domain) {
        if (domain.manager()) {
            snap.domainManagers.push_back(
                domain.manager()->saveState());
            snap.domainWatts.push_back(world.wattsAcc[&domain]);
        }
        if (domain.breaker())
            snap.breakers.push_back(domain.breaker()->saveState());
    });
    snap.energy = world.energy->saveState();
    snap.utilization = world.utilization;
    if (world.obs) {
        snap.hasObs = true;
        snap.metrics = world.obs->metrics.saveValues();
        snap.intervalStats = world.obs->interval;
        if (world.statsTask)
            snap.statsTask = world.statsTask->saveState();
    }
    return snap;
}

/** Rewind a freshly built (deferControl, resume) world onto the
 *  snapshot: adopt queue counters, restore component state, re-arm
 *  every pending callback with its original (when, seq). */
void
restoreWorld(World &world, const WarmupSnapshot &snapshot)
{
    const ExperimentConfig &config = world.config;
    POLCA_CHECK(snapshot.warmup == config.warmup,
                "branching at warmup ", config.warmup,
                " from a snapshot captured at ", snapshot.warmup);
    POLCA_CHECK(!world.obs || snapshot.hasObs,
                "branching an observed run from an unobserved "
                "snapshot: the warmup's metric values are missing");
    POLCA_CHECK(snapshot.dispatchers.size() == world.cells.size(),
                "snapshot has ", snapshot.dispatchers.size(),
                " dispatchers, world has ", world.cells.size(),
                " cells");
    std::vector<cluster::InferenceServer *> servers =
        world.root->servers();
    POLCA_CHECK(snapshot.servers.size() == servers.size(),
                "snapshot has ", snapshot.servers.size(),
                " servers, world has ", servers.size());

    world.sim.queue().beginRestore(snapshot.simState.queue);
    for (std::size_t i = 0; i < world.cells.size(); ++i) {
        world.cells[i].dispatcher->restoreState(
            snapshot.dispatchers[i], &world.trace(i));
    }
    for (std::size_t i = 0; i < servers.size(); ++i)
        servers[i]->restoreState(snapshot.servers[i]);
    std::size_t managerIndex = 0;
    std::size_t breakerIndex = 0;
    world.root->visit([&](cluster::PowerDomain &domain) {
        if (domain.manager()) {
            POLCA_CHECK(managerIndex < snapshot.domainManagers.size(),
                        "snapshot is short of domain managers");
            domain.manager()->restoreState(
                snapshot.domainManagers[managerIndex]);
            world.wattsAcc[&domain] =
                snapshot.domainWatts[managerIndex];
            ++managerIndex;
        }
        if (domain.breaker()) {
            POLCA_CHECK(breakerIndex < snapshot.breakers.size(),
                        "snapshot is short of breakers");
            domain.breaker()->restoreState(
                snapshot.breakers[breakerIndex]);
            ++breakerIndex;
        }
    });
    POLCA_CHECK(managerIndex == snapshot.domainManagers.size() &&
                    breakerIndex == snapshot.breakers.size(),
                "snapshot carries more domain state than the tree");
    world.energy->restoreState(snapshot.energy);
    world.utilization = snapshot.utilization;

    std::size_t expectedLive = snapshot.simState.queue.liveEvents;
    if (world.obs) {
        world.obs->metrics.restoreValues(snapshot.metrics);
        world.obs->interval = snapshot.intervalStats;
        if (world.statsTask)
            world.statsTask->restoreState(snapshot.statsTask);
        else if (snapshot.statsTask.running)
            --expectedLive;
    } else if (snapshot.statsTask.running) {
        // Unobserved branch (e.g. an unthrottled baseline) of an
        // observed leader: the leader's stats sampler stays behind.
        // Interval seqs shift relative to the leader, but the stats
        // callback never touches model state and relative model
        // order is preserved, so the trajectory is value-identical
        // — and an unobserved run writes no artifacts that could
        // expose the absolute seq difference.
        --expectedLive;
    }
    world.sim.queue().endRestore(expectedLive);
}

/** Fleet latency and throughput over every cell.  A lone cell's
 *  samplers are read in place rather than copied: a day-long row
 *  holds tens of thousands of samples. */
void
mergeServing(const World &world, ExperimentResult &result)
{
    bool merge = world.cells.size() > 1;
    sim::Sampler lowAll;
    sim::Sampler highAll;
    std::vector<sim::Sampler> byWorkloadAll;
    for (const ServingCell &cell : world.cells) {
        const cluster::Dispatcher &dispatcher = *cell.dispatcher;
        if (merge) {
            for (double v : dispatcher.latencySeconds(
                                          workload::Priority::Low)
                                .values())
                lowAll.add(v);
            for (double v : dispatcher.latencySeconds(
                                          workload::Priority::High)
                                .values())
                highAll.add(v);
            const std::vector<sim::Sampler> &perClass =
                dispatcher.latencyByWorkload();
            if (byWorkloadAll.size() < perClass.size())
                byWorkloadAll.resize(perClass.size());
            for (std::size_t w = 0; w < perClass.size(); ++w) {
                for (double v : perClass[w].values())
                    byWorkloadAll[w].add(v);
            }
        }
        result.lowThroughput +=
            dispatcher.throughput(workload::Priority::Low);
        result.highThroughput +=
            dispatcher.throughput(workload::Priority::High);
        result.lowArrivals +=
            dispatcher.arrivals(workload::Priority::Low);
        result.highArrivals +=
            dispatcher.arrivals(workload::Priority::High);
        result.lowCompletions +=
            dispatcher.completions(workload::Priority::Low);
        result.highCompletions +=
            dispatcher.completions(workload::Priority::High);
    }
    const cluster::Dispatcher &first = *world.cells.front().dispatcher;
    result.low = LatencyStats::from(
        merge ? lowAll : first.latencySeconds(workload::Priority::Low));
    result.high = LatencyStats::from(
        merge ? highAll
              : first.latencySeconds(workload::Priority::High));
    for (const sim::Sampler &sampler :
         merge ? byWorkloadAll : first.latencyByWorkload())
        result.byWorkload.push_back(LatencyStats::from(sampler));
}

/** Per-level rollup, pre-order so the site row leads the table. */
void
rollUpDomains(const World &world, ExperimentResult &result)
{
    std::map<const cluster::PowerDomain *, std::size_t> cellIndex;
    for (std::size_t i = 0; i < world.cells.size(); ++i)
        cellIndex[world.cells[i].domain] = i;
    const cluster::PowerDomain &root = *world.root;
    root.visit([&](const cluster::PowerDomain &domain) {
        if (domain.isLeaf())
            return;
        DomainStats stats;
        stats.path = domain.path();
        stats.level = cluster::toString(domain.level());
        stats.servers = domain.numServers();
        stats.provisionedWatts = domain.provisionedWatts();
        stats.budgetWatts = domain.budgetWatts();
        auto accIt = world.wattsAcc.find(&domain);
        if (accIt != world.wattsAcc.end() && accIt->second.count() > 0) {
            stats.peakWatts = accIt->second.max();
            stats.meanWatts = accIt->second.mean();
        }
        if (const telemetry::BreakerModel *breaker = domain.breaker()) {
            stats.breakerLimitWatts = breaker->breakerLimitWatts();
            stats.breakerTrips = breaker->trips();
            stats.breakerNearTrips = breaker->nearTrips();
            stats.overdrawWattSeconds = breaker->overdrawWattSeconds();
            stats.secondsAboveBudget = sim::ticksToSeconds(
                breaker->ticksAboveProvisioned());
        }
        auto cellIt = cellIndex.find(&domain);
        if (cellIt != cellIndex.end()) {
            std::size_t i = cellIt->second;
            const cluster::Dispatcher &dispatcher =
                *world.cells[i].dispatcher;
            stats.completions =
                dispatcher.completions(workload::Priority::Low) +
                dispatcher.completions(workload::Priority::High);
            const sim::Sampler &low =
                dispatcher.latencySeconds(workload::Priority::Low);
            const sim::Sampler &high =
                dispatcher.latencySeconds(workload::Priority::High);
            if (!low.empty())
                stats.lowP99 = low.p99();
            if (!high.empty())
                stats.highP99 = high.p99();
            if (i < world.managers.size()) {
                stats.capCommands = world.managers[i]->capCommands();
                stats.powerBrakeEvents =
                    world.managers[i]->powerBrakeEvents();
            }
            if (i < world.monitors.size()) {
                stats.violations = static_cast<std::uint64_t>(
                    world.monitors[i]->violations().size());
            }
        }
        result.domains.push_back(std::move(stats));
    });
}

/** Post-run bookkeeping and result extraction (shared by every
 *  execution mode). */
ExperimentResult
finishRun(World &world, std::chrono::steady_clock::time_point wallStart)
{
    const ExperimentConfig &config = world.config;
    obs::Observability *obs = world.obs;
    sim::Simulation &sim = world.sim;
    const cluster::PowerDomain &root = *world.root;

    for (const std::unique_ptr<SafetyMonitor> &monitor : world.monitors)
        monitor->finish(config.duration);
    if (world.statsTask) {
        // Final partial interval at the run end (a no-op when the
        // cadence divides the duration exactly); after it the column
        // sums of every delta column equal the cumulative dump.
        obs->interval.snapshot(sim::ticksToSeconds(config.duration),
                               obs->metrics);
        world.statsTask->stop();
    }
    if (obs) {
        // Wall-clock throughput is inherently non-reproducible, so
        // it is a volatile gauge: visible via value(), skipped by
        // dump() to keep same-seed dumps byte-identical.
        double wallSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wallStart)
                .count();
        obs::Gauge &rate = obs->metrics.gauge(
            "sim.wallclock_events_per_s",
            "event callbacks per wall-clock second (volatile)");
        rate.setVolatile(true);
        rate.set(wallSeconds > 0.0
                     ? static_cast<double>(sim.queue().numProcessed()) /
                           wallSeconds
                     : 0.0);
        obs->metrics.freezeGauges();
    }

    ExperimentResult result;
    mergeServing(world, result);

    telemetry::EnergyMeter &energy = *world.energy;
    result.energyKwh = energy.kilowattHours();
    std::uint64_t completions =
        result.lowCompletions + result.highCompletions;
    if (completions > 0) {
        result.energyPerRequestKj = energy.joules() / 1000.0 /
            static_cast<double>(completions);
    }

    if (world.utilization.count() > 0) {
        result.maxUtilization = world.utilization.max();
        result.meanUtilization = world.utilization.mean();
    }

    for (const std::unique_ptr<PowerManager> &manager : world.managers) {
        result.powerBrakeEvents += manager->powerBrakeEvents();
        result.capCommands += manager->capCommands();
        result.uncapCommands += manager->uncapCommands();
        result.reissuedCommands += manager->reissuedCommands();
        result.lpLockedTicks +=
            manager->lockedTicks(workload::Priority::Low);
        result.hpLockedTicks +=
            manager->lockedTicks(workload::Priority::High);
        result.failSafeEntries += manager->failSafeEntries();
        result.failSafeTicks += manager->failSafeTicks();
        result.flaggedChannels += manager->flaggedChannels();
        result.controllerCrashes += manager->controllerCrashes();
        result.controllerRecoveries += manager->controllerRecoveries();
        result.controllerDownTicks += manager->controllerDownTicks();
        result.mttrTotalTicks += manager->mttrTotalTicks();
        result.mttrMaxTicks =
            std::max(result.mttrMaxTicks, manager->mttrMaxTicks());
        result.timeToFailSafeMaxTicks =
            std::max(result.timeToFailSafeMaxTicks,
                     manager->timeToFailSafeMaxTicks());
        result.capsHeldStaleTicks += manager->capsHeldStaleTicks();
        result.staleTicks += manager->staleTicks();
        result.brakeTicks += manager->brakeTicks();
        result.modeTransitions += manager->modeTransitions();
    }

    for (const std::unique_ptr<SafetyMonitor> &monitor : world.monitors) {
        const std::vector<SafetyViolation> &violations =
            monitor->violations();
        result.violations.insert(result.violations.end(),
                                 violations.begin(), violations.end());
    }

    // The headline breaker columns report the root breaker: the row
    // PDU, or the upstream site protection the whole tree must not
    // trip.
    if (const telemetry::BreakerModel *breaker = root.breaker()) {
        result.breakerTrips = breaker->trips();
        result.breakerNearTrips = breaker->nearTrips();
        result.firstBreakerTrip = breaker->firstTripTime();
        result.ticksAboveProvisioned = breaker->ticksAboveProvisioned();
        result.overdrawWattSeconds = breaker->overdrawWattSeconds();
        result.longestOverLimitStreak =
            breaker->longestOverLimitStreak();
    }

    if (world.site)
        rollUpDomains(world, result);

    root.visit([&result](const cluster::PowerDomain &domain) {
        if (domain.manager())
            result.droppedReadings +=
                domain.manager()->droppedReadings();
    });
    if (world.injector) {
        result.corruptedReadings = world.injector->corruptedReadings();
        result.crashesInjected = world.injector->crashesInjected();
    }
    for (const cluster::InferenceServer *server : root.servers())
        result.droppedRequests += server->droppedRequests();

    if (world.recordSeries) {
        result.rowPowerSeries = root.manager()->series();
        if (world.site) {
            for (const ServingCell &cell : world.cells) {
                DomainPowerSeries series;
                series.path = cell.domain->path();
                series.series = cell.domain->manager()->series();
                result.domainPowerSeries.push_back(std::move(series));
            }
        }
    }
    return result;
}

} // namespace

void
validateWarmupConfig(const ExperimentConfig &config)
{
    if (config.warmup < 0)
        sim::fatal("experiment.warmup ", config.warmup,
                   " is negative");
    if (config.resumeFrom && config.warmup <= 0) {
        sim::fatal("resumeFrom requires a positive warmup (the "
                   "snapshot's boundary time)");
    }
    if (config.warmup == 0)
        return;
    if (config.warmup >= config.duration) {
        sim::fatal("experiment.warmup ",
                   sim::ticksToSeconds(config.warmup),
                   " s must end before the run's duration ",
                   sim::ticksToSeconds(config.duration), " s");
    }
    if (config.chaos.enabled) {
        sim::fatal("chaos generation cannot be combined with a "
                   "warmup boundary: generated faults may land "
                   "before t=warmup, where no injector exists");
    }
    // Event-posting faults are scheduled by the injector when it
    // starts at t=warmup; an entry before the boundary would post
    // into the past.  Window faults (blackouts, sensor corruption)
    // are pure time filters and may span the boundary.
    for (const faults::OobOutage &outage : config.faultPlan.oobOutages) {
        if (outage.start < config.warmup) {
            sim::fatal("OOB outage at ",
                       sim::ticksToSeconds(outage.start),
                       " s starts before the warmup boundary at ",
                       sim::ticksToSeconds(config.warmup), " s");
        }
    }
    for (const faults::ServerCrash &crash : config.faultPlan.crashes) {
        if (crash.at < config.warmup) {
            sim::fatal("server crash at ",
                       sim::ticksToSeconds(crash.at),
                       " s starts before the warmup boundary at ",
                       sim::ticksToSeconds(config.warmup), " s");
        }
    }
    for (const faults::ControllerCrash &crash :
         config.faultPlan.controllerCrashes) {
        if (crash.at < config.warmup) {
            sim::fatal("controller crash at ",
                       sim::ticksToSeconds(crash.at),
                       " s starts before the warmup boundary at ",
                       sim::ticksToSeconds(config.warmup), " s");
        }
    }
}

ExperimentResult
runOversubExperiment(const ExperimentConfig &config)
{
    if (config.topology.enabled) {
        if (config.externalTrace)
            sim::fatal("site mode does not support external traces");
        if (!config.faultPlan.empty() || config.chaos.enabled)
            sim::fatal("site mode does not support fault/chaos "
                       "injection");
    }
    validateWarmupConfig(config);

    World world(config);
    const WarmupSnapshot *resume = config.resumeFrom.get();
    buildWorld(world, /*deferControl=*/config.warmup > 0, resume);

    auto wallStart = std::chrono::steady_clock::now();
    if (config.warmup > 0) {
        if (resume) {
            restoreWorld(world, *resume);
        } else {
            world.sim.runUntil(config.warmup);
            if (config.onWarmupSnapshot) {
                config.onWarmupSnapshot(
                    std::make_shared<const WarmupSnapshot>(
                        captureSnapshot(world)));
            }
        }
        startControlPlane(world);
    }
    world.sim.runUntil(config.duration);
    return finishRun(world, wallStart);
}

NormalizedLatency
normalizeLatency(const LatencyStats &value, const LatencyStats &baseline)
{
    NormalizedLatency out;
    if (baseline.count == 0 || value.count == 0)
        return out;
    out.p50 = value.p50 / baseline.p50;
    out.p99 = value.p99 / baseline.p99;
    out.max = value.max / baseline.max;
    return out;
}

bool
meetsSlos(const NormalizedLatency &low, const NormalizedLatency &high,
          std::uint64_t powerBrakeEvents, const workload::SloSpec &slos)
{
    return low.p50 <= slos.lpP50Limit && low.p99 <= slos.lpP99Limit &&
        high.p50 <= slos.hpP50Limit && high.p99 <= slos.hpP99Limit &&
        powerBrakeEvents <=
            static_cast<std::uint64_t>(slos.maxPowerBrakes);
}

} // namespace polca::core
