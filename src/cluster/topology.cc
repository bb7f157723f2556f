#include "cluster/topology.hh"

#include <algorithm>
#include <unordered_set>

#include "cluster/allocator.hh"
#include "sim/logging.hh"

namespace polca::cluster {

int
TopologyConfig::numRows() const
{
    int total = 0;
    for (const TopologyRowGroup &group : groups)
        total += group.rows;
    return total;
}

int
TopologyConfig::numServers() const
{
    int total = 0;
    for (const TopologyRowGroup &group : groups)
        total += group.rows * group.racksPerRow * group.serversPerRack;
    return total;
}

power::ServerSpec
serverSpecForPreset(const std::string &preset)
{
    for (const power::ServerSpec &spec : power::ServerSpec::presets()) {
        if (spec.name == preset)
            return spec;
    }
    sim::fatal("topology: unknown server preset '", preset, "'");
}

bool
validGroupName(const std::string &name)
{
    return !name.empty() &&
        std::all_of(name.begin(), name.end(), [](char c) {
            return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                c == '_';
        });
}

Site::Site(sim::Simulation &sim, const TopologyConfig &config,
           const RowConfig &shared, sim::Rng rng)
    : sim_(sim), config_(config)
{
    if (config_.groups.empty())
        sim::fatal("topology: no row groups");

    std::unordered_set<std::string> names;
    double totalRowBudget = 0.0;
    for (const TopologyRowGroup &group : config_.groups) {
        if (!validGroupName(group.name)) {
            sim::fatal("topology: group name '", group.name,
                       "' is not lowercase [a-z0-9_]");
        }
        if (!names.insert(group.name).second)
            sim::fatal("topology: duplicate group name '", group.name, "'");
        if (group.rows <= 0 || group.racksPerRow <= 0 ||
            group.serversPerRack <= 0)
            sim::fatal("topology: non-positive count in group '",
                       group.name, "'");
        int serversPerRow = group.racksPerRow * group.serversPerRack;
        totalRowBudget += group.rows * config_.rowBudgetFraction *
            group.provisionedPerServerWatts * serversPerRow;
    }

    llm::ModelCatalog catalog;

    PowerDomain::Options siteOptions;
    siteOptions.name = "site";
    siteOptions.level = DomainLevel::Site;
    siteOptions.budgetWatts = config_.siteBudgetFraction * totalRowBudget;
    siteOptions.telemetryInterval = config_.telemetryInterval;
    siteOptions.recordSeries = config_.recordSeries;
    root_ = std::make_unique<PowerDomain>(sim_, siteOptions);

    for (const TopologyRowGroup &group : config_.groups) {
        power::ServerSpec spec = serverSpecForPreset(group.server);
        llm::ModelSpec model = catalog.byName(group.model);
        int serversPerRow = group.racksPerRow * group.serversPerRack;
        double rowBudget = config_.rowBudgetFraction *
            group.provisionedPerServerWatts * serversPerRow;

        for (int r = 0; r < group.rows; ++r) {
            SiteRow siteRow;
            siteRow.name = group.name + std::to_string(r);
            siteRow.group = &group;
            siteRow.model = model;
            // Path-keyed stream: depends only on (site seed, row
            // name), never on how many other rows exist.
            siteRow.rng = rng.forkPath(siteRow.name);
            siteRow.dispatcher = std::make_unique<Dispatcher>(
                sim_, siteRow.rng.fork(0x0d15));

            PowerDomain::Options rowOptions;
            rowOptions.name = siteRow.name;
            rowOptions.level = DomainLevel::Row;
            rowOptions.budgetWatts = rowBudget;
            rowOptions.telemetryInterval = config_.telemetryInterval;
            rowOptions.recordSeries = config_.recordSeries;
            PowerDomain &rowDomain = root_->addChild(rowOptions);
            siteRow.domain = &rowDomain;

            std::vector<workload::Priority> priorities =
                allocatePriorities(serversPerRow,
                                   group.lpServerFraction);
            int id = 0;
            for (int k = 0; k < group.racksPerRow; ++k) {
                PowerDomain::Options rackOptions;
                rackOptions.name = "rack" + std::to_string(k);
                rackOptions.level = DomainLevel::Rack;
                rackOptions.telemetryInterval =
                    config_.telemetryInterval;
                PowerDomain &rack = rowDomain.addChild(rackOptions);
                for (int s = 0; s < group.serversPerRack; ++s, ++id) {
                    auto server = std::make_unique<InferenceServer>(
                        sim_, spec, model,
                        priorities[static_cast<std::size_t>(id)], id,
                        shared.bufferSize);
                    if (shared.phaseAwareTokenClockMhz > 0.0) {
                        server->setPhaseAwareTokenClock(
                            shared.phaseAwareTokenClockMhz);
                    }
                    if (shared.maxBatchSize > 1)
                        server->setMaxBatchSize(shared.maxBatchSize);
                    siteRow.dispatcher->addServer(server.get());
                    rack.addServer(std::move(server),
                                   group.provisionedPerServerWatts);
                }
                if (config_.rackBreakerLimitFraction > 0.0) {
                    telemetry::BreakerModel::Config breaker;
                    breaker.provisionedWatts =
                        group.provisionedPerServerWatts *
                        group.serversPerRack;
                    breaker.breakerLimitWatts =
                        breaker.provisionedWatts *
                        config_.rackBreakerLimitFraction;
                    breaker.tripDuration = config_.breakerTripDuration;
                    rack.armBreaker(breaker);
                }
            }
            if (config_.rowBreakerLimitFraction > 0.0) {
                telemetry::BreakerModel::Config breaker;
                breaker.provisionedWatts = rowBudget;
                breaker.breakerLimitWatts =
                    rowBudget * config_.rowBreakerLimitFraction;
                breaker.tripDuration = config_.breakerTripDuration;
                rowDomain.armBreaker(breaker);
            }
            rows_.push_back(std::move(siteRow));
        }
    }

    if (config_.siteBreakerLimitFraction > 0.0) {
        telemetry::BreakerModel::Config breaker;
        breaker.provisionedWatts = root_->budgetWatts();
        breaker.breakerLimitWatts =
            root_->budgetWatts() * config_.siteBreakerLimitFraction;
        breaker.tripDuration = config_.breakerTripDuration;
        root_->armBreaker(breaker);
    }
    root_->finalize();
}

} // namespace polca::cluster
