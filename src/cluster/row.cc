#include "cluster/row.hh"

#include <cmath>

#include "cluster/allocator.hh"
#include "sim/logging.hh"

namespace polca::cluster {

Row::Row(sim::Simulation &sim, RowConfig config, sim::Rng rng)
    : sim_(sim), config_(std::move(config)),
      model_(config_.modelOverride
                 ? *config_.modelOverride
                 : llm::ModelCatalog().byName(config_.modelName)),
      domain_(sim_, domainOptions())
{
    int total = config_.baseServers + static_cast<int>(std::lround(
        config_.addedServerFraction * config_.baseServers));

    dispatcher_ = std::make_unique<Dispatcher>(sim_, rng.fork(0x0d15));
    if (config_.telemetryDropoutProbability > 0.0) {
        domain_.manager()->setDropoutProbability(
            config_.telemetryDropoutProbability, rng.fork(0xD80));
    }

    std::vector<workload::Priority> priorities =
        allocatePriorities(total, config_.lpServerFraction);

    for (int i = 0; i < total; ++i) {
        auto server = std::make_unique<InferenceServer>(
            sim_, config_.serverSpec, model_,
            priorities[static_cast<std::size_t>(i)], i,
            config_.bufferSize);
        if (config_.phaseAwareTokenClockMhz > 0.0) {
            server->setPhaseAwareTokenClock(
                config_.phaseAwareTokenClockMhz);
        }
        if (config_.maxBatchSize > 1)
            server->setMaxBatchSize(config_.maxBatchSize);
        dispatcher_->addServer(server.get());
        domain_.addServer(std::move(server),
                          config_.provisionedPerServerWatts);
    }
    domain_.finalize();
}

PowerDomain::Options
Row::domainOptions() const
{
    if (config_.baseServers <= 0)
        sim::fatal("Row: non-positive base server count");
    if (config_.addedServerFraction < 0.0)
        sim::fatal("Row: negative added-server fraction");

    PowerDomain::Options options;
    options.name = "row";
    options.level = DomainLevel::Row;
    options.budgetWatts =
        config_.provisionedPerServerWatts * config_.baseServers;
    options.telemetryInterval = config_.telemetryInterval;
    options.recordSeries = config_.recordPowerSeries;
    return options;
}

void
Row::setPowerScaleFactor(double factor)
{
    for (InferenceServer *server : domain_.servers())
        server->setPowerScaleFactor(factor);
}

} // namespace polca::cluster
