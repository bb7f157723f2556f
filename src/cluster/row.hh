/**
 * @file
 * One datacenter row (PDU domain): the unit at which power is
 * provisioned, measured, and oversubscribed (Figure 2, Table 2).
 *
 * Since the topology layer grew into the cluster::PowerDomain tree,
 * a Row is a thin view over a row-level domain whose children are
 * its server leaves: the domain owns the servers and the aggregating
 * telemetry::DomainManager, while the Row bundles the load-balancing
 * dispatcher and the row-scoped configuration into the object POLCA
 * manages.  A Row owns its domain; multi-row sites are built by
 * cluster::Site (topology.hh).
 */

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/dispatcher.hh"
#include "cluster/inference_server.hh"
#include "cluster/power_domain.hh"
#include "llm/model_spec.hh"
#include "power/server_model.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "telemetry/row_manager.hh"

namespace polca::cluster {

/** Row construction parameters. */
struct RowConfig
{
    power::ServerSpec serverSpec = power::ServerSpec::dgxA100_80gb();

    /** Model served by every endpoint (POLCA eval: BLOOM-176B). */
    std::string modelName = "BLOOM-176B";

    /** Full model spec to serve instead of looking @ref modelName up
     *  in the catalog — lets scenario files tweak or define models
     *  that are not Table 3 entries. */
    std::optional<llm::ModelSpec> modelOverride;

    /** Servers the row's power budget was provisioned for. */
    int baseServers = 40;

    /** Extra servers added via oversubscription (fraction of base;
     *  0.30 = the paper's headline +30 %). */
    double addedServerFraction = 0.0;

    /** Fraction of servers placed in the low-priority pool. */
    double lpServerFraction = 0.5;

    /**
     * Provisioned (budgeted) watts per base server.  The row budget
     * is baseServers x this.  Defaults to a derated DGX-A100 budget
     * (Section 5: observed peak ~5.7 kW rather than the 6.5 kW
     * rating), which puts default-fleet peak utilization near the
     * 79 % the paper reports for production inference rows (Table 4).
     */
    double provisionedPerServerWatts = 4950.0;

    /** Row telemetry cadence (Table 1: 2 s). */
    sim::Tick telemetryInterval = sim::secondsToTicks(2);

    /** Per-server request buffer (Section 6.6: one). */
    std::size_t bufferSize = 1;

    /** Padded batching (Insight 5): coalesce up to this many
     *  buffered requests per service turn.  Size bufferSize to at
     *  least this for batches to form; 1 = the paper's setup. */
    std::size_t maxBatchSize = 1;

    /** Phase-aware power management (Section 5.2): run token phases
     *  at this SM clock on every server (0 disables). */
    double phaseAwareTokenClockMhz = 0.0;

    /** Probability each 2 s row reading is silently dropped
     *  (OOB telemetry unreliability, Section 3.3). */
    double telemetryDropoutProbability = 0.0;

    /** Record the full row power series (memory heavy on long runs;
     *  POLCA itself only needs the latest reading). */
    bool recordPowerSeries = false;
};

/**
 * View over a row-level power domain plus the row's dispatcher.
 */
class Row
{
  public:
    /** Build the row's domain, servers and dispatcher; the domain is
     *  finalized (manager running) on return. */
    Row(sim::Simulation &sim, RowConfig config, sim::Rng rng);

    const RowConfig &config() const { return config_; }

    /** Deployed servers (base + added). */
    int numServers() const { return domain_.numServers(); }

    /** Row power budget, watts. */
    double provisionedWatts() const { return domain_.budgetWatts(); }

    Dispatcher &dispatcher() { return *dispatcher_; }
    const Dispatcher &dispatcher() const { return *dispatcher_; }

    telemetry::RowManager &rowManager() { return *domain_.manager(); }
    const telemetry::RowManager &rowManager() const
    {
        return *domain_.manager();
    }

    /** The backing node of the power-domain tree. */
    PowerDomain &domain() { return domain_; }
    const PowerDomain &domain() const { return domain_; }

    /** All servers (owned by the row's domain). */
    std::vector<InferenceServer *> servers()
    {
        return domain_.servers();
    }

    /** Servers in the @p priority pool. */
    std::vector<InferenceServer *> pool(workload::Priority priority)
    {
        return domain_.pool(priority);
    }

    /** Current total row draw (instantaneous, not telemetry). */
    double powerWatts() const { return domain_.powerWatts(); }

    /** Apply the +x% power-intensity experiment to every server. */
    void setPowerScaleFactor(double factor);

    /** Model spec served by the row's endpoints. */
    const llm::ModelSpec &model() const { return model_; }

  private:
    PowerDomain::Options domainOptions() const;

    sim::Simulation &sim_;
    RowConfig config_;
    llm::ModelSpec model_;

    PowerDomain domain_;

    std::unique_ptr<Dispatcher> dispatcher_;
};

} // namespace polca::cluster
