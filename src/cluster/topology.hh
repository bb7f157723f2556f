/**
 * @file
 * Site builder: constructs a heterogeneous power-domain tree
 * (servers → racks → rows → site) from a declarative TopologyConfig,
 * the scenario layer's `[topology]` section.
 *
 * Row groups mix GPU generations and served models across the site
 * (Wilkins et al.: site power is the compositional rollup of
 * heterogeneous per-server traces).  Budgets oversubscribe per
 * level: each row's budget is a fraction of its nameplate sum and
 * the site's budget a fraction of the summed row budgets, so a site
 * can be oversubscribed even when every row is in budget — the
 * statistical-multiplexing bet the paper makes at row scope
 * (Insight 9), applied once more at site scope.
 *
 * Per-domain randomness is keyed by domain *path* (sim::Rng
 * forkPath), not by draw order: adding a row group, or growing one,
 * never reshuffles the trace or dispatcher streams of the rows that
 * were already there.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/dispatcher.hh"
#include "cluster/power_domain.hh"
#include "cluster/row.hh"
#include "llm/model_spec.hh"
#include "power/server_model.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

namespace polca::cluster {

/**
 * One homogeneous group of rows ([[topology.rows]]): same rack
 * geometry, GPU generation, and served model.
 */
struct TopologyRowGroup
{
    /**
     * Group name; rows are named `<name><index>` ("row0", "row3"),
     * racks `rack<index>`, so metric paths look like
     * `site.row3.rack1.power`.  Must be lowercase [a-z0-9_] and
     * unique across groups.
     */
    std::string name = "row";

    int rows = 1;
    int racksPerRow = 4;
    int serversPerRack = 10;

    /** Server preset (DGX-A100-80GB | DGX-A100-40GB | DGX-H100). */
    std::string server = "DGX-A100-80GB";

    /** Catalog model served by every endpoint in the group. */
    std::string model = "BLOOM-176B";

    /** Fraction of each row's servers in the low-priority pool. */
    double lpServerFraction = 0.5;

    /** Nameplate provisioned watts per server. */
    double provisionedPerServerWatts = 4950.0;
};

/** The `[topology]` section: per-level counts, budgets, breakers. */
struct TopologyConfig
{
    /** Build the site tree instead of the single flat row. */
    bool enabled = false;

    /** Telemetry cadence of every non-leaf domain manager. */
    sim::Tick telemetryInterval = sim::secondsToTicks(2);

    /** Row budget as a fraction of the row's nameplate sum;
     *  < 1 oversubscribes every row. */
    double rowBudgetFraction = 1.0;

    /** Site budget as a fraction of the summed row budgets;
     *  < 1 oversubscribes the site on top of the rows. */
    double siteBudgetFraction = 1.0;

    /** @name Breaker trip limits, as multiples of the level budget
     *  (NEC-style 80 % continuous rating -> 1.25x).  0 = no breaker
     *  at that level. */
    /** @{ */
    double rackBreakerLimitFraction = 0.0;
    double rowBreakerLimitFraction = 1.25;
    double siteBreakerLimitFraction = 1.25;
    /** @} */

    /** Sustained time above a limit before that breaker trips. */
    sim::Tick breakerTripDuration = sim::secondsToTicks(30);

    /** Attach one POLCA manager per row (managed experiments). */
    bool manageRows = true;

    /** Record every non-leaf manager's full reading series (the
     *  compositional site power trace artifact). */
    bool recordSeries = false;

    std::vector<TopologyRowGroup> groups;

    int numRows() const;
    int numServers() const;
};

/** Resolve a server preset name; fatal on unknown names (the
 *  scenario layer validates with a diagnostic first). */
power::ServerSpec serverSpecForPreset(const std::string &preset);

/** True when a row-group name is lowercase [a-z0-9_], which keeps it
 *  safe as a dotted metric-path segment. */
bool validGroupName(const std::string &name);

/**
 * Owns the site tree plus the per-row dispatchers.  The tree is
 * finalized (managers and breakers running) on return; traffic,
 * managers, and observability are attached by the experiment
 * harness.
 */
class Site
{
  public:
    /** One row's serving cell: its domain, dispatcher, model, and
     *  path-keyed random stream. */
    struct SiteRow
    {
        std::string name;
        PowerDomain *domain = nullptr;
        std::unique_ptr<Dispatcher> dispatcher;
        llm::ModelSpec model;
        const TopologyRowGroup *group = nullptr;

        /** forkPath(name)-derived stream; per-row components
         *  (dispatcher, manager) fork from it, so the row's
         *  randomness depends only on (site seed, row name). */
        sim::Rng rng;
    };

    /**
     * Build the tree.  @p shared supplies the row-scope knobs every
     * group inherits (buffer size, batching, phase-aware clock);
     * counts, budgets, and hardware come from @p config.
     */
    Site(sim::Simulation &sim, const TopologyConfig &config,
         const RowConfig &shared, sim::Rng rng);

    PowerDomain &root() { return *root_; }
    const PowerDomain &root() const { return *root_; }

    std::vector<SiteRow> &rows() { return rows_; }
    const std::vector<SiteRow> &rows() const { return rows_; }

    int numServers() const { return root_->numServers(); }

  private:
    sim::Simulation &sim_;
    TopologyConfig config_;
    std::unique_ptr<PowerDomain> root_;
    std::vector<SiteRow> rows_;
};

} // namespace polca::cluster
