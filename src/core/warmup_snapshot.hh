/**
 * @file
 * The experiment-level snapshot taken at a run's warmup boundary.
 *
 * A sweep whose points differ only in control-plane configuration
 * (policy, manager, safety, faults) shares one physical trajectory
 * until the control plane starts at t = warmup: same seed, same
 * trace, same unmanaged power draw.  The harness simulates that
 * prefix once, captures every stateful component through its
 * Snapshottable save/restore protocol (sim/snapshot.hh), and forks
 * each sweep point — and each point's unthrottled baseline — from
 * the in-memory snapshot instead of re-simulating the prefix.
 *
 * A WarmupSnapshot deliberately contains only the *physical* world:
 * servers, dispatchers, telemetry, energy/breaker accounting, and
 * the observability values accumulated so far.  Control-plane
 * components (PowerManager, FaultInjector, SafetyMonitor) are never
 * captured because they do not exist before the boundary — in every
 * warmup run, fresh or branched, they are constructed and started
 * at t = warmup.  That construction-at-the-boundary rule is what
 * makes a branched run bit-identical to a fresh one.
 *
 * Snapshots are immutable once captured (always held as
 * shared_ptr<const WarmupSnapshot>), so any number of branches can
 * restore from one snapshot concurrently.
 */

#pragma once

#include <memory>
#include <vector>

#include "cluster/dispatcher.hh"
#include "cluster/inference_server.hh"
#include "obs/interval_stats.hh"
#include "obs/metrics.hh"
#include "sim/simulation.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "telemetry/breaker_model.hh"
#include "telemetry/domain_manager.hh"
#include "telemetry/energy_meter.hh"
#include "workload/trace.hh"

namespace polca::core {

/**
 * Everything needed to resume a run from its warmup boundary.
 * Field vectors are ordered deterministically so a rebuilt world can
 * zip itself back together without names:
 *
 *  - `traces`, `dispatchers`: per cell (the flat row's one cell, or
 *    site rows in Site::rows() order).
 *  - `servers`: pre-order over the tree's server leaves, which is
 *    what PowerDomain::servers() returns.
 *  - `domainManagers`/`breakers`/`domainWatts`: pre-order over the
 *    tree's domains that own a manager (resp. a breaker).
 */
struct WarmupSnapshot
{
    /** Boundary time; a branch must be configured with the same
     *  `experiment.warmup`. */
    sim::Tick warmup = 0;

    /** Whether the captured run had an Observability sink attached.
     *  A branch with a sink can only fork from an observed snapshot
     *  (the warmup's metric values must exist to be restored). */
    bool hasObs = false;

    /** Event-queue counters at the boundary (sim substrate). */
    sim::Snapshot simState;

    /** Shared ownership of the generated traces, one per cell, so
     *  branches skip regeneration.  Null when the run fed an
     *  external trace (the branch config carries the same pointer). */
    std::shared_ptr<const std::vector<workload::Trace>> traces;

    std::vector<cluster::Dispatcher::State> dispatchers;
    std::vector<cluster::InferenceServer::State> servers;
    std::vector<telemetry::DomainManager::State> domainManagers;
    std::vector<telemetry::BreakerModel::State> breakers;
    telemetry::EnergyMeter::State energy;

    /** Utilization against the root budget (row or site scope). */
    sim::Accumulator utilization;

    /** Per-domain telemetry watts accumulators. */
    std::vector<sim::Accumulator> domainWatts;

    /** @name Observability values (populated when hasObs) */
    /** @{ */
    obs::MetricsRegistry::Values metrics;
    obs::IntervalStats intervalStats;
    sim::Simulation::PeriodicTask::State statsTask;
    /** @} */
};

} // namespace polca::core
