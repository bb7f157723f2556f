/**
 * @file
 * The benchmark's three workloads, driven through the library's
 * public entry points only: config::loadScenarioFile /
 * loadScenarioString, core::runOversubExperiment,
 * core::SweepRunner::run and core::writeRunDir.
 *
 *  - row_day:      scenarios/quickstart.toml (40 servers, +30 %,
 *                  POLCA) for one simulated day, managed run plus its
 *                  unthrottled baseline, full run directory written.
 *  - site_minute:  scenarios/site_10k.toml (10,080 servers, 10 rows,
 *                  row and site budgets and breakers), 60 simulated s.
 *  - sweep_branch: polcabench/scenarios/sweep_branch.toml, the same
 *                  row swept over 4 policies x 2 seeds, 6 h horizon,
 *                  shared 5 h warmup, branching on, 2 sweep jobs.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/scenario.hh"
#include "spans.hh"
#include "workload/trace.hh"

namespace polcabench {

/** What every mode of the driver needs to know about a workload. */
struct BenchOptions
{
    std::string workload;
    std::uint64_t seed = 42;
    /** Checkout root: holds scenarios/ and polcabench/. */
    std::string root = ".";
    /** Self-test variant: every horizon cut to a few simulated
     *  minutes (or seconds, for the site). */
    bool tiny = false;
};

bool knownWorkload(const std::string &name);
bool isSweep(const BenchOptions &bench);

/** Load and expand the workload's scenario; exits on diagnostics. */
polca::config::ScenarioSet loadWorkload(const BenchOptions &bench);

/**
 * The request traces the workload's first run generates before it
 * simulates anything: one per row, generated with the same
 * parameters and seeds the experiment harness uses.
 */
std::vector<polca::workload::Trace>
generateTraces(const polca::core::ExperimentConfig &config);

/** How one repetition runs. */
struct RepOptions
{
    /** Directory the run directories are written under. */
    std::string outDir;
    /** Attach the full observability sink: trace recorder on for
     *  every category and interval stats every 60 simulated s. */
    bool traced = false;
    /** Sweep workers; 0 keeps the scenario's `jobs`. */
    int jobs = 0;
    /** Sweep branching: -1 keeps the scenario's, else 0 or 1. */
    int branch = -1;
    /** After the timed part, replay every sweep baseline with a sink
     *  to count its events: the sweep runs baselines without one.
     *  The row workloads count every run's events regardless. */
    bool countEvents = false;
};

/** What one repetition measured and checked. */
struct RepResult
{
    double wallS = 0.0;      ///< host time of the whole workload
    double loadS = 0.0;      ///< scenario load and expansion
    double writeS = 0.0;     ///< summed writeRunDir time
    int writes = 0;
    double simSeconds = 0.0; ///< simulated s delivered, every run
    /** Simulated s actually stepped through: a branched run skips
     *  the warmup prefix its snapshot already covers. */
    double steppedSeconds = 0.0;
    /** Events the runs executed (sim.events_processed), each
     *  counted once: a branched run's count starts at its warmup
     *  boundary.  Sweep baselines count only under countEvents. */
    double events = 0.0;
    int jobs = 1;            ///< worker threads the runs used
    int runs = 0;            ///< runs checked (managed + baselines)
    int failedRuns = 0;      ///< runs whose in-memory check failed
    std::vector<std::string> problems;
    /** SLO verdict per managed run, reported, never asserted. */
    std::vector<std::string> slo;
};

/** Run the workload once, write its run directories under
 *  @p options.outDir and check the in-memory invariants. */
RepResult runRep(const BenchOptions &bench, const RepOptions &options,
                 SpanRecorder *spans);

/**
 * Samples of the host time the workload spends before its first
 * simulated event: scenario load, world build (a run whose horizon
 * ends at the first telemetry sample, so its simulated work is
 * negligible) and generation of the full-horizon request trace.
 * Samples are appended to @p samples until at least kSetupBudgetS
 * host seconds have passed, and at least kMinSetups of them, so a
 * quick set-up gets enough samples for a steady minimum.
 */
void measureSetups(const BenchOptions &bench,
                   std::vector<double> &samples);

inline constexpr double kSetupBudgetS = 1.0;
inline constexpr std::size_t kMinSetups = 3;

} // namespace polcabench
