/**
 * @file
 * Behavioural model of one GPU: activity-driven power draw plus the
 * three control knobs the paper characterizes — frequency locking,
 * reactive power capping, and the OOB power brake (Section 3.2).
 */

#pragma once

#include "power/gpu_spec.hh"
#include "sim/types.hh"

namespace polca::power {

/**
 * Workload activity on a GPU, set by the LLM phase models.
 * Components are utilization factors; compute may exceed 1.0 to model
 * short above-TDP bursts (prompt phases, Insight 4).
 */
struct GpuActivity
{
    double compute = 0.0;   ///< SM + tensor pipe activity
    double memory = 0.0;    ///< HBM bandwidth activity

    static GpuActivity idle() { return {0.0, 0.0}; }
};

/**
 * One GPU's power state machine.
 *
 * Knob semantics mirror the paper:
 *  - lockClock(): in-band frequency locking; always active, reduces
 *    power unconditionally (Insight 3/7).
 *  - setPowerCap(): reactive capping; a periodic on-device controller
 *    (stepCapController()) throttles the clock only after measured
 *    power exceeds the cap, so short prompt spikes overshoot the cap
 *    (Fig 9b) while sustained phases settle under it.
 *  - setPowerBrake(): OOB emergency brake that slams the clock to
 *    powerBrakeClockMhz (paper: 288 MHz, ~5 s actuation modelled at
 *    the telemetry layer).
 *
 * The effective clock is min(locked clock, cap-throttle clock), or the
 * brake clock when the brake is engaged.
 *
 * Power is stored state, not computed on read: every mutator refreshes
 * watts_ eagerly (and the clock factors when the effective clock
 * moves), so powerWatts() is a load and a copy carries a cache that is
 * consistent with its inputs.  The stored value is bit-identical to
 * powerAtClock(effectiveClockMhz()).
 */
class GpuPowerModel
{
  public:
    explicit GpuPowerModel(GpuSpec spec);

    const GpuSpec &spec() const { return spec_; }

    /** @name Workload interface */
    /** @{ */
    /** Set current activity (held until the next change). */
    void setActivity(const GpuActivity &activity);
    const GpuActivity &activity() const { return activity_; }
    /** @} */

    /** @name Control knobs */
    /** @{ */
    /** Lock the SM clock to @p mhz (clamped to the legal range). */
    void lockClock(double mhz);

    /** Remove a frequency lock. */
    void unlockClock();

    bool clockLocked() const { return lockedClockMhz_ > 0.0; }
    double lockedClockMhz() const { return lockedClockMhz_; }

    /** Set a software power cap in watts (clamped to the cap range). */
    void setPowerCap(double watts);

    /** Remove the power cap (reverts to the TDP default). */
    void clearPowerCap();

    bool powerCapped() const { return capWatts_ > 0.0; }
    double powerCapWatts() const { return capWatts_; }

    /** Engage/release the OOB power brake. */
    void setPowerBrake(bool engaged);
    bool powerBrake() const { return brakeEngaged_; }
    /** @} */

    /** Clock actually applied after all knobs, MHz. */
    double effectiveClockMhz() const;

    /** Instantaneous power draw at the current activity/clock. */
    double powerWatts() const { return watts_; }

    /** Power that the current activity would draw at clock @p mhz. */
    double powerAtClock(double mhz) const;

    /**
     * Advance the reactive cap controller by one control period.
     * Call every capControlPeriod() ticks; no-op without a cap.
     * Throttles quickly when over the cap, recovers slowly when
     * under it (the asymmetry that causes cap overshoot and the
     * performance variability of Insight 3).
     */
    void stepCapController();

    /** Period of the on-device cap control loop (25 ms). */
    static sim::Tick capControlPeriod() { return sim::msToTicks(25); }

    /**
     * Workload slowdown at the effective clock relative to the
     * maximum clock, for a phase whose compute-bound fraction is
     * @p computeBoundFraction: memory-bound phases barely slow down
     * when the SM clock drops (Insight 7).
     *
     * @return multiplier >= 1 on phase duration.
     */
    double slowdownFactor(double computeBoundFraction) const;

  private:
    /** Clock ceiling requested by lock (or max when unlocked). */
    double targetClockMhz() const;

    /** Power of the current activity under the given clock factors. */
    double wattsAt(double computeFactor, double memoryFactor) const;

    /** Recompute the clock factors and watts_ at the effective clock. */
    void refreshClock();

    /** refreshClock() unless the effective clock is still
     *  @p beforeMhz. */
    void refreshIfClockMoved(double beforeMhz);

    GpuSpec spec_;
    GpuActivity activity_;
    double lockedClockMhz_ = 0.0;   ///< 0 = unlocked
    double capWatts_ = 0.0;         ///< 0 = uncapped
    double capThrottleClockMhz_;    ///< cap controller's clock ceiling
    bool brakeEngaged_ = false;
    /** (effective clock / max clock)^exponent, compute and memory. */
    double computeClockFactor_ = 1.0;
    double memoryClockFactor_ = 1.0;
    double watts_ = 0.0;            ///< powerAtClock(effectiveClockMhz())
};

} // namespace polca::power

