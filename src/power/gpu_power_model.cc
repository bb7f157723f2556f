#include "power/gpu_power_model.hh"

#include <algorithm>
#include <cmath>

#include "core/contracts.hh"
#include "sim/logging.hh"

namespace polca::power {

GpuPowerModel::GpuPowerModel(GpuSpec spec)
    : spec_(std::move(spec)), capThrottleClockMhz_(spec_.maxSmClockMhz)
{
    if (spec_.tdpWatts <= 0.0 || spec_.maxSmClockMhz <= 0.0)
        sim::fatal("GpuPowerModel: invalid spec '", spec_.name, "'");
    refreshClock();
}

void
GpuPowerModel::setActivity(const GpuActivity &activity)
{
    POLCA_CHECK(activity.compute >= 0.0 && activity.memory >= 0.0,
                "negative activity (", activity.compute, ", ",
                activity.memory, ")");
    if (activity.compute == activity_.compute &&
        activity.memory == activity_.memory)
        return;
    activity_ = activity;
    watts_ = wattsAt(computeClockFactor_, memoryClockFactor_);
}

void
GpuPowerModel::lockClock(double mhz)
{
    double before = effectiveClockMhz();
    lockedClockMhz_ = std::clamp(mhz, spec_.minSmClockMhz,
                                 spec_.maxSmClockMhz);
    refreshIfClockMoved(before);
}

void
GpuPowerModel::unlockClock()
{
    double before = effectiveClockMhz();
    lockedClockMhz_ = 0.0;
    refreshIfClockMoved(before);
}

void
GpuPowerModel::setPowerCap(double watts)
{
    capWatts_ = std::clamp(watts, spec_.minPowerCapWatts,
                           spec_.maxPowerCapWatts);
}

void
GpuPowerModel::clearPowerCap()
{
    double before = effectiveClockMhz();
    capWatts_ = 0.0;
    capThrottleClockMhz_ = spec_.maxSmClockMhz;
    refreshIfClockMoved(before);
}

void
GpuPowerModel::setPowerBrake(bool engaged)
{
    double before = effectiveClockMhz();
    brakeEngaged_ = engaged;
    refreshIfClockMoved(before);
}

double
GpuPowerModel::targetClockMhz() const
{
    return clockLocked() ? lockedClockMhz_ : spec_.maxSmClockMhz;
}

double
GpuPowerModel::effectiveClockMhz() const
{
    if (brakeEngaged_)
        return spec_.powerBrakeClockMhz;
    return std::min(targetClockMhz(), capThrottleClockMhz_);
}

double
GpuPowerModel::wattsAt(double computeFactor, double memoryFactor) const
{
    double compute = activity_.compute * spec_.computeDynWatts *
        computeFactor;
    double memory = activity_.memory * spec_.memoryDynWatts *
        memoryFactor;
    return spec_.idleWatts + compute + memory;
}

double
GpuPowerModel::powerAtClock(double mhz) const
{
    double ratio = std::clamp(mhz / spec_.maxSmClockMhz, 0.0, 1.0);
    return wattsAt(std::pow(ratio, spec_.computeClockExponent),
                   std::pow(ratio, spec_.memoryClockExponent));
}

void
GpuPowerModel::refreshClock()
{
    double ratio = std::clamp(effectiveClockMhz() / spec_.maxSmClockMhz,
                              0.0, 1.0);
    computeClockFactor_ = std::pow(ratio, spec_.computeClockExponent);
    memoryClockFactor_ = std::pow(ratio, spec_.memoryClockExponent);
    watts_ = wattsAt(computeClockFactor_, memoryClockFactor_);
}

void
GpuPowerModel::refreshIfClockMoved(double beforeMhz)
{
    if (effectiveClockMhz() != beforeMhz)
        refreshClock();
}

void
GpuPowerModel::stepCapController()
{
    double clock = effectiveClockMhz();
    double p = watts_;
    if (!powerCapped()) {
        capThrottleClockMhz_ = spec_.maxSmClockMhz;
    } else if (brakeEngaged_) {
        return;  // brake overrides; nothing to adjust
    } else if (p > capWatts_) {
        // Throttle proportionally to the overshoot, at most 12 % per
        // control period.  Reacting takes a few periods, which is why
        // prompt spikes escape the cap (Fig 9b).
        double scale = std::max(capWatts_ / p, 0.88);
        capThrottleClockMhz_ = std::max(clock * scale,
                                        spec_.minSmClockMhz);
    } else if (p < capWatts_ * 0.97 &&
               capThrottleClockMhz_ < targetClockMhz()) {
        // Recover slowly (3 % per period) to avoid oscillation; this
        // is the reactive lag that makes capping "less precise" than
        // locking (Section 3.2).
        capThrottleClockMhz_ = std::min(
            capThrottleClockMhz_ * 1.03, targetClockMhz());
    }
    refreshIfClockMoved(clock);
}

double
GpuPowerModel::slowdownFactor(double computeBoundFraction) const
{
    POLCA_CHECK(computeBoundFraction >= 0.0 &&
                    computeBoundFraction <= 1.0,
                "compute-bound fraction ", computeBoundFraction,
                " outside [0,1]");
    double f = effectiveClockMhz();
    double ratio = spec_.maxSmClockMhz / f;
    return computeBoundFraction * ratio + (1.0 - computeBoundFraction);
}

} // namespace polca::power
