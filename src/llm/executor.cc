#include "llm/executor.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace polca::llm {

SegmentExecutor::SegmentExecutor(power::ServerModel &server,
                                 std::vector<std::size_t> gpu_ids,
                                 Options options)
    : server_(server), gpuIds_(std::move(gpu_ids)), options_(options)
{
    if (gpuIds_.empty())
        sim::fatal("SegmentExecutor: no GPUs assigned");
    for (std::size_t id : gpuIds_) {
        if (id >= server_.numGpus())
            sim::fatal("SegmentExecutor: GPU index ", id, " out of range");
    }
    if (options_.stepSize <= 0 || options_.sampleInterval <= 0)
        sim::fatal("SegmentExecutor: non-positive step/sample interval");
    nextSample_ = 0;
    nextCapStep_ = power::GpuPowerModel::capControlPeriod();
}

void
SegmentExecutor::setActivity(const power::GpuActivity &activity)
{
    server_.setActivity(gpuIds_, activity);
}

void
SegmentExecutor::maybeSample()
{
    while (now_ >= nextSample_) {
        double gpuTotal = 0.0;
        for (std::size_t id : gpuIds_)
            gpuTotal += server_.gpu(id).powerWatts();
        gpuPower_.add(nextSample_, gpuTotal);
        serverPower_.add(nextSample_, server_.powerWatts());
        firstGpuPower_.add(nextSample_,
                           server_.gpu(gpuIds_.front()).powerWatts());
        nextSample_ += options_.sampleInterval;
    }
}

void
SegmentExecutor::step(sim::Tick dt)
{
    now_ += dt;
    while (now_ >= nextCapStep_) {
        server_.stepCapControllers();
        nextCapStep_ += power::GpuPowerModel::capControlPeriod();
    }
    maybeSample();
}

sim::Tick
SegmentExecutor::run(const std::vector<WorkSegment> &segments)
{
    sim::Tick start = now_;
    for (const auto &segment : segments) {
        if (segment.workAtMaxClock < 0)
            sim::panic("SegmentExecutor: negative work");

        setActivity(segment.activity);
        maybeSample();

        sim::Tick segStart = now_;
        double remaining = static_cast<double>(segment.workAtMaxClock);
        while (remaining > 0.0) {
            // Work advances at 1/slowdown of wall speed; the slowest
            // participating GPU paces tensor-parallel execution.
            double slowdown = 1.0;
            for (std::size_t id : gpuIds_) {
                slowdown = std::max(
                    slowdown,
                    server_.gpu(id).slowdownFactor(
                        segment.computeBoundFraction));
            }
            double stepWall = static_cast<double>(options_.stepSize);
            double stepWork = stepWall / slowdown;
            if (stepWork >= remaining) {
                // Partial step to finish exactly.
                step(static_cast<sim::Tick>(remaining * slowdown));
                remaining = 0.0;
            } else {
                step(options_.stepSize);
                remaining -= stepWork;
            }
        }
        executed_.push_back(
            {segment.label, segStart, now_ - segStart});
    }
    return now_ - start;
}

void
SegmentExecutor::idle(sim::Tick duration)
{
    setActivity(power::GpuActivity::idle());
    sim::Tick end = now_ + duration;
    while (now_ < end)
        step(std::min(options_.stepSize, end - now_));
}

} // namespace polca::llm
