#include "power/server_model.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace polca::power {

ServerSpec
ServerSpec::dgxA100_80gb()
{
    ServerSpec spec;
    spec.name = "DGX-A100-80GB";
    spec.gpu = GpuSpec::a100_80gb();
    spec.numGpus = 8;
    spec.ratedPowerWatts = 6500.0;
    // Host calibrated so the observed peak is ~5700 W and GPUs are
    // ~60 % of server draw under load (Insight 8).
    spec.hostIdleWatts = 900.0;
    spec.hostGpuTrackingFactor = 0.47;
    // Figure 3 provisioned breakdown: ~50 % GPUs, ~25 % fans.
    spec.provisionedFansWatts = 1625.0;
    spec.provisionedCpuWatts = 700.0;
    spec.provisionedMemoryWatts = 450.0;
    spec.provisionedOtherWatts = 525.0;
    return spec;
}

ServerSpec
ServerSpec::dgxA100_40gb()
{
    ServerSpec spec = dgxA100_80gb();
    spec.name = "DGX-A100-40GB";
    spec.gpu = GpuSpec::a100_40gb();
    return spec;
}

ServerSpec
ServerSpec::dgxH100()
{
    ServerSpec spec;
    spec.name = "DGX-H100";
    spec.gpu = GpuSpec::h100_80gb();
    spec.numGpus = 8;
    spec.ratedPowerWatts = 10200.0;
    spec.hostIdleWatts = 1300.0;
    spec.hostGpuTrackingFactor = 0.45;
    spec.provisionedFansWatts = 2500.0;
    spec.provisionedCpuWatts = 1100.0;
    spec.provisionedMemoryWatts = 500.0;
    spec.provisionedOtherWatts = 500.0;
    return spec;
}

double
ServerSpec::provisionedGpuWatts() const
{
    return static_cast<double>(numGpus) * gpu.tdpWatts;
}

std::vector<std::pair<std::string, double>>
ServerSpec::provisionedBreakdown() const
{
    return {
        {"GPUs", provisionedGpuWatts()},
        {"Fans", provisionedFansWatts},
        {"CPUs", provisionedCpuWatts},
        {"Memory", provisionedMemoryWatts},
        {"Other", provisionedOtherWatts},
    };
}

ServerModel::ServerModel(ServerSpec spec)
    : spec_(std::move(spec))
{
    if (spec_.numGpus == 0)
        sim::fatal("ServerModel: server '", spec_.name, "' has no GPUs");
    gpus_.reserve(spec_.numGpus);
    for (std::size_t i = 0; i < spec_.numGpus; ++i)
        gpus_.emplace_back(spec_.gpu);
    refresh();
}

double
ServerModel::gpuPowerWatts() const
{
    double total = 0.0;
    for (const auto &gpu : gpus_)
        total += gpu.powerWatts();
    return total;
}

double
ServerModel::hostPowerAt(double gpuWatts) const
{
    double gpuIdle = static_cast<double>(gpus_.size()) *
        spec_.gpu.idleWatts;
    double gpuDynamic = std::max(0.0, gpuWatts - gpuIdle);
    return spec_.hostIdleWatts +
        spec_.hostGpuTrackingFactor * gpuDynamic;
}

double
ServerModel::hostPowerWatts() const
{
    return hostPowerAt(gpuPowerWatts());
}

void
ServerModel::refresh()
{
    double gpuWatts = gpuPowerWatts();
    watts_ = hostPowerAt(gpuWatts) + gpuWatts;
}

void
ServerModel::setActivity(const std::vector<std::size_t> &gpuIds,
                         const GpuActivity &activity)
{
    for (std::size_t id : gpuIds)
        gpus_.at(id).setActivity(activity);
    refresh();
}

void
ServerModel::lockClock(const std::vector<std::size_t> &gpuIds, double mhz)
{
    for (std::size_t id : gpuIds)
        gpus_.at(id).lockClock(mhz);
    refresh();
}

void
ServerModel::setActivityAll(const GpuActivity &activity)
{
    for (auto &gpu : gpus_)
        gpu.setActivity(activity);
    refresh();
}

void
ServerModel::lockClockAll(double mhz)
{
    for (auto &gpu : gpus_)
        gpu.lockClock(mhz);
    refresh();
}

void
ServerModel::unlockClockAll()
{
    for (auto &gpu : gpus_)
        gpu.unlockClock();
    refresh();
}

void
ServerModel::setPowerCapAll(double watts)
{
    for (auto &gpu : gpus_)
        gpu.setPowerCap(watts);
    refresh();
}

void
ServerModel::clearPowerCapAll()
{
    for (auto &gpu : gpus_)
        gpu.clearPowerCap();
    refresh();
}

void
ServerModel::setPowerBrakeAll(bool engaged)
{
    for (auto &gpu : gpus_)
        gpu.setPowerBrake(engaged);
    refresh();
}

void
ServerModel::stepCapControllers()
{
    for (auto &gpu : gpus_)
        gpu.stepCapController();
    refresh();
}

double
ServerModel::worstSlowdownFactor(double computeBoundFraction) const
{
    double worst = 1.0;
    for (const auto &gpu : gpus_)
        worst = std::max(worst, gpu.slowdownFactor(computeBoundFraction));
    return worst;
}

} // namespace polca::power
