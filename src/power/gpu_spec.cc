#include "power/gpu_spec.hh"

#include "sim/logging.hh"

namespace polca::power {

GpuSpec
GpuSpec::a100_80gb()
{
    GpuSpec spec;
    spec.name = "A100-80GB";
    spec.tdpWatts = 400.0;
    spec.idleWatts = 80.0;
    spec.maxSmClockMhz = 1410.0;
    spec.baseSmClockMhz = 1275.0;
    spec.minSmClockMhz = 210.0;
    spec.powerBrakeClockMhz = 288.0;
    spec.minPowerCapWatts = 300.0;
    spec.maxPowerCapWatts = 400.0;
    // Calibrated so: prompt (compute 1.05, memory 0.5) ~= 1.05 TDP,
    // token (compute 0.35, memory 0.9) ~= 0.65 TDP, and the 1.1 GHz
    // lock reclaims ~20 % of peak power (Fig 10).
    spec.computeDynWatts = 280.0;
    spec.memoryDynWatts = 91.0;
    spec.computeClockExponent = 1.35;
    spec.memoryClockExponent = 0.30;
    spec.memoryGb = 80.0;
    return spec;
}

GpuSpec
GpuSpec::a100_40gb()
{
    GpuSpec spec = a100_80gb();
    spec.name = "A100-40GB";
    spec.memoryGb = 40.0;
    return spec;
}

GpuSpec
GpuSpec::h100_80gb()
{
    GpuSpec spec;
    spec.name = "H100-80GB";
    spec.tdpWatts = 700.0;
    spec.idleWatts = 120.0;
    spec.maxSmClockMhz = 1980.0;
    spec.baseSmClockMhz = 1590.0;
    spec.minSmClockMhz = 210.0;
    spec.powerBrakeClockMhz = 345.0;
    spec.minPowerCapWatts = 350.0;
    spec.maxPowerCapWatts = 700.0;
    spec.computeDynWatts = 505.0;
    spec.memoryDynWatts = 160.0;
    spec.computeClockExponent = 1.35;
    spec.memoryClockExponent = 0.30;
    spec.memoryGb = 80.0;
    return spec;
}

std::vector<GpuSpec>
GpuSpec::presets()
{
    return {a100_80gb(), a100_40gb(), h100_80gb()};
}

GpuSpec
GpuSpec::byName(const std::string &name)
{
    for (const GpuSpec &spec : presets()) {
        if (spec.name == name)
            return spec;
    }
    sim::fatal("GpuSpec::byName: unknown GPU '", name, "'");
}

} // namespace polca::power
