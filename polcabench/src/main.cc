/**
 * @file
 * polcabench driver.  run.py starts one process per repetition so
 * every repetition pays its own set-up and reports its own peak RSS.
 *
 *   polcabench info
 *       build provenance as JSON
 *   polcabench run --workload W --seed N --root DIR --out DIR
 *                  [--traced] [--jobs J] [--branch 0|1]
 *                  [--count-events] [--tiny] [--spans FILE]
 *       set-up measurements, then one repetition of the workload
 *   polcabench probe --workload W --seed N --root DIR [--tiny]
 *                    [--spans FILE]
 *       layer probes on the workload's mid-run world
 *
 * Each mode prints one JSON object on stdout.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "probes.hh"
#include "sim/logging.hh"
#include "spans.hh"
#include "workloads.hh"

namespace {

using namespace polcabench;

[[noreturn]] void
usage(const std::string &message)
{
    std::fprintf(stderr, "polcabench: %s\n", message.c_str());
    std::exit(2);
}

std::string
quote(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
stringList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? ", " : "") + quote(items[i]);
    return out + "]";
}

/** Peak resident set of this process, in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

bool
sanitized()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    return std::string(POLCABENCH_CXX_FLAGS).find("sanitize") !=
        std::string::npos;
#endif
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

bool
optimized()
{
#if defined(__OPTIMIZE__)
    return true;
#else
    return false;
#endif
}

int
info()
{
    std::printf("{\"build_type\": %s, \"optimized\": %s, "
                "\"sanitized\": %s, \"compiler\": %s, "
                "\"cxx_flags\": %s}\n",
                quote(POLCABENCH_BUILD_TYPE).c_str(),
                optimized() ? "true" : "false",
                sanitized() ? "true" : "false",
                quote(compiler()).c_str(),
                quote(POLCABENCH_CXX_FLAGS).c_str());
    return 0;
}

struct Args
{
    std::map<std::string, std::string> values;

    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                usage("unexpected argument '" + key + "'");
            key = key.substr(2);
            if (key == "traced" || key == "tiny" || key == "count-events")
                values[key] = "1";
            else if (i + 1 < argc)
                values[key] = argv[++i];
            else
                usage("--" + key + " needs a value");
        }
    }

    std::string text(const std::string &key, const std::string &fallback)
        const
    {
        auto it = values.find(key);
        return it == values.end() ? fallback : it->second;
    }

    long integer(const std::string &key, long fallback) const
    {
        auto it = values.find(key);
        if (it == values.end())
            return fallback;
        char *end = nullptr;
        long v = std::strtol(it->second.c_str(), &end, 10);
        if (it->second.empty() || *end != '\0' || v < 0)
            usage("--" + key + ": expected a non-negative integer");
        return v;
    }
};

BenchOptions
benchOptions(const Args &args)
{
    BenchOptions bench;
    bench.workload = args.text("workload", "");
    if (!knownWorkload(bench.workload))
        usage("unknown workload '" + bench.workload + "'");
    bench.seed = static_cast<std::uint64_t>(args.integer("seed", 42));
    bench.root = args.text("root", ".");
    bench.tiny = args.values.count("tiny") != 0;
    return bench;
}

void
writeSpans(const Args &args, const SpanRecorder &spans)
{
    std::string path = args.text("spans", "");
    if (!path.empty() && !spans.write(path))
        usage("cannot write spans to " + path);
}

int
run(const Args &args)
{
    BenchOptions bench = benchOptions(args);
    RepOptions options;
    options.outDir = args.text("out", "");
    if (options.outDir.empty())
        usage("run needs --out");
    options.traced = args.values.count("traced") != 0;
    options.jobs = static_cast<int>(args.integer("jobs", 0));
    options.branch = static_cast<int>(args.integer("branch", -1));
    if (options.branch > 1)
        usage("--branch: expected 0 or 1");
    options.countEvents = args.values.count("count-events") != 0;

    // Every repetition, traced or not, goes through the same set-up
    // samples, half before its timed part and half after: the host's
    // speed drifts over seconds, and two windows a repetition apart
    // give the fastest sample (run.py reports it) two chances.
    std::vector<double> setups;
    measureSetups(bench, setups);

    // Spans only when asked for: untraced repetitions carry no
    // recording cost at all.
    SpanRecorder spans;
    bool traceSpans = args.values.count("spans") != 0;
    RepResult rep = runRep(bench, options, traceSpans ? &spans : nullptr);
    writeSpans(args, spans);
    measureSetups(bench, setups);

    std::ostringstream os;
    os << "{\"wall_s\": " << number(rep.wallS)
       << ", \"load_s\": " << number(rep.loadS)
       << ", \"write_s\": " << number(rep.writeS)
       << ", \"writes\": " << rep.writes
       << ", \"sim_s\": " << number(rep.simSeconds)
       << ", \"stepped_s\": " << number(rep.steppedSeconds)
       << ", \"events\": " << number(rep.events)
       << ", \"jobs\": " << rep.jobs
       << ", \"runs\": " << rep.runs
       << ", \"failed_runs\": " << rep.failedRuns
       << ", \"setup_s\": [";
    for (std::size_t i = 0; i < setups.size(); ++i)
        os << (i ? ", " : "") << number(setups[i]);
    os << "], \"peak_rss_mb\": " << number(peakRssMb())
       << ", \"problems\": " << stringList(rep.problems)
       << ", \"slo\": " << stringList(rep.slo) << "}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}

int
probe(const Args &args)
{
    BenchOptions bench = benchOptions(args);
    SpanRecorder spans;
    ProbeValues values = runProbes(bench, &spans);
    writeSpans(args, spans);
    std::string out = "{";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + quote(values[i].first) + ": " +
            number(values[i].second);
    std::printf("%s}\n", out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("expected a mode: info | run | probe");
    polca::sim::setQuiet(true);
    std::string mode = argv[1];
    Args args(argc, argv);
    if (mode == "info")
        return info();
    if (mode == "run")
        return run(args);
    if (mode == "probe")
        return probe(args);
    usage("unknown mode '" + mode + "'");
}
