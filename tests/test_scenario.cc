/**
 * @file
 * Scenario-layer tests: binding a parsed tree into an
 * ExperimentConfig, the defaults < file < --set < sweep precedence
 * chain, cartesian sweep expansion with labels, hostile scenarios
 * with line-precise suggestions, the headline guarantee that
 * dumpResolved() output reparses to the identical resolved config,
 * and which sections the warmup digest keeps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "config/scenario.hh"

namespace {

using namespace polca;
using namespace polca::config;

ScenarioSet
load(const std::string &text,
     const std::vector<std::string> &overrides = {})
{
    Diagnostics diag;
    ScenarioSet set =
        loadScenarioString(text, "test.toml", overrides, diag);
    EXPECT_TRUE(diag.ok()) << diag.str();
    return set;
}

std::string
loadError(const std::string &text,
          const std::vector<std::string> &overrides = {})
{
    Diagnostics diag;
    loadScenarioString(text, "test.toml", overrides, diag);
    EXPECT_FALSE(diag.ok()) << "expected a binding error";
    return diag.str();
}

TEST(Scenario, BindsEverySection)
{
    ScenarioSet set = load("[experiment]\n"
                           "duration = 1h\n"
                           "seed = 7\n"
                           "breaker_limit_fraction = 1.05\n"
                           "\n"
                           "[row]\n"
                           "base_servers = 4\n"
                           "added_server_fraction = 25%\n"
                           "\n"
                           "[policy]\n"
                           "preset = \"1tlp\"\n"
                           "threshold = 85%\n"
                           "\n"
                           "[manager]\n"
                           "watchdog_enabled = false\n"
                           "\n"
                           "[workload.diurnal]\n"
                           "base_utilization = 40%\n"
                           "\n"
                           "[faults]\n"
                           "[[faults.blackouts]]\n"
                           "start = 5min\n"
                           "duration = 1h\n");
    ASSERT_EQ(set.points.size(), 1u);
    EXPECT_FALSE(set.isSweep());
    const core::ExperimentConfig &config = set.points[0].config;
    EXPECT_EQ(config.duration, sim::secondsToTicks(3600));
    EXPECT_EQ(config.seed, 7u);
    EXPECT_DOUBLE_EQ(config.breakerLimitFraction, 1.05);
    EXPECT_EQ(config.row.baseServers, 4);
    EXPECT_DOUBLE_EQ(config.row.addedServerFraction, 0.25);
    ASSERT_EQ(config.policy.rules.size(), 1u);
    EXPECT_DOUBLE_EQ(config.policy.rules[0].capFraction, 0.85);
    EXPECT_FALSE(config.manager.watchdogEnabled);
    EXPECT_DOUBLE_EQ(config.diurnal.baseUtilization, 0.40);
    ASSERT_EQ(config.faultPlan.blackouts.size(), 1u);
    EXPECT_EQ(config.faultPlan.blackouts[0].start,
              sim::secondsToTicks(300));
}

TEST(Scenario, CliOverridesFile)
{
    ScenarioSet set = load("[row]\n"
                           "added_server_fraction = 40%\n",
                           {"row.added_server_fraction=0.45"});
    ASSERT_EQ(set.points.size(), 1u);
    EXPECT_DOUBLE_EQ(
        set.points[0].config.row.addedServerFraction, 0.45);
    const ConfigNode *node =
        set.points[0].tree.findPath("row.added_server_fraction");
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->origin, "cli");
}

TEST(Scenario, SweepOverridesCli)
{
    ScenarioSet set = load("[sweep]\n"
                           "\"experiment.seed\" = [1..2]\n",
                           {"experiment.seed=9"});
    ASSERT_EQ(set.points.size(), 2u);
    EXPECT_TRUE(set.isSweep());
    EXPECT_EQ(set.points[0].config.seed, 1u);
    EXPECT_EQ(set.points[1].config.seed, 2u);
    EXPECT_EQ(set.points[0].label, "experiment.seed=1");
    const ConfigNode *node =
        set.points[0].tree.findPath("experiment.seed");
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->origin, "sweep");
}

TEST(Scenario, CartesianExpansionAndLabels)
{
    ScenarioSet set =
        load("[sweep]\n"
             "\"policy.preset\" = [\"polca\", \"1tlp\", \"nocap\"]\n"
             "\"experiment.seed\" = [1, 2]\n");
    ASSERT_EQ(set.points.size(), 6u);
    std::vector<std::string> labels;
    for (const ResolvedScenario &point : set.points) {
        EXPECT_NE(point.label.find("policy.preset="),
                  std::string::npos);
        EXPECT_NE(point.label.find("experiment.seed="),
                  std::string::npos);
        labels.push_back(point.label);
    }
    std::sort(labels.begin(), labels.end());
    EXPECT_EQ(std::unique(labels.begin(), labels.end()),
              labels.end()) << "sweep labels must be unique";
    // nocap points really bound the nocap policy (no rules).
    for (const ResolvedScenario &point : set.points) {
        if (point.label.find("nocap") != std::string::npos) {
            EXPECT_TRUE(point.config.policy.rules.empty());
        }
    }
}

TEST(Scenario, UnknownSectionSuggestion)
{
    std::string err = loadError("[rows]\n"
                                "base_servers = 2\n");
    EXPECT_NE(err.find("unknown top-level section [rows]"),
              std::string::npos) << err;
    EXPECT_NE(err.find("did you mean 'row'"), std::string::npos)
        << err;
    EXPECT_NE(err.find("test.toml:1"), std::string::npos) << err;
}

TEST(Scenario, UnknownPolicyPresetAnchored)
{
    std::string err = loadError("[policy]\n"
                                "\n"
                                "preset = \"polka\"\n");
    EXPECT_NE(err.find("unknown policy preset 'polka'"),
              std::string::npos) << err;
    EXPECT_NE(err.find("test.toml:3"), std::string::npos) << err;
}

TEST(Scenario, PresetParameterCompatibility)
{
    std::string err = loadError("[policy]\n"
                                "preset = \"nocap\"\n"
                                "t1 = 50%\n");
    EXPECT_NE(err.find("t1/t2/t1_lock_mhz only apply"),
              std::string::npos) << err;

    std::string err2 = loadError("[policy]\n"
                                 "threshold = 80%\n"
                                 "preset = \"polca\"\n");
    EXPECT_NE(err2.find("threshold only applies"),
              std::string::npos) << err2;
}

TEST(Scenario, ExplicitRulesReplacePreset)
{
    ScenarioSet set = load("[policy]\n"
                           "preset = \"polca\"\n"
                           "[[policy.rules]]\n"
                           "name = \"only\"\n"
                           "target = \"low\"\n"
                           "cap_at = 70%\n"
                           "uncap_at = 60%\n"
                           "lock_mhz = 900\n");
    ASSERT_EQ(set.points.size(), 1u);
    const core::PolicyConfig &policy = set.points[0].config.policy;
    ASSERT_EQ(policy.rules.size(), 1u);
    EXPECT_EQ(policy.rules[0].name, "only");
    EXPECT_DOUBLE_EQ(policy.rules[0].capFraction, 0.70);
}

TEST(Scenario, RuleOrderingValidated)
{
    std::string err = loadError("[policy]\n"
                                "[[policy.rules]]\n"
                                "name = \"bad\"\n"
                                "target = \"low\"\n"
                                "cap_at = 60%\n"
                                "uncap_at = 70%\n"
                                "lock_mhz = 900\n");
    EXPECT_NE(err.find("uncap_at must sit below cap_at"),
              std::string::npos) << err;
}

TEST(Scenario, MixMustSumToOne)
{
    std::string err = loadError("[workload]\n"
                                "[[workload.mix]]\n"
                                "name = \"only\"\n"
                                "prompt_min = 10\n"
                                "prompt_max = 20\n"
                                "output_min = 10\n"
                                "output_max = 20\n"
                                "traffic_fraction = 90%\n"
                                "high_priority_fraction = 50%\n");
    EXPECT_NE(err.find("sum to"), std::string::npos) << err;
}

TEST(Scenario, IncompleteFaultEntry)
{
    std::string err = loadError("[faults]\n"
                                "[[faults.blackouts]]\n"
                                "start = 5min\n");
    EXPECT_NE(err.find("missing required key 'duration'"),
              std::string::npos) << err;
}

TEST(Scenario, FaultScenarioSuggestion)
{
    std::string err = loadError("[faults]\n"
                                "scenario = \"blackot\"\n");
    EXPECT_NE(err.find("unknown fault scenario 'blackot'"),
              std::string::npos) << err;
    EXPECT_NE(err.find("did you mean 'blackout'"),
              std::string::npos) << err;
}

TEST(Scenario, ModelOverrideFromCatalogPreset)
{
    ScenarioSet set = load("[model]\n"
                           "preset = \"BLOOM-176B\"\n"
                           "params_billions = 200\n");
    ASSERT_EQ(set.points.size(), 1u);
    const cluster::RowConfig &row = set.points[0].config.row;
    ASSERT_TRUE(row.modelOverride.has_value());
    EXPECT_DOUBLE_EQ(effectiveModelSpec(row).paramsBillions, 200.0);
    // Untouched fields keep the catalog values.
    EXPECT_EQ(effectiveModelSpec(row).name, "BLOOM-176B");
}

TEST(Scenario, ServerAndGpuPresets)
{
    ScenarioSet set = load("[row.server]\n"
                           "preset = \"DGX-H100\"\n"
                           "[row.server.gpu]\n"
                           "tdp_watts = 650\n");
    const cluster::RowConfig &row = set.points[0].config.row;
    EXPECT_EQ(row.serverSpec.name,
              power::ServerSpec::dgxH100().name);
    EXPECT_DOUBLE_EQ(row.serverSpec.gpu.tdpWatts, 650.0);
}

TEST(Scenario, SetOverrideErrorsNameTheFlag)
{
    std::string err =
        loadError("", {"policy.preset=polka"});
    EXPECT_NE(err.find("--set policy.preset=polka"),
              std::string::npos) << err;
    EXPECT_NE(err.find("unknown policy preset 'polka'"),
              std::string::npos) << err;
}

TEST(Scenario, MalformedOverrides)
{
    EXPECT_NE(loadError("", {"=value"}).find("expected path=value"),
              std::string::npos);
    EXPECT_NE(loadError("", {"experiment.seed="}).find("empty value"),
              std::string::npos);
    // An override cannot tunnel through an existing scalar.
    EXPECT_NE(loadError("[row]\nbase_servers = 2\n",
                        {"row.base_servers.x=1"})
                  .find("is not a section"),
              std::string::npos);
}

/** Load -> dumpResolved -> reload -> compare; the acceptance
 *  criterion for the effective-config dump. */
void
expectDumpReparseIdentity(const std::string &text,
                          const std::vector<std::string> &overrides)
{
    Diagnostics diag;
    ScenarioSet original =
        loadScenarioString(text, "orig.toml", overrides, diag);
    ASSERT_TRUE(diag.ok()) << diag.str();
    ASSERT_EQ(original.points.size(), 1u);

    std::ostringstream os;
    dumpResolved(original.points[0].config, original.points[0].tree,
                 os);

    Diagnostics diag2;
    ScenarioSet reparsed =
        loadScenarioString(os.str(), "dump.toml", {}, diag2);
    ASSERT_TRUE(diag2.ok()) << diag2.str() << "\n--- dump was:\n"
                            << os.str();
    ASSERT_EQ(reparsed.points.size(), 1u);
    EXPECT_TRUE(resolvedConfigsEqual(original.points[0].config,
                                     reparsed.points[0].config))
        << "dump did not reparse to the identical resolved config:\n"
        << os.str();

    // And the dump itself is a fixed point: dumping the reparsed
    // config produces byte-identical output.
    std::ostringstream os2;
    dumpResolved(reparsed.points[0].config, reparsed.points[0].tree,
                 os2);
    std::string a = os.str(), b = os2.str();
    // Provenance comments legitimately differ (file names, origins);
    // compare with comments stripped.
    auto stripComments = [](const std::string &s) {
        std::string out;
        std::istringstream in(s);
        std::string line;
        while (std::getline(in, line)) {
            std::size_t hash = line.find('#');
            if (hash != std::string::npos)
                line = line.substr(0, hash);
            while (!line.empty() &&
                   (line.back() == ' ' || line.back() == '\t'))
                line.pop_back();
            out += line;
            out += '\n';
        }
        return out;
    };
    EXPECT_EQ(stripComments(a), stripComments(b));
}

TEST(Scenario, DumpReparsesToIdenticalConfigDefaults)
{
    expectDumpReparseIdentity("", {});
}

TEST(Scenario, DumpReparsesToIdenticalConfigRich)
{
    expectDumpReparseIdentity(
        "[experiment]\n"
        "duration = 6h\n"
        "seed = 11\n"
        "breaker_limit_fraction = 1.05\n"
        "[row]\n"
        "base_servers = 12\n"
        "added_server_fraction = 50%\n"
        "[row.server]\n"
        "preset = \"DGX-A100-40GB\"\n"
        "[row.server.gpu]\n"
        "tdp_watts = 390\n"
        "[model]\n"
        "preset = \"BLOOM-176B\"\n"
        "token_time_ms = 90\n"
        "[policy]\n"
        "preset = \"polca\"\n"
        "t1 = 78%\n"
        "[manager]\n"
        "watchdog_timeout = 40s\n"
        "[workload.diurnal]\n"
        "base_utilization = 45%\n"
        "[faults]\n"
        "[[faults.blackouts]]\n"
        "start = 5min\n"
        "duration = 1h\n",
        {"experiment.power_scale_factor=1.05"});
}

TEST(Scenario, SweepPointDumpReparses)
{
    Diagnostics diag;
    ScenarioSet set = loadScenarioString(
        "[sweep]\n"
        "\"policy.preset\" = [\"polca\", \"nocap\"]\n",
        "sweep.toml", {}, diag);
    ASSERT_TRUE(diag.ok()) << diag.str();
    ASSERT_EQ(set.points.size(), 2u);
    for (const ResolvedScenario &point : set.points) {
        std::ostringstream os;
        dumpResolved(point.config, point.tree, os);
        Diagnostics diag2;
        ScenarioSet reparsed =
            loadScenarioString(os.str(), "dump.toml", {}, diag2);
        ASSERT_TRUE(diag2.ok())
            << point.label << ": " << diag2.str();
        ASSERT_EQ(reparsed.points.size(), 1u);
        EXPECT_TRUE(resolvedConfigsEqual(
            point.config, reparsed.points[0].config))
            << point.label;
    }
}

/** One non-default value in every dumped section survives
 *  dump -> reparse.  The fields are checked directly, not through
 *  resolvedConfigsEqual, so a section the dump drops fails here even
 *  when the equality walk drops it too. */
TEST(Scenario, DumpCarriesEverySection)
{
    ScenarioSet original = load(
        "[row.server.gpu]\n"
        "tdp_watts = 390\n"
        "[model]\n"
        "preset = \"BLOOM-176B\"\n"
        "token_time_ms = 90\n"
        "[policy]\n"
        "preset = \"none\"\n"
        "[[policy.rules]]\n"
        "name = \"lp\"\n"
        "target = \"low\"\n"
        "cap_at = 85%\n"
        "uncap_at = 80%\n"
        "lock_mhz = 1200\n"
        "[[workload.mix]]\n"
        "name = \"chat\"\n"
        "prompt_min = 10\n"
        "prompt_max = 100\n"
        "output_min = 5\n"
        "output_max = 50\n"
        "traffic_fraction = 1\n"
        "high_priority_fraction = 30%\n"
        "[faults.bursty_loss]\n"
        "enabled = true\n"
        "[[faults.blackouts]]\n"
        "start = 5min\n"
        "duration = 1h\n"
        "[[faults.sensor_faults]]\n"
        "start = 2h\n"
        "duration = 10min\n"
        "mode = \"noise\"\n"
        "bias_watts = 0\n"
        "noise_stddev_watts = 50\n"
        "[[faults.oob_outages]]\n"
        "start = 3h\n"
        "duration = 5min\n"
        "[[faults.crashes]]\n"
        "at = 4h\n"
        "downtime = 10min\n"
        "server_index = 3\n"
        "permanent = false\n"
        "[[faults.controller_crashes]]\n"
        "at = 5h\n"
        "downtime = 2min\n"
        "cold_restart = true\n"
        "[chaos]\n"
        "intensity = 0.5\n"
        "[safety]\n"
        "max_brake_time_fraction = 0.2\n"
        "[obs]\n"
        "interval = 60\n"
        "[topology]\n"
        "row_budget_fraction = 0.9\n"
        "[[topology.rows]]\n"
        "name = \"a100\"\n"
        "rows = 2\n"
        "racks_per_row = 3\n"
        "servers_per_rack = 4\n"
        "server = \"DGX-A100-40GB\"\n"
        "model = \"Llama2-70B\"\n"
        "lp_server_fraction = 0.25\n"
        "provisioned_per_server_watts = 5000\n");
    ASSERT_EQ(original.points.size(), 1u);
    std::ostringstream os;
    dumpResolved(original.points[0].config, original.points[0].tree,
                 os);
    ScenarioSet reparsed = load(os.str());
    ASSERT_EQ(reparsed.points.size(), 1u);
    const core::ExperimentConfig &c = reparsed.points[0].config;

    EXPECT_EQ(c.row.serverSpec.gpu.tdpWatts, 390.0);
    EXPECT_EQ(effectiveModelSpec(c.row).tokenTimeMs, 90.0);

    ASSERT_EQ(c.policy.rules.size(), 1u);
    EXPECT_EQ(c.policy.rules[0].name, "lp");
    EXPECT_EQ(c.policy.rules[0].capFraction, 0.85);
    EXPECT_EQ(c.policy.rules[0].lockMhz, 1200.0);

    ASSERT_EQ(c.mix.size(), 1u);
    EXPECT_EQ(c.mix[0].name, "chat");
    EXPECT_EQ(c.mix[0].promptMax, 100);
    EXPECT_EQ(c.mix[0].highPriorityFraction, 0.3);

    const faults::FaultPlan &plan = c.faultPlan;
    EXPECT_TRUE(plan.burstyLoss.enabled);
    ASSERT_EQ(plan.blackouts.size(), 1u);
    EXPECT_EQ(plan.blackouts[0].start, sim::secondsToTicks(300));
    ASSERT_EQ(plan.sensorFaults.size(), 1u);
    EXPECT_EQ(plan.sensorFaults[0].mode,
              faults::SensorFaultMode::Noise);
    EXPECT_EQ(plan.sensorFaults[0].noiseStddevWatts, 50.0);
    ASSERT_EQ(plan.oobOutages.size(), 1u);
    EXPECT_EQ(plan.oobOutages[0].start, sim::secondsToTicks(3 * 3600));
    ASSERT_EQ(plan.crashes.size(), 1u);
    EXPECT_EQ(plan.crashes[0].serverIndex, 3);
    ASSERT_EQ(plan.controllerCrashes.size(), 1u);
    EXPECT_TRUE(plan.controllerCrashes[0].coldRestart);

    EXPECT_EQ(c.chaos.intensity, 0.5);
    EXPECT_EQ(c.safety.maxBrakeTimeFraction, 0.2);
    EXPECT_EQ(c.obsOptions.metricsInterval, sim::secondsToTicks(60));
    EXPECT_EQ(c.topology.rowBudgetFraction, 0.9);
    ASSERT_EQ(c.topology.groups.size(), 1u);
    EXPECT_EQ(c.topology.groups[0].name, "a100");
    EXPECT_EQ(c.topology.groups[0].server, "DGX-A100-40GB");
    EXPECT_EQ(c.topology.groups[0].model, "Llama2-70B");
    EXPECT_EQ(c.topology.groups[0].serversPerRack, 4);
}

/** warmupDigest of the single point of @p text plus @p overrides. */
std::string
digestOf(const std::string &text,
         const std::vector<std::string> &overrides = {})
{
    ScenarioSet set = load("[experiment]\n"
                           "duration = 1h\n"
                           "warmup = 10min\n" +
                               text,
                           overrides);
    EXPECT_EQ(set.points.size(), 1u);
    if (set.points.empty())
        return {};
    return warmupDigest(set.points[0].config, set.points[0].tree);
}

/** The digest keeps exactly the sections that shape the world before
 *  t = warmup: a control-plane change shares the warmup, a physical
 *  one does not. */
TEST(Scenario, WarmupDigestClassifiesSections)
{
    const std::string base = digestOf("");
    ASSERT_FALSE(base.empty());

    const std::vector<std::string> control = {
        "policy.preset=1tlp",
        "manager.watchdog_timeout=40s",
        "safety.max_brake_time_fraction=0.2",
        "faults.bursty_loss.enabled=true",
        "chaos.intensity=0.5",
        "experiment.managed=false",
        "experiment.record_row_series=true",
    };
    for (const std::string &change : control)
        EXPECT_EQ(digestOf("", {change}), base) << change;
    EXPECT_EQ(digestOf("[[faults.blackouts]]\n"
                       "start = 20min\n"
                       "duration = 5min\n"),
              base);

    const std::vector<std::string> physical = {
        "row.base_servers=12",
        "row.server.rated_power_watts=7000",
        "row.server.gpu.tdp_watts=390",
        "model.token_time_ms=90",
        "workload.diurnal.base_utilization=0.5",
        "obs.interval=60",
        "topology.row_budget_fraction=0.9",
        "experiment.seed=7",
        "experiment.warmup=20min",
        "experiment.duration=2h",
    };
    for (const std::string &change : physical)
        EXPECT_NE(digestOf("", {change}), base) << change;
    EXPECT_NE(digestOf("[[workload.mix]]\n"
                       "name = \"chat\"\n"
                       "prompt_min = 10\n"
                       "prompt_max = 100\n"
                       "output_min = 5\n"
                       "output_max = 50\n"
                       "traffic_fraction = 1\n"
                       "high_priority_fraction = 0.3\n"),
              base);
    EXPECT_NE(digestOf("[[topology.rows]]\nname = \"a\"\n"), base);

    // Provenance is not part of the digest: the same value from the
    // file or from the command line shares the warmup.
    EXPECT_EQ(digestOf("[row]\nbase_servers = 12\n"),
              digestOf("", {"row.base_servers=12"}));
}

/** The harness overwrites row.record_power_series with
 *  experiment.record_row_series, so only the default binds. */
TEST(Scenario, RowRecordPowerSeriesRejected)
{
    EXPECT_NE(loadError("[row]\n"
                        "base_servers = 4\n"
                        "record_power_series = true\n")
                  .find("test.toml:3: row.record_power_series is set "
                        "from experiment.record_row_series"),
              std::string::npos);
    EXPECT_NE(loadError("[topology]\n"
                        "enabled = true\n"
                        "[[topology.rows]]\n"
                        "name = \"a\"\n"
                        "[row]\n"
                        "record_power_series = true\n")
                  .find("test.toml:6: row.record_power_series"),
              std::string::npos);
    ScenarioSet set = load("[row]\nrecord_power_series = false\n");
    ASSERT_EQ(set.points.size(), 1u);
    EXPECT_FALSE(set.points[0].config.row.recordPowerSeries);
}

} // namespace
