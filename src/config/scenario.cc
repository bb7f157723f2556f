#include "config/scenario.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/thread_pool.hh"
#include "core/workload_aware.hh"
#include "obs/manifest.hh"

namespace polca::config {

namespace {

bool
requireKeys(const ConfigNode &section, const std::string &what,
            const std::vector<std::string> &keys, Diagnostics &diag)
{
    bool ok = true;
    for (const std::string &key : keys) {
        if (!section.has(key)) {
            diag.error(section.loc, what + ": missing required key '" +
                       key + "'");
            ok = false;
        }
    }
    return ok;
}

/** Read an optional scalar string field like `preset = "polca"`. */
bool
optionalString(const ConfigNode &section, const std::string &key,
               std::string &out, Diagnostics &diag)
{
    const ConfigNode *node = section.find(key);
    if (!node)
        return true;
    if (node->kind != ConfigNode::Kind::Scalar) {
        diag.error(node->loc, "'" + key + "' must be a string");
        return false;
    }
    std::string err;
    if (!parseStringToken(node->raw, out, err)) {
        diag.error(node->loc, key + ": " + err);
        return false;
    }
    return true;
}

bool
optionalNumber(const ConfigNode &section, const std::string &key,
               Unit unit, double &out, Diagnostics &diag)
{
    const ConfigNode *node = section.find(key);
    if (!node)
        return true;
    if (node->kind != ConfigNode::Kind::Scalar) {
        diag.error(node->loc, "'" + key + "' must be a number");
        return false;
    }
    std::string err;
    if (!parseNumberToken(node->raw, unit, out, err)) {
        diag.error(node->loc, key + ": " + err);
        return false;
    }
    return true;
}

/** Shape of a section of the resolved config, and how it binds. */
enum class Form
{
    Plain,    ///< [header], applied straight from its schema
    Table,    ///< [header], bound by a bespoke binder (presets, nesting)
    Blocks,   ///< [[header]] array of tables, bound by a bespoke binder
    Derived,  ///< [header] whose struct is computed, not a member
};

/** Provenance of the fields a section's source does not set. */
using Fallback = std::string (*)(const core::ExperimentConfig &,
                                 const ConfigNode &source);

/** One section of the resolved configuration. */
template <Form F, typename T, typename Get>
struct Section
{
    static constexpr Form form = F;

    const char *header;
    const StructSchema<T> &schema;
    /** ExperimentConfig -> the section's struct (for Blocks, its
     *  vector of structs). */
    Get get;
    /** Configures only the control plane, which does not exist before
     *  t = warmup: left out of warmupDigest. */
    bool control;
    Fallback fallback;     ///< nullptr: "default"
    const char *preamble;  ///< dumped ahead of the fields
};

constexpr bool kPhysical = false;
constexpr bool kControl = true;

template <Form F, typename T, typename Get>
Section<F, T, Get>
section(const char *header, const StructSchema<T> &schema, Get get,
        bool control = kPhysical, Fallback fallback = nullptr,
        const char *preamble = nullptr)
{
    return {header, schema, get, control, fallback, preamble};
}

/** Fault fields not in the file come from its [faults] scenario. */
std::string
faultProvenance(const core::ExperimentConfig &, const ConfigNode &source)
{
    if (const ConfigNode *faults = source.findPath("faults")) {
        if (const ConfigNode *scenario = faults->find("scenario")) {
            std::string name, err;
            if (parseStringToken(scenario->raw, name, err))
                return "preset:" + name;
        }
    }
    return "default";
}

/**
 * The resolved configuration, one section at a time in dump order:
 * the one list that bindExperiment, dumpResolved,
 * resolvedConfigsEqual and warmupDigest read.
 */
template <typename Visit>
void
forEachSection(Visit &&visit)
{
    using E = core::ExperimentConfig;
    visit(section<Form::Plain>("experiment", experimentSchema(),
                               [](auto &c) -> auto & { return c; }));
    visit(section<Form::Table>(
        "row", rowConfigSchema(),
        [](auto &c) -> auto & { return c.row; }));
    visit(section<Form::Table>(
        "row.server", serverSpecSchema(),
        [](auto &c) -> auto & { return c.row.serverSpec; }, kPhysical,
        [](const E &c, const ConfigNode &) {
            return "preset:" + c.row.serverSpec.name;
        }));
    visit(section<Form::Table>(
        "row.server.gpu", gpuSpecSchema(),
        [](auto &c) -> auto & { return c.row.serverSpec.gpu; },
        kPhysical, [](const E &c, const ConfigNode &) {
            return "preset:" + c.row.serverSpec.gpu.name;
        }));
    visit(section<Form::Derived>(
        "model", modelSpecSchema(),
        [](const E &c) { return effectiveModelSpec(c.row); }, kPhysical,
        [](const E &c, const ConfigNode &) {
            return "catalog:" + effectiveModelSpec(c.row).name;
        }));
    // Preset "none" plus the explicit resolved rules: reparsing
    // rebuilds the exact rule set with no preset involved.
    visit(section<Form::Table>(
        "policy", policyConfigSchema(),
        [](auto &c) -> auto & { return c.policy; }, kControl,
        [](const E &, const ConfigNode &source) -> std::string {
            const ConfigNode *policy = source.findPath("policy");
            if (!policy)
                return "default";
            const ConfigNode *preset = policy->find("preset");
            return preset ? "preset (" + preset->origin + ")"
                          : "preset";
        },
        "preset = \"none\"  # resolved\n"));
    visit(section<Form::Blocks>(
        "policy.rules", thresholdRuleSchema(),
        [](auto &c) -> auto & { return c.policy.rules; }, kControl,
        [](const E &c, const ConfigNode &) {
            return "preset:" + c.policy.name;
        }));
    visit(section<Form::Plain>(
        "manager", managerOptionsSchema(),
        [](auto &c) -> auto & { return c.manager; }, kControl));
    visit(section<Form::Table>(
        "workload.diurnal", diurnalSchema(),
        [](auto &c) -> auto & { return c.diurnal; }));
    visit(section<Form::Blocks>(
        "workload.mix", workloadSpecSchema(),
        [](auto &c) -> auto & { return c.mix; }));
    visit(section<Form::Table>(
        "faults.bursty_loss", burstyLossSchema(),
        [](auto &c) -> auto & { return c.faultPlan.burstyLoss; },
        kControl, faultProvenance));
    visit(section<Form::Blocks>(
        "faults.blackouts", blackoutSchema(),
        [](auto &c) -> auto & { return c.faultPlan.blackouts; },
        kControl, faultProvenance));
    visit(section<Form::Blocks>(
        "faults.sensor_faults", sensorFaultSchema(),
        [](auto &c) -> auto & { return c.faultPlan.sensorFaults; },
        kControl, faultProvenance));
    visit(section<Form::Blocks>(
        "faults.oob_outages", oobOutageSchema(),
        [](auto &c) -> auto & { return c.faultPlan.oobOutages; },
        kControl, faultProvenance));
    visit(section<Form::Blocks>(
        "faults.crashes", serverCrashSchema(),
        [](auto &c) -> auto & { return c.faultPlan.crashes; },
        kControl, faultProvenance));
    visit(section<Form::Blocks>(
        "faults.controller_crashes", controllerCrashSchema(),
        [](auto &c) -> auto & { return c.faultPlan.controllerCrashes; },
        kControl, faultProvenance));
    visit(section<Form::Plain>(
        "chaos", chaosConfigSchema(),
        [](auto &c) -> auto & { return c.chaos; }, kControl));
    visit(section<Form::Plain>(
        "safety", safetyOptionsSchema(),
        [](auto &c) -> auto & { return c.safety; }, kControl));
    visit(section<Form::Plain>(
        "obs", obsOptionsSchema(),
        [](auto &c) -> auto & { return c.obsOptions; }));
    visit(section<Form::Table>(
        "topology", topologyConfigSchema(),
        [](auto &c) -> auto & { return c.topology; }));
    visit(section<Form::Blocks>(
        "topology.rows", topologyRowGroupSchema(),
        [](auto &c) -> auto & { return c.topology.groups; }));
}

template <typename S>
constexpr Form formOf = std::remove_cvref_t<S>::form;

/** Dump one section as `[header]`, or one `[[header]]` per element,
 *  with each field's provenance taken from @p source. */
template <typename S>
void
writeSection(std::ostream &os, const S &s,
             const core::ExperimentConfig &config,
             const ConfigNode &source)
{
    const auto &value = s.get(config);
    const ConfigNode *node = source.findPath(s.header);
    std::string fallback =
        s.fallback ? s.fallback(config, source) : "default";
    if constexpr (formOf<S> == Form::Blocks) {
        for (std::size_t i = 0; i < value.size(); ++i) {
            const ConfigNode *element = nullptr;
            if (node && node->kind == ConfigNode::Kind::List &&
                i < node->items.size() &&
                node->items[i].kind == ConfigNode::Kind::Section)
                element = &node->items[i];
            os << "[[" << s.header << "]]\n";
            s.schema.dump(value[i], element, os, fallback);
            os << "\n";
        }
    } else {
        os << "[" << s.header << "]\n";
        if (s.preamble)
            os << s.preamble;
        s.schema.dump(value, node, os, fallback);
        os << "\n";
    }
}

/**
 * Append one entry to @p out per table of the @p list array, whose
 * header is the schema's name; with @p complete every schema key must
 * be given.
 */
template <typename T>
bool
bindBlocks(const ConfigNode &list, const StructSchema<T> &schema,
           bool complete, std::vector<T> &out, Diagnostics &diag)
{
    const std::string &header = schema.name();
    if (list.kind != ConfigNode::Kind::List) {
        diag.error(list.loc, header + " must be a list of [[" + header +
                   "]] tables");
        return false;
    }
    bool ok = true;
    for (const ConfigNode &item : list.items) {
        if (item.kind != ConfigNode::Kind::Section) {
            diag.error(item.loc, "[[" + header +
                       "]] entries must be tables");
            ok = false;
            continue;
        }
        T entry{};
        if ((complete && !requireKeys(item, "[[" + header + "]]",
                                      schema.keys(), diag)) ||
            !schema.apply(item, entry, diag)) {
            ok = false;
            continue;
        }
        out.push_back(entry);
    }
    return ok;
}

/** "" when one of @p presets is named @p name, else the diagnostic
 *  that lists them all. */
template <typename Spec>
std::string
unknownPreset(const std::vector<Spec> &presets, const std::string &what,
              const std::string &name)
{
    std::string names;
    for (const Spec &spec : presets) {
        if (spec.name == name)
            return {};
        names += (names.empty() ? "" : "|") + spec.name;
    }
    return "unknown " + what + " preset '" + name + "' (use " + names +
        ")";
}

/**
 * Bind the entries of the bespoke section [@p head] through the
 * table's `head.<key>` sections: a table applies onto its struct, an
 * array of tables appends complete entries.  @p keys are the keys the
 * caller reads itself; any key neither lists is an error.
 */
bool
bindSubsections(const ConfigNode &section, const std::string &head,
                std::vector<std::string> keys,
                core::ExperimentConfig &config, Diagnostics &diag)
{
    bool ok = true;
    const std::string prefix = head + ".";
    forEachSection([&](const auto &s) {
        std::string_view header = s.header;
        if (!header.starts_with(prefix))
            return;
        keys.emplace_back(header.substr(prefix.size()));
        const ConfigNode *node = section.find(keys.back());
        if (!node)
            return;
        if constexpr (formOf<decltype(s)> == Form::Blocks) {
            ok = bindBlocks(*node, s.schema, true, s.get(config),
                            diag) && ok;
        } else if constexpr (formOf<decltype(s)> == Form::Table) {
            ok = s.schema.apply(*node, s.get(config), diag) && ok;
        }
    });
    for (const auto &[key, node] : section.entries) {
        if (std::find(keys.begin(), keys.end(), key) != keys.end())
            continue;
        diag.error(node.loc, "unknown key '" + key + "' in [" + head +
                   "]" + didYouMean(key, keys));
        ok = false;
    }
    return ok;
}

bool
bindRow(const ConfigNode &rowSection, cluster::RowConfig &row,
        Diagnostics &diag)
{
    bool ok = rowConfigSchema().apply(rowSection, row, diag,
                                      {"server"});

    if (const ConfigNode *server = rowSection.find("server")) {
        if (server->kind != ConfigNode::Kind::Section) {
            diag.error(server->loc, "[row.server] must be a section");
            return false;
        }
        std::string preset;
        if (!optionalString(*server, "preset", preset, diag))
            ok = false;
        if (!preset.empty()) {
            std::string problem = unknownPreset(
                power::ServerSpec::presets(), "server", preset);
            if (problem.empty()) {
                row.serverSpec = cluster::serverSpecForPreset(preset);
            } else {
                diag.error(server->find("preset")->loc, problem);
                ok = false;
            }
        }
        if (!serverSpecSchema().apply(*server, row.serverSpec, diag,
                                      {"preset", "gpu"}))
            ok = false;

        if (const ConfigNode *gpu = server->find("gpu")) {
            if (gpu->kind != ConfigNode::Kind::Section) {
                diag.error(gpu->loc,
                           "[row.server.gpu] must be a section");
                return false;
            }
            std::string gpuPreset;
            if (!optionalString(*gpu, "preset", gpuPreset, diag))
                ok = false;
            if (!gpuPreset.empty()) {
                std::string problem = unknownPreset(
                    power::GpuSpec::presets(), "GPU", gpuPreset);
                if (problem.empty()) {
                    row.serverSpec.gpu = power::GpuSpec::byName(gpuPreset);
                } else {
                    diag.error(gpu->find("preset")->loc, problem);
                    ok = false;
                }
            }
            if (!gpuSpecSchema().apply(*gpu, row.serverSpec.gpu, diag,
                                       {"preset"}))
                ok = false;
        }
    }
    // The harness overwrites the row's flag with
    // experiment.record_row_series; a true here would be dropped.
    if (row.recordPowerSeries) {
        diag.error(rowSection.find("record_power_series")->loc,
                   "row.record_power_series is set from "
                   "experiment.record_row_series; set that instead");
        ok = false;
    }
    return ok;
}

bool
bindModel(const ConfigNode &root, cluster::RowConfig &row,
          Diagnostics &diag)
{
    llm::ModelCatalog catalog;
    const ConfigNode *model = root.find("model");
    if (!model) {
        if (!row.modelOverride && !catalog.contains(row.modelName)) {
            const ConfigNode *rowSection = root.find("row");
            diag.error(rowSection ? rowSection->loc : SourceLoc{},
                       "row.model: unknown model '" + row.modelName +
                       "' (not in the Table 3 catalog; add a [model] "
                       "section to define it)");
            return false;
        }
        return true;
    }
    if (model->kind != ConfigNode::Kind::Section) {
        diag.error(model->loc, "[model] must be a section");
        return false;
    }

    bool ok = true;
    std::string preset = catalog.contains(row.modelName)
        ? row.modelName : std::string();
    if (!optionalString(*model, "preset", preset, diag))
        ok = false;
    llm::ModelSpec spec;
    if (!preset.empty()) {
        if (!catalog.contains(preset)) {
            const ConfigNode *presetNode = model->find("preset");
            diag.error(presetNode ? presetNode->loc : model->loc,
                       "unknown model preset '" + preset + "'");
            return false;
        }
        spec = catalog.byName(preset);
    } else {
        // No catalog base: every field must be given explicitly.
        spec = llm::ModelSpec{};
        if (!requireKeys(*model, "[model] (no catalog preset)",
                         modelSpecSchema().keys(), diag))
            ok = false;
    }
    if (!modelSpecSchema().apply(*model, spec, diag, {"preset"}))
        ok = false;
    if (ok) {
        row.modelOverride = spec;
        row.modelName = spec.name;
    }
    return ok;
}

bool
bindPolicy(const ConfigNode &root, const cluster::RowConfig &row,
           core::PolicyConfig &policy, Diagnostics &diag)
{
    const ConfigNode *section = root.find("policy");
    if (!section)
        return true;  // keep the ExperimentConfig default (POLCA)
    if (section->kind != ConfigNode::Kind::Section) {
        diag.error(section->loc, "[policy] must be a section");
        return false;
    }

    bool ok = true;
    std::string preset = "polca";
    if (!optionalString(*section, "preset", preset, diag))
        ok = false;

    double t1 = 0.80, t2 = 0.89, t1LockMhz = 1275.0;
    double threshold = 0.89;
    bool hasPolcaParams = section->has("t1") || section->has("t2") ||
        section->has("t1_lock_mhz");
    bool hasThreshold = section->has("threshold");
    if (!optionalNumber(*section, "t1", Unit::Fraction, t1, diag))
        ok = false;
    if (!optionalNumber(*section, "t2", Unit::Fraction, t2, diag))
        ok = false;
    if (!optionalNumber(*section, "t1_lock_mhz", Unit::Megahertz,
                        t1LockMhz, diag))
        ok = false;
    if (!optionalNumber(*section, "threshold", Unit::Fraction,
                        threshold, diag))
        ok = false;

    if (preset == "polca") {
        policy = core::PolicyConfig::polca(t1, t2, t1LockMhz);
    } else if (preset == "1tlp") {
        policy = core::PolicyConfig::oneThreshLowPri(threshold);
    } else if (preset == "1tall") {
        policy = core::PolicyConfig::oneThreshAll(threshold);
    } else if (preset == "nocap") {
        policy = core::PolicyConfig::noCap();
    } else if (preset == "aware") {
        policy = core::workloadAwarePolicy(effectiveModelSpec(row));
    } else if (preset == "none") {
        policy = core::PolicyConfig{};
    } else {
        const ConfigNode *presetNode = section->find("preset");
        diag.error(presetNode ? presetNode->loc : section->loc,
                   "unknown policy preset '" + preset +
                   "' (use polca|1tlp|1tall|nocap|aware|none)");
        return false;
    }
    if (hasPolcaParams && preset != "polca") {
        diag.error(section->loc, "policy t1/t2/t1_lock_mhz only apply "
                   "to the polca preset (got '" + preset + "')");
        ok = false;
    }
    if (hasThreshold && preset != "1tlp" && preset != "1tall") {
        diag.error(section->loc, "policy threshold only applies to "
                   "the 1tlp/1tall presets (got '" + preset + "')");
        ok = false;
    }

    if (!policyConfigSchema().apply(
            *section, policy, diag,
            {"preset", "t1", "t2", "t1_lock_mhz", "threshold",
             "rules"}))
        ok = false;

    if (const ConfigNode *rules = section->find("rules")) {
        policy.rules.clear();
        if (!bindBlocks(*rules, thresholdRuleSchema(), true,
                        policy.rules, diag))
            ok = false;
    }
    return ok;
}

bool
bindWorkload(const ConfigNode &root, core::ExperimentConfig &config,
             Diagnostics &diag)
{
    const ConfigNode *section = root.find("workload");
    if (!section)
        return true;
    if (section->kind != ConfigNode::Kind::Section) {
        diag.error(section->loc, "[workload] must be a section");
        return false;
    }

    // A mix in the file replaces the default one.
    std::vector<workload::WorkloadSpec> defaultMix =
        std::exchange(config.mix, {});
    bool ok = bindSubsections(*section, "workload", {}, config, diag);
    if (config.mix.empty()) {
        config.mix = std::move(defaultMix);
        return ok;
    }
    double totalTraffic = 0.0;
    for (const workload::WorkloadSpec &spec : config.mix)
        totalTraffic += spec.trafficFraction;
    if (ok && std::abs(totalTraffic - 1.0) > 1e-3) {
        diag.error(section->find("mix")->loc, "workload.mix traffic "
                   "fractions sum to " + formatDouble(totalTraffic) +
                   ", expected 1");
        ok = false;
    }
    return ok;
}

bool
bindFaults(const ConfigNode &root, core::ExperimentConfig &config,
           Diagnostics &diag)
{
    const ConfigNode *section = root.find("faults");
    if (!section)
        return true;
    if (section->kind != ConfigNode::Kind::Section) {
        diag.error(section->loc, "[faults] must be a section");
        return false;
    }

    bool ok = true;
    std::string scenario;
    if (!optionalString(*section, "scenario", scenario, diag))
        ok = false;
    if (!scenario.empty()) {
        const std::vector<std::string> &names =
            faults::scenarioNames();
        if (std::find(names.begin(), names.end(), scenario) ==
            names.end()) {
            diag.error(section->find("scenario")->loc,
                       "unknown fault scenario '" + scenario + "'" +
                           didYouMean(scenario, names));
            return false;
        }
        int deployed = static_cast<int>(std::lround(
            config.row.baseServers *
            (1.0 + config.row.addedServerFraction)));
        config.faultPlan = faults::scenarioByName(
            scenario, config.duration, deployed);
    }

    // Explicit windows and settings extend (or refine) the preset.
    if (!bindSubsections(*section, "faults", {"scenario"}, config, diag))
        ok = false;
    // Cross-entry problems (overlapping windows, crash-while-down)
    // span multiple source lines, so they anchor on the section.
    if (ok) {
        for (const std::string &problem :
             config.faultPlan.problems()) {
            diag.error(section->loc, "[faults]: " + problem);
            ok = false;
        }
    }
    return ok;
}

bool
bindTopology(const ConfigNode &root, core::ExperimentConfig &config,
             Diagnostics &diag)
{
    const ConfigNode *section = root.find("topology");
    if (!section)
        return true;
    if (section->kind != ConfigNode::Kind::Section) {
        diag.error(section->loc, "[topology] must be a section");
        return false;
    }

    bool ok = topologyConfigSchema().apply(*section, config.topology,
                                           diag, {"rows"});

    std::vector<cluster::TopologyRowGroup> &groups =
        config.topology.groups;
    if (const ConfigNode *rows = section->find("rows")) {
        groups.clear();
        if (!bindBlocks(*rows, topologyRowGroupSchema(), false, groups,
                        diag))
            return false;
        // Every entry bound, so groups[i] came from rows->items[i].
        llm::ModelCatalog catalog;
        for (std::size_t i = 0; i < groups.size(); ++i) {
            const cluster::TopologyRowGroup &group = groups[i];
            const SourceLoc &loc = rows->items[i].loc;
            if (!cluster::validGroupName(group.name)) {
                diag.error(loc, "[[topology.rows]] name '" +
                           group.name + "' must be lowercase "
                           "[a-z0-9_] (it becomes a metric-path "
                           "segment)");
                ok = false;
            }
            std::string problem = unknownPreset(
                power::ServerSpec::presets(), "server", group.server);
            if (!problem.empty()) {
                diag.error(loc, "[[topology.rows]] '" + group.name +
                           "': " + problem);
                ok = false;
            }
            if (!catalog.contains(group.model)) {
                diag.error(loc, "[[topology.rows]] '" + group.name +
                           "': unknown model '" + group.model +
                           "' (not in the Table 3 catalog)");
                ok = false;
            }
            for (std::size_t j = 0; j < i; ++j) {
                if (groups[j].name == group.name) {
                    diag.error(loc, "[[topology.rows]] duplicate "
                               "group name '" + group.name + "'");
                    ok = false;
                }
            }
        }
    }

    if (config.topology.enabled) {
        if (groups.empty()) {
            diag.error(section->loc, "[topology]: enabled without "
                       "any [[topology.rows]] groups");
            ok = false;
        }
        // Site mode runs many serving cells; the single-row fault
        // and chaos machinery does not apply to it (yet).  Reject
        // *armed* plans rather than section presence so a resolved
        // dump (which always emits [chaos]) still reparses.
        const faults::FaultPlan &plan = config.faultPlan;
        bool hasFaults = plan.burstyLoss.enabled ||
            !plan.blackouts.empty() || !plan.sensorFaults.empty() ||
            !plan.oobOutages.empty() || !plan.crashes.empty() ||
            !plan.controllerCrashes.empty();
        if (hasFaults) {
            diag.error(section->loc, "[topology]: site mode does not "
                       "support fault injection ([faults])");
            ok = false;
        }
        if (config.chaos.enabled) {
            diag.error(section->loc, "[topology]: site mode does not "
                       "support chaos generation ([chaos])");
            ok = false;
        }
        // Flat-row knobs a site never reads: reject any value but
        // the default rather than drop it silently.
        static const core::ExperimentConfig defaults;
        auto rejectUnread = [&](const auto &schema, const auto &value,
                                const auto &fallback,
                                std::initializer_list<const char *> keys) {
            for (const char *key : keys) {
                if (schema.formatValue(value, key) ==
                    schema.formatValue(fallback, key))
                    continue;
                std::string path = schema.name() + "." + key;
                const ConfigNode *node = root.findPath(path);
                diag.error(node ? node->loc : section->loc,
                           "[topology]: site mode does not read " +
                           path + "; configure the site in [topology]");
                ok = false;
            }
        };
        rejectUnread(rowConfigSchema(), config.row, defaults.row,
                     {"base_servers", "added_server_fraction",
                      "lp_server_fraction", "provisioned_per_server_watts",
                      "telemetry_interval",
                      "telemetry_dropout_probability"});
        rejectUnread(experimentSchema(), config, defaults,
                     {"model_breaker", "breaker_limit_fraction",
                      "breaker_trip_duration"});
    }
    return ok;
}

} // namespace

llm::ModelSpec
effectiveModelSpec(const cluster::RowConfig &row)
{
    if (row.modelOverride)
        return *row.modelOverride;
    return llm::ModelCatalog().byName(row.modelName);
}

bool
bindExperiment(const ConfigNode &root, core::ExperimentConfig &config,
               Diagnostics &diag)
{
    if (root.kind != ConfigNode::Kind::Section) {
        diag.error(root.loc, "scenario root must be a section");
        return false;
    }

    // Known top-level sections: the table's heads, plus [sweep]
    // (consumed before binding).
    std::vector<std::string> known;
    forEachSection([&](const auto &s) {
        std::string head(s.header, std::strcspn(s.header, "."));
        if (std::find(known.begin(), known.end(), head) == known.end())
            known.push_back(head);
    });
    known.push_back("sweep");

    bool ok = true;
    for (const auto &[key, node] : root.entries) {
        if (std::find(known.begin(), known.end(), key) ==
            known.end()) {
            diag.error(node.loc, "unknown top-level " +
                       std::string(node.kind ==
                                           ConfigNode::Kind::Section
                                       ? "section ["
                                       : "entry [") + key + "]" +
                       didYouMean(key, known));
            ok = false;
        }
    }

    forEachSection([&](const auto &s) {
        if constexpr (formOf<decltype(s)> == Form::Plain) {
            if (const ConfigNode *node = root.find(s.header))
                ok = s.schema.apply(*node, s.get(config), diag) && ok;
        }
    });
    if (const ConfigNode *row = root.find("row")) {
        if (!bindRow(*row, config.row, diag))
            ok = false;
    }
    if (!bindModel(root, config.row, diag))
        ok = false;
    if (!bindPolicy(root, config.row, config.policy, diag))
        ok = false;
    if (!bindWorkload(root, config, diag))
        ok = false;
    if (!bindFaults(root, config, diag))
        ok = false;
    // After [faults]/[chaos]: site mode rejects armed plans.
    if (!bindTopology(root, config, diag))
        ok = false;
    return ok;
}

namespace {

/** Pretty value of a scalar for sweep labels (strings unquoted). */
std::string
labelValue(const ConfigNode &scalar)
{
    std::string out, err;
    if (!scalar.raw.empty() && scalar.raw.front() == '"' &&
        parseStringToken(scalar.raw, out, err))
        return out;
    return scalar.raw;
}

struct SweepAxis
{
    std::string path;
    std::vector<ConfigNode> values;
};

/** Parse the reserved [sweep] `jobs` key: a non-negative integer
 *  scalar (0 = one worker per hardware thread). */
void
parseSweepJobs(const ConfigNode &node, int &jobs, Diagnostics &diag)
{
    if (node.kind != ConfigNode::Kind::Scalar) {
        diag.error(node.loc,
                   "[sweep] jobs must be a single integer "
                   "(it selects parallelism, it is not an axis)");
        return;
    }
    const std::string &raw = node.raw;
    int value = 0;
    auto [ptr, ec] = std::from_chars(raw.data(),
                                     raw.data() + raw.size(), value);
    if (ec != std::errc() || ptr != raw.data() + raw.size() ||
        value < 0) {
        diag.error(node.loc, "[sweep] jobs: expected a non-negative "
                   "integer, got '" + raw + "'");
        return;
    }
    jobs = value == 0
        ? static_cast<int>(core::ThreadPool::defaultWorkerCount())
        : value;
}

/** Parse the reserved [sweep] `branch` key: a boolean scalar. */
void
parseSweepBranch(const ConfigNode &node, bool &branch,
                 Diagnostics &diag)
{
    if (node.kind == ConfigNode::Kind::Scalar &&
        (node.raw == "true" || node.raw == "false")) {
        branch = node.raw == "true";
        return;
    }
    diag.error(node.loc,
               "[sweep] branch must be true or false "
               "(it selects checkpoint/branch execution, it is "
               "not an axis)");
}

std::vector<SweepAxis>
extractSweepAxes(ConfigNode &root, int &jobs, bool &branch,
                 Diagnostics &diag)
{
    std::vector<SweepAxis> axes;
    ConfigNode *sweep = root.find("sweep");
    if (!sweep)
        return axes;
    if (sweep->kind != ConfigNode::Kind::Section) {
        diag.error(sweep->loc, "[sweep] must be a section");
        return axes;
    }
    // Reserved `warmup` key, applied to experiment.warmup after the
    // [sweep] section is removed below.
    std::unique_ptr<ConfigNode> warmup;
    for (auto &[path, node] : sweep->entries) {
        if (path == "jobs") {
            parseSweepJobs(node, jobs, diag);
            continue;
        }
        if (path == "branch") {
            parseSweepBranch(node, branch, diag);
            continue;
        }
        if (path == "warmup") {
            if (node.kind != ConfigNode::Kind::Scalar) {
                diag.error(node.loc,
                           "[sweep] warmup must be a single "
                           "duration (it sets the shared prefix "
                           "every point branches from, it is not "
                           "an axis; sweep experiment.warmup to "
                           "vary it)");
                continue;
            }
            warmup = std::make_unique<ConfigNode>(node);
            continue;
        }
        SweepAxis axis;
        axis.path = path;
        if (node.kind == ConfigNode::Kind::Scalar) {
            axis.values.push_back(node);
        } else if (node.kind == ConfigNode::Kind::List) {
            if (node.items.empty()) {
                diag.error(node.loc, "sweep axis '" + path +
                           "' has no values");
                continue;
            }
            for (const ConfigNode &item : node.items) {
                if (item.kind != ConfigNode::Kind::Scalar) {
                    diag.error(item.loc, "sweep axis '" + path +
                               "' values must be scalars");
                    continue;
                }
                axis.values.push_back(item);
            }
        } else {
            diag.error(node.loc, "sweep axis '" + path +
                       "' must be a scalar or a list");
            continue;
        }
        axes.push_back(std::move(axis));
    }

    // Remove [sweep] so point trees bind cleanly.
    root.entries.erase(
        std::remove_if(root.entries.begin(), root.entries.end(),
                       [](const auto &e) {
                           return e.first == "sweep";
                       }),
        root.entries.end());

    if (warmup) {
        ConfigNode scalar = *warmup;
        scalar.origin = "sweep";
        root.setPath("experiment.warmup", std::move(scalar), diag);
    }
    return axes;
}

/** Overrides + sweep expansion + binding, shared by both loaders. */
ScenarioSet
expandAndBind(ConfigNode root, const std::string &name,
              const std::vector<std::string> &overrides,
              Diagnostics &diag)
{
    ScenarioSet set;
    set.name = name;

    for (const std::string &override_ : overrides) {
        std::size_t eq = override_.find('=');
        if (eq == std::string::npos || eq == 0) {
            diag.error("--set '" + override_ +
                       "': expected path=value");
            continue;
        }
        std::string path = override_.substr(0, eq);
        std::string value = override_.substr(eq + 1);
        if (value.empty()) {
            diag.error("--set " + path + ": empty value");
            continue;
        }
        ConfigNode scalar = makeScalar(value, "cli");
        scalar.loc.file = "--set " + override_;
        root.setPath(path, std::move(scalar), diag);
    }
    if (!diag.ok())
        return set;

    std::vector<SweepAxis> axes =
        extractSweepAxes(root, set.jobs, set.branch, diag);
    if (!diag.ok())
        return set;

    std::size_t total = 1;
    for (const SweepAxis &axis : axes) {
        total *= axis.values.size();
        if (total > 4096) {
            diag.error("sweep expands to more than 4096 points");
            return set;
        }
    }

    for (std::size_t index = 0; index < total; ++index) {
        ResolvedScenario point;
        point.tree = root;
        std::size_t remainder = index;
        for (const SweepAxis &axis : axes) {
            const ConfigNode &value =
                axis.values[remainder % axis.values.size()];
            remainder /= axis.values.size();
            ConfigNode scalar = value;
            scalar.origin = "sweep";
            point.tree.setPath(axis.path, std::move(scalar), diag);
            point.label += (point.label.empty() ? "" : ",") +
                axis.path + "=" + labelValue(value);
        }
        if (!diag.ok())
            return set;
        if (!bindExperiment(point.tree, point.config, diag))
            return set;
        set.points.push_back(std::move(point));
    }
    return set;
}

} // namespace

ScenarioSet
loadScenarioString(const std::string &text, const std::string &name,
                   const std::vector<std::string> &overrides,
                   Diagnostics &diag)
{
    ConfigNode root = parseConfigString(text, name, diag);
    if (!diag.ok()) {
        ScenarioSet set;
        set.name = name;
        return set;
    }
    return expandAndBind(std::move(root), name, overrides, diag);
}

ScenarioSet
loadScenarioFile(const std::string &path,
                 const std::vector<std::string> &overrides,
                 Diagnostics &diag)
{
    std::string stem = path;
    std::size_t slash = stem.find_last_of('/');
    if (slash != std::string::npos)
        stem = stem.substr(slash + 1);
    std::size_t dot = stem.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        stem = stem.substr(0, dot);

    ConfigNode root = parseConfigFile(path, diag);
    if (!diag.ok()) {
        ScenarioSet set;
        set.name = stem;
        return set;
    }
    return expandAndBind(std::move(root), stem, overrides, diag);
}

void
dumpResolved(const core::ExperimentConfig &config,
             const ConfigNode &source, std::ostream &os)
{
    os << "# polcasim effective configuration (fully resolved: "
          "defaults + file + CLI + sweep)\n"
          "# Provenance per value: default | <file>:<line> | cli | "
          "sweep | preset:<name>\n"
          "# Rerun with: polcactl run --scenario-file <this file>\n"
          "\n";
    forEachSection(
        [&](const auto &s) { writeSection(os, s, config, source); });
}

std::string
warmupDigest(const core::ExperimentConfig &config, const ConfigNode &)
{
    // Of [experiment], `managed` and `record_row_series` steer only
    // the control plane and post-run reporting: pin them on a copy.
    // Against an empty source every field's provenance is its
    // section's fallback, a function of the values alone.
    core::ExperimentConfig physical = config;
    physical.managed = true;
    physical.recordRowSeries = false;
    const ConfigNode noSource;
    std::ostringstream os;
    forEachSection([&](const auto &s) {
        if (!s.control)
            writeSection(os, s, physical, noSource);
    });
    return obs::fnv1a64Hex(os.str());
}

bool
resolvedConfigsEqual(const core::ExperimentConfig &a,
                     const core::ExperimentConfig &b)
{
    bool equal = true;
    forEachSection([&](const auto &s) {
        if (!equal)
            return;
        const auto &x = s.get(a);
        const auto &y = s.get(b);
        if constexpr (formOf<decltype(s)> == Form::Blocks) {
            equal = std::equal(x.begin(), x.end(), y.begin(), y.end(),
                               [&](const auto &p, const auto &q) {
                                   return s.schema.equal(p, q);
                               });
        } else {
            equal = s.schema.equal(x, y);
        }
    });
    return equal;
}

} // namespace polca::config
