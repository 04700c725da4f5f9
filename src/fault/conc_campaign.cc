#include "fault/conc_campaign.hh"

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/logging.hh"
#include "exp/fingerprint.hh"
#include "exp/json.hh"
#include "exp/scheduler.hh"
#include "fault/conc_check.hh"
#include "fault/crash_image.hh"
#include "fault/fault_plan.hh"

namespace ede {

namespace {

/**
 * Does some core other than 0 have an accepted persist whose media
 * write is still outstanding at cycle @p c?  That is the campaign's
 * target window: core 0's crash image then depends on *remote*
 * buffered state.
 */
bool
remoteOutstandingAt(const PersistOrderGraph &g,
                    const std::vector<PersistEvent> &events, Cycle c)
{
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
        if (events[i].core == 0)
            continue;
        const PersistNode &n = g.nodes[i];
        if (n.accept <= c &&
            (n.mediaCycle == kNoCycle || n.mediaCycle > c)) {
            return true;
        }
    }
    return false;
}

/** Selected crash cycles plus their remote-outstanding flags. */
struct ConcCrashPoints
{
    std::vector<Cycle> cycles;
    std::vector<bool> remote;
};

/**
 * Candidate crash cycles at persist boundaries, stratified toward
 * the remote-outstanding window: when the budget is smaller than the
 * candidate set, ~3/4 of it goes to cycles where a remote core's
 * media writes are pending and the rest to the others, each picked
 * evenly spaced.  @p budget 0 means exhaustive.
 */
ConcCrashPoints
selectConcCrashPoints(const PersistOrderGraph &g,
                      const std::vector<PersistEvent> &events,
                      std::size_t budget)
{
    std::vector<Cycle> candidates;
    for (const PersistEvent &ev : events) {
        candidates.push_back(ev.cycle);
        candidates.push_back(ev.cycle + 1);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(
        std::unique(candidates.begin(), candidates.end()),
        candidates.end());

    std::vector<Cycle> remote, local;
    for (Cycle c : candidates) {
        (remoteOutstandingAt(g, events, c) ? remote : local)
            .push_back(c);
    }

    std::vector<Cycle> pickedRemote = remote, pickedLocal = local;
    if (budget != 0 && candidates.size() > budget) {
        std::size_t takeRemote = std::min(
            remote.size(),
            std::max<std::size_t>(remote.empty() ? 0 : 1,
                                  budget * 3 / 4));
        std::size_t takeLocal =
            std::min(local.size(), budget - takeRemote);
        // Spare budget spills back into the richer stratum.
        takeRemote = std::min(remote.size(), budget - takeLocal);

        auto spaced = [](const std::vector<Cycle> &from,
                         std::size_t take) {
            std::vector<Cycle> out;
            out.reserve(take);
            for (std::size_t j = 0; j < take; ++j)
                out.push_back(from[j * from.size() / take]);
            return out;
        };
        pickedRemote =
            takeRemote ? spaced(remote, takeRemote)
                       : std::vector<Cycle>{};
        pickedLocal = takeLocal ? spaced(local, takeLocal)
                                : std::vector<Cycle>{};
    }

    std::vector<std::pair<Cycle, bool>> merged;
    merged.reserve(pickedRemote.size() + pickedLocal.size());
    for (Cycle c : pickedRemote)
        merged.emplace_back(c, true);
    for (Cycle c : pickedLocal)
        merged.emplace_back(c, false);
    std::sort(merged.begin(), merged.end());

    ConcCrashPoints points;
    points.cycles.reserve(merged.size());
    points.remote.reserve(merged.size());
    for (const auto &[c, r] : merged) {
        points.cycles.push_back(c);
        points.remote.push_back(r);
    }
    return points;
}

/** Reconstruct and judge one multi-core crash point under @p plan. */
ConcCrashPointResult
classifyConcPoint(const ConcurrentHarness &h,
                  const PersistOrderGraph &order, Cycle crashCycle,
                  const FaultPlan &plan)
{
    MemoryImage img = h.baselineNvm();
    applyFaultyPersistEvents(img, h.system().persistEvents(),
                             h.system().mediaWriteEvents(),
                             crashCycle, plan, h.mediaLineBytes(),
                             &order);

    ConcCrashPointResult r;
    r.crashCycle = crashCycle;
    r.plan = plan;
    if (const char *inv = checkConcInvariants(h.model(), img)) {
        r.outcome = CrashOutcome::Unrecoverable;
        r.invariant = inv;
    } else {
        r.outcome = CrashOutcome::Recovered;
    }
    return r;
}

/**
 * Shrink a failing plan to the weakest variant that still violates:
 * no faults at all, tear only, drain only, then the original.
 */
ConcReproducer
shrinkConcFailure(const ConcCampaignOptions &options, Config cfg,
                  const ConcurrentHarness &h,
                  const PersistOrderGraph &order, Cycle crashCycle,
                  const FaultPlan &plan)
{
    FaultPlan benign = plan;
    benign.drainLines = FaultPlan::kDrainAll;
    benign.tear = TearKind::None;

    FaultPlan tear_only = benign;
    tear_only.tear = plan.tear;

    FaultPlan drain_only = benign;
    drain_only.drainLines = plan.drainLines;

    ConcReproducer rep;
    rep.seed = options.seed;
    rep.config = cfg;
    rep.crashCycle = crashCycle;
    rep.plan = plan;
    for (const FaultPlan &candidate :
         {benign, tear_only, drain_only, plan}) {
        const ConcCrashPointResult r =
            classifyConcPoint(h, order, crashCycle, candidate);
        if (r.outcome == CrashOutcome::Unrecoverable) {
            rep.plan = candidate;
            rep.invariant = r.invariant;
            return rep;
        }
    }
    return rep;  // Unreachable: the caller saw `plan` fail.
}

/** One simulated configuration for the campaign. */
struct SimulatedConcCampaign
{
    std::unique_ptr<ConcurrentHarness> harness;
    Cycle cycles = 0;
};

SimulatedConcCampaign
simulateConcCampaignConfig(const ConcCampaignOptions &options,
                           Config cfg)
{
    const LogJobTag tag("conc-campaign/" +
                        std::string(configName(cfg)));
    SimulatedConcCampaign sim;
    ConcParams p;
    p.cfg = cfg;
    p.cores = options.cores;
    p.opsPerCore = options.opsPerCore;
    p.seed = options.workloadSeed;
    p.paced = true;
    sim.harness = std::make_unique<ConcurrentHarness>(
        options.app, p, options.mediaFactor);

    // Transient accept faults pressure the whole simulated run, same
    // as the single-core campaign: the controller's retries must
    // absorb them on every core.
    FaultPlan sim_plan;
    sim_plan.seed = mixSeed(options.seed, configSalt(cfg));
    sim_plan.acceptFaultRate = options.acceptFaultRate;
    sim.harness->system().mem().controller().nvm().setAcceptFaultHook(
        makeAcceptFaultInjector(sim_plan));

    sim.harness->generate();
    sim.cycles = sim.harness->simulateChecked();
    return sim;
}

/**
 * Classify every crash point of one simulated configuration.  Point
 * reconstruction is pure given the recorded events, so the cells
 * dispatch through the scheduler; tallying and failure shrinking
 * walk point order serially, keeping the report byte-identical for
 * any job count.
 */
ConcCampaignConfigResult
classifyConcConfig(const ConcCampaignOptions &options, Config cfg,
                   const SimulatedConcCampaign &sim,
                   const exp::Scheduler &sched)
{
    const ConcurrentHarness &h = *sim.harness;
    ConcCampaignConfigResult result;
    result.config = cfg;
    result.cycles = sim.cycles;
    result.transientRejects =
        h.system().mem().controller().nvm().stats().transientRejects;

    const std::uint64_t plan_seed =
        mixSeed(options.seed, configSalt(cfg));
    const std::uint32_t wpq_slots =
        h.system().mem().controller().nvm().params().bufferSlots;

    const PersistOrderGraph order = buildConcPersistOrder(h);
    const ConcCrashPoints points = selectConcCrashPoints(
        order, h.system().persistEvents(), options.pointsPerConfig);

    result.results = sched.map<ConcCrashPointResult>(
        points.cycles.size(), [&](std::size_t i) {
            const FaultPlan plan = makeFaultPlan(
                mixSeed(plan_seed, 0x6101 + i), wpq_slots);
            ConcCrashPointResult r = classifyConcPoint(
                h, order, points.cycles[i], plan);
            r.remoteOutstanding = points.remote[i];
            return r;
        });

    for (std::size_t i = 0; i < points.cycles.size(); ++i) {
        const ConcCrashPointResult &r = result.results[i];
        ++result.points;
        if (r.remoteOutstanding)
            ++result.remotePoints;
        switch (r.outcome) {
          case CrashOutcome::Recovered:
          case CrashOutcome::TornLogDetected:
            ++result.recovered;
            break;
          case CrashOutcome::Unrecoverable:
            ++result.unrecoverable;
            if (!configIsUnsafe(cfg)) {
                result.failures.push_back(shrinkConcFailure(
                    options, cfg, h, order, points.cycles[i],
                    r.plan));
            }
            break;
        }
    }
    return result;
}

} // namespace

std::string
ConcReproducer::describe() const
{
    std::ostringstream os;
    os << "{seed=" << seed << ", config=" << configName(config)
       << ", crashCycle=" << crashCycle << ", invariant="
       << (invariant.empty() ? "<none>" : invariant)
       << ", faultPlan={" << plan.describe() << "}}";
    return os.str();
}

bool
ConcCampaignReport::safeConfigsClean() const
{
    for (const ConcCampaignConfigResult &c : configs) {
        if (!configIsUnsafe(c.config) && c.unrecoverable > 0)
            return false;
    }
    return true;
}

bool
ConcCampaignReport::ok() const
{
    return quarantined.empty() && safeConfigsClean();
}

std::string
ConcCampaignReport::describe() const
{
    std::ostringstream os;
    os << "conc campaign: app=" << concAppName(options.app)
       << " seed=" << options.seed << " cores=" << options.cores
       << " ops/core=" << options.opsPerCore << " points/config="
       << (options.pointsPerConfig
               ? std::to_string(options.pointsPerConfig)
               : std::string("exhaustive"))
       << " mediaFactor=" << options.mediaFactor
       << " acceptFaultRate=" << options.acceptFaultRate << "\n";
    for (const ConcCampaignConfigResult &c : configs) {
        os << "  " << configName(c.config) << ": " << c.points
           << " points (" << c.remotePoints
           << " remote-outstanding) -> " << c.recovered
           << " recovered, " << c.unrecoverable
           << " unrecoverable  (run=" << c.cycles
           << " cycles, transientRejects=" << c.transientRejects
           << ")\n";
        for (const ConcReproducer &rep : c.failures)
            os << "    FAILURE " << rep.describe() << "\n";
    }
    describeQuarantined(os, quarantined);
    os << (safeConfigsClean()
               ? "  safe configurations clean across cores\n"
               : "  SAFE CONFIGURATION FAILURES above\n");
    if (!quarantined.empty()) {
        os << "  " << quarantined.size()
           << " configuration(s) quarantined -- no verdict for them\n";
    }
    return os.str();
}

std::string
serializeConcCampaignResult(const ConcCampaignConfigResult &result)
{
    return exp::writeRecord(result);
}

std::optional<ConcCampaignConfigResult>
deserializeConcCampaignResult(const std::string &text)
{
    return exp::readRecord<ConcCampaignConfigResult>(text);
}

std::uint64_t
concCampaignSweepId(const ConcCampaignOptions &options)
{
    exp::FingerprintHasher h;
    h.field("conccampaign.schema",
            static_cast<std::uint64_t>(exp::kResultSchemaVersion));
    h.field("conccampaign.app", concAppName(options.app));
    h.field("conccampaign.seed", options.seed);
    h.field("conccampaign.pointsPerConfig",
            static_cast<std::uint64_t>(options.pointsPerConfig));
    h.field("conccampaign.cores",
            static_cast<std::uint64_t>(options.cores));
    h.field("conccampaign.opsPerCore",
            static_cast<std::uint64_t>(options.opsPerCore));
    h.field("conccampaign.workloadSeed", options.workloadSeed);
    h.field("conccampaign.mediaFactor",
            static_cast<std::uint64_t>(options.mediaFactor));
    h.field("conccampaign.acceptFaultRate", options.acceptFaultRate);
    h.field("conccampaign.configs",
            static_cast<std::uint64_t>(options.configs.size()));
    for (Config c : options.configs)
        h.field("conccampaign.config", configName(c));
    return h.value();
}

std::string
concCampaignToJson(const ConcCampaignReport &report)
{
    const ConcCampaignOptions &opt = report.options;
    std::ostringstream os;
    os << "{\n";
    os << "  \"bench\": \"conc_campaign\",\n";
    os << "  \"schema\": " << exp::kResultSchemaVersion << ",\n";
    os << "  \"conc_campaign\": {\"app\": \"" << concAppName(opt.app)
       << "\", \"seed\": " << opt.seed << ", \"points_per_config\": "
       << opt.pointsPerConfig << ", \"cores\": " << opt.cores
       << ", \"ops_per_core\": " << opt.opsPerCore
       << ", \"workload_seed\": " << opt.workloadSeed
       << ", \"media_factor\": " << opt.mediaFactor
       << ", \"accept_fault_rate\": "
       << exp::jsonDouble(opt.acceptFaultRate) << "},\n";
    os << "  \"configs\": [\n";
    for (std::size_t i = 0; i < report.configs.size(); ++i) {
        const ConcCampaignConfigResult &c = report.configs[i];
        os << "    {\n";
        os << "      \"config\": \"" << configName(c.config)
           << "\",\n";
        os << "      \"cycles\": " << c.cycles << ",\n";
        os << "      \"transient_rejects\": " << c.transientRejects
           << ",\n";
        os << "      \"points\": " << c.points << ",\n";
        os << "      \"remote_points\": " << c.remotePoints << ",\n";
        os << "      \"recovered\": " << c.recovered << ",\n";
        os << "      \"unrecoverable\": " << c.unrecoverable << ",\n";
        os << "      \"crash_points\": [";
        for (std::size_t j = 0; j < c.results.size(); ++j) {
            const ConcCrashPointResult &r = c.results[j];
            os << (j ? ",\n        " : "\n        ");
            os << "{\"cycle\": " << r.crashCycle
               << ", \"outcome\": \"" << crashOutcomeName(r.outcome)
               << "\", \"remote_outstanding\": "
               << (r.remoteOutstanding ? "true" : "false")
               << ", \"invariant\": ";
            if (r.invariant.empty())
                os << "null";
            else
                os << '"' << exp::jsonEscape(r.invariant) << '"';
            os << ", \"plan\": ";
            writePlanJson(os, r.plan);
            os << "}";
        }
        os << (c.results.empty() ? "],\n" : "\n      ],\n");
        os << "      \"failures\": [";
        for (std::size_t j = 0; j < c.failures.size(); ++j) {
            const ConcReproducer &rep = c.failures[j];
            os << (j ? ",\n        " : "\n        ");
            os << "{\"seed\": " << rep.seed << ", \"config\": \""
               << configName(rep.config) << "\", \"crash_cycle\": "
               << rep.crashCycle << ", \"invariant\": ";
            if (rep.invariant.empty())
                os << "null";
            else
                os << '"' << exp::jsonEscape(rep.invariant) << '"';
            os << ", \"plan\": ";
            writePlanJson(os, rep.plan);
            os << "}";
        }
        os << (c.failures.empty() ? "]\n" : "\n      ]\n");
        os << "    }"
           << (i + 1 < report.configs.size() ? ",\n" : "\n");
    }
    os << "  ],\n";
    writeQuarantinedJson(os, report.quarantined);
    os << "  \"safe_configs_clean\": "
       << (report.safeConfigsClean() ? "true" : "false") << ",\n";
    os << "  \"ok\": " << (report.ok() ? "true" : "false") << "\n";
    os << "}\n";
    return os.str();
}

ConcCampaignReport
runConcCampaign(const ConcCampaignOptions &options)
{
    ConcCampaignReport report;
    report.options = options;
    const ConfigSweep sweep{"conc-campaign", "conccampaign",
                            concCampaignSweepId(options),
                            options.configs, options.jobs,
                            options.isolation, options.chaosCrashConfig};
    if (sweepIsIsolated(sweep)) {
        ConcCampaignOptions child = options;
        child.jobs = 1;  // The worker *is* the parallel unit.
        runIsolatedConfigs(
            sweep,
            [&child](Config cfg) {
                const SimulatedConcCampaign sim =
                    simulateConcCampaignConfig(child, cfg);
                return serializeConcCampaignResult(classifyConcConfig(
                    child, cfg, sim, exp::Scheduler(1)));
            },
            deserializeConcCampaignResult, report.configs,
            report.quarantined);
        return report;
    }

    const exp::Scheduler sched(options.jobs);

    // Phase 1: every configuration's simulation is independent.
    std::vector<SimulatedConcCampaign> sims =
        sched.map<SimulatedConcCampaign>(
            options.configs.size(), [&](std::size_t i) {
                return simulateConcCampaignConfig(
                    options, options.configs[i]);
            });

    // Phase 2: per-point classification, parallel within each
    // configuration, tallied in deterministic point order.
    for (std::size_t i = 0; i < options.configs.size(); ++i) {
        report.configs.push_back(classifyConcConfig(
            options, options.configs[i], sims[i], sched));
    }
    return report;
}

} // namespace ede
