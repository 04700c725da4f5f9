#include "fault/conc_check.hh"

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/logging.hh"
#include "exp/fingerprint.hh"
#include "exp/json.hh"
#include "exp/scheduler.hh"
#include "fault/model_check/checker.hh"
#include "fault/model_check/enumerate.hh"

namespace ede {

PersistOrderGraph
buildConcPersistOrder(const ConcurrentHarness &h)
{
    return buildJointPersistOrder(
        h.traces(), h.system().persistEvents(),
        h.system().mediaWriteEvents(), h.completionMatrix(),
        /*setupCompleteCycle=*/0, h.mediaLineBytes());
}

SeededConcBug
seedMissingCrossCoreWaitBug(std::vector<Trace> &traces)
{
    SeededConcBug bug;
    const auto cores = static_cast<unsigned>(traces.size());
    // Non-zero cores first: the campaign's crash framing holds core 0
    // mid-transaction, so a consumer-side bug on another core is the
    // more interesting plant when both exist.
    for (unsigned step = 0; step < cores; ++step) {
        const unsigned c = (1 + step) % cores;
        Trace &trace = traces[c];
        for (std::size_t t = 0; t < trace.size(); ++t) {
            StaticInst &si = trace.at(t).si;
            if (si.op != Op::WaitKey)
                continue;
            if (!edkIsReal(si.edkUse) ||
                si.edkUse == concCoreKey(c)) {
                continue;  // Local drain: no cross-core edge here.
            }
            si.edkUse = concCoreKey(c);
            bug.opIdx = t;
            bug.core = c;
            return bug;
        }
    }
    return bug;
}

std::string
ConcCounterexample::describe() const
{
    std::ostringstream os;
    os << "{invariant=" << invariant << ", durable=[";
    for (std::size_t i = 0; i < durable.size(); ++i)
        os << (i ? "," : "") << durable[i];
    os << "]";
    if (tornIdx != kNoEvent) {
        os << ", torn=" << tornIdx << " mask=0x" << std::hex
           << tornMask << std::dec;
    }
    os << ", imageHash=0x" << std::hex << imageHash << std::dec
       << "}";
    return os.str();
}

namespace {

/** One simulated configuration's artifacts for the check phase. */
struct SimulatedConc
{
    std::unique_ptr<ConcurrentHarness> harness;
    Cycle cycles = 0;
    SeededConcBug bug;
};

SimulatedConc
simulateConcConfig(const ConcCheckOptions &options, Config cfg)
{
    const LogJobTag tag("conc-check/" +
                        std::string(configName(cfg)));
    SimulatedConc sim;
    ConcParams p;
    p.cfg = cfg;
    p.cores = options.cores;
    p.opsPerCore = options.opsPerCore;
    p.seed = options.workloadSeed;
    p.paced = true;  // The checkers require model-order execution.
    sim.harness = std::make_unique<ConcurrentHarness>(
        options.app, p, options.mediaFactor);
    sim.harness->generate();
    if (options.seedBug)
        sim.bug = seedMissingCrossCoreWaitBug(sim.harness->traces());
    sim.cycles = sim.harness->simulateChecked();
    return sim;
}

/**
 * Enumerate and judge every cross-core durable state of one
 * simulated configuration (serial within a configuration: the dedup
 * cache is shared across states).
 */
ConcCheckConfigResult
checkConcConfig(const ConcCheckOptions &options, Config cfg,
                const SimulatedConc &sim)
{
    const ConcurrentHarness &h = *sim.harness;
    ConcCheckConfigResult result;
    result.config = cfg;
    result.cycles = sim.cycles;
    result.seededBugOpIdx = sim.bug.opIdx;
    result.seededBugCore = sim.bug.core;

    const PersistOrderGraph graph = buildConcPersistOrder(h);
    result.events = graph.nodes.size();
    result.freeEvents = graph.nodes.size() - graph.preSetupCount;
    result.orderStats = graph.stats;

    const ConcModel &model = h.model();
    DurableSetChecker checker(
        h.system().persistEvents(), h.baselineNvm(), graph,
        [&model](MemoryImage &img) {
            DurableSetChecker::StateVerdict v;
            v.invariant = checkConcInvariants(model, img);
            v.appOk = v.invariant == nullptr;
            return v;
        });
    const std::uint64_t torn_seed =
        mixSeed(options.seed, 0x70c0 ^ configSalt(cfg));

    auto handleState = [&](const std::vector<std::size_t> &set,
                           std::size_t tornIdx,
                           std::uint64_t tornMask) {
        const DurableSetChecker::StateVerdict v =
            checker.check(set, tornIdx, tornMask);
        if (v.duplicate)
            return;
        if (!v.invariant) {
            ++result.recoveredClean;
            return;
        }
        ++result.violations;
        if (result.counterexamples.size() >=
            options.maxCounterexamples) {
            return;
        }
        ConcCounterexample cex;
        cex.invariant = v.invariant;
        std::size_t shrunkTorn = tornIdx;
        std::uint64_t shrunkMask = tornMask;
        cex.durable = checker.shrink(set, shrunkTorn, shrunkMask,
                                     options.drainLines,
                                     cex.invariant);
        cex.tornIdx = shrunkTorn;
        cex.tornMask = shrunkTorn == kNoEvent ? 0 : shrunkMask;
        cex.imageHash =
            checker
                .materialize(cex.durable, cex.tornIdx, cex.tornMask)
                .canonicalContentHash();
        result.counterexamples.push_back(std::move(cex));
    };

    EnumerationLimits limits;
    limits.drainLines = options.drainLines;
    limits.maxStates = options.maxStates;
    limits.budgetMs = options.budgetMs;

    const EnumerationStats stats = forEachDurableSet(
        graph, limits, [&](const DurableSetView &view) {
            handleState(view.postSetup, kNoEvent, 0);
            if (options.torn) {
                for (std::size_t cand :
                     checker.tornCandidates(view.postSetup,
                                            /*cap=*/4)) {
                    const std::size_t chunks =
                        (graph.nodes[cand].size + 7) / 8;
                    for (TearKind kind :
                         {TearKind::Prefix, TearKind::Suffix,
                          TearKind::Interleaved}) {
                        FaultPlan tp;
                        tp.seed = mixSeed(
                            torn_seed,
                            cand * 8 +
                                static_cast<std::uint64_t>(kind));
                        tp.tear = kind;
                        const std::uint64_t mask =
                            tornChunkMask(tp, chunks);
                        ++result.tornVariants;
                        handleState(view.postSetup, cand, mask);
                    }
                }
            }
            return true;
        });

    result.states = stats.states;
    result.rejectedBudget = stats.rejectedBudget;
    result.truncated = stats.truncated;
    result.uniqueImages = checker.uniqueImages();
    return result;
}

} // namespace

bool
ConcCheckReport::ok() const
{
    if (!quarantined.empty())
        return false;
    for (const ConcCheckConfigResult &c : configs) {
        const bool planted =
            options.seedBug && c.seededBugOpIdx != kNoEvent;
        if (planted) {
            // A checker blind to its own seeded WAIT bug proves
            // nothing; non-detection fails the run.
            if (c.violations == 0)
                return false;
        } else if (c.violations != 0) {
            return false;
        }
    }
    return true;
}

std::string
ConcCheckReport::describe() const
{
    std::ostringstream os;
    os << "conc check: app=" << concAppName(options.app) << " seed="
       << options.seed << " cores=" << options.cores << " ops/core="
       << options.opsPerCore << " mediaFactor="
       << options.mediaFactor << " drainLines=";
    if (options.drainLines == FaultPlan::kDrainAll)
        os << "all";
    else
        os << options.drainLines;
    os << " maxStates=" << options.maxStates
       << (options.seedBug ? " SEEDED-BUG" : "") << "\n";
    for (const ConcCheckConfigResult &c : configs) {
        os << "  " << configName(c.config) << ": " << c.states
           << " durable sets";
        if (c.truncated)
            os << " (TRUNCATED)";
        os << " + " << c.tornVariants << " torn -> "
           << c.uniqueImages << " unique images, "
           << c.recoveredClean << " clean, " << c.violations
           << " violating  (" << c.freeEvents << " free events, "
           << c.orderStats.total() << " edges, "
           << c.orderStats.crossWait << " cross-wait, "
           << c.orderStats.crossLine << " cross-line)\n";
        if (options.seedBug) {
            if (c.seededBugOpIdx != kNoEvent) {
                os << "    seeded cross-core WAIT bug at core "
                   << c.seededBugCore << " op[" << c.seededBugOpIdx
                   << "]: "
                   << (c.violations ? "DETECTED" : "NOT DETECTED")
                   << "\n";
            } else {
                os << "    seeded bug not plantable (no cross-core "
                      "WAIT in this configuration)\n";
            }
        }
        for (const ConcCounterexample &cex : c.counterexamples)
            os << "    COUNTEREXAMPLE " << cex.describe() << "\n";
    }
    describeQuarantined(os, quarantined);
    os << (ok() ? "  conc check ok\n" : "  CONC CHECK FAILED\n");
    return os.str();
}

std::string
serializeConcCheckResult(const ConcCheckConfigResult &result)
{
    return exp::writeRecord(result);
}

std::optional<ConcCheckConfigResult>
deserializeConcCheckResult(const std::string &text)
{
    return exp::readRecord<ConcCheckConfigResult>(text);
}

std::uint64_t
concCheckSweepId(const ConcCheckOptions &options)
{
    exp::FingerprintHasher h;
    h.field("concheck.schema",
            static_cast<std::uint64_t>(exp::kResultSchemaVersion));
    h.field("concheck.app", concAppName(options.app));
    h.field("concheck.seed", options.seed);
    h.field("concheck.cores",
            static_cast<std::uint64_t>(options.cores));
    h.field("concheck.opsPerCore",
            static_cast<std::uint64_t>(options.opsPerCore));
    h.field("concheck.workloadSeed", options.workloadSeed);
    h.field("concheck.mediaFactor",
            static_cast<std::uint64_t>(options.mediaFactor));
    h.field("concheck.drainLines",
            static_cast<std::uint64_t>(options.drainLines));
    h.field("concheck.maxStates", options.maxStates);
    h.field("concheck.budgetMs", options.budgetMs);
    h.field("concheck.torn", options.torn);
    h.field("concheck.seedBug", options.seedBug);
    h.field("concheck.maxCounterexamples",
            static_cast<std::uint64_t>(options.maxCounterexamples));
    h.field("concheck.configs",
            static_cast<std::uint64_t>(options.configs.size()));
    for (Config c : options.configs)
        h.field("concheck.config", configName(c));
    return h.value();
}

std::string
concCheckToJson(const ConcCheckReport &report)
{
    const ConcCheckOptions &opt = report.options;
    std::ostringstream os;
    os << "{\n";
    os << "  \"bench\": \"conc_check\",\n";
    os << "  \"schema\": " << exp::kResultSchemaVersion << ",\n";
    os << "  \"conc_check\": {\"app\": \"" << concAppName(opt.app)
       << "\", \"seed\": " << opt.seed << ", \"cores\": "
       << opt.cores << ", \"ops_per_core\": " << opt.opsPerCore
       << ", \"workload_seed\": " << opt.workloadSeed
       << ", \"media_factor\": " << opt.mediaFactor
       << ", \"drain_lines\": " << opt.drainLines
       << ", \"max_states\": " << opt.maxStates
       << ", \"budget_ms\": " << opt.budgetMs << ", \"torn\": "
       << (opt.torn ? "true" : "false") << ", \"seed_bug\": "
       << (opt.seedBug ? "true" : "false") << "},\n";
    os << "  \"configs\": [\n";
    for (std::size_t i = 0; i < report.configs.size(); ++i) {
        const ConcCheckConfigResult &c = report.configs[i];
        const PersistOrderStats &s = c.orderStats;
        os << "    {\n";
        os << "      \"config\": \"" << configName(c.config)
           << "\",\n";
        os << "      \"cycles\": " << c.cycles << ",\n";
        os << "      \"events\": " << c.events << ",\n";
        os << "      \"free_events\": " << c.freeEvents << ",\n";
        os << "      \"edges\": {\"same_line\": " << s.sameLine
           << ", \"edk\": " << s.edk << ", \"key_chain\": "
           << s.keyChain << ", \"fence\": " << s.fence
           << ", \"line_gate\": " << s.lineGate
           << ", \"nonmonotone\": " << s.nonmonotone
           << ", \"cross_wait\": " << s.crossWait
           << ", \"cross_line\": " << s.crossLine << "},\n";
        os << "      \"states\": " << c.states << ",\n";
        os << "      \"rejected_budget\": " << c.rejectedBudget
           << ",\n";
        os << "      \"torn_variants\": " << c.tornVariants << ",\n";
        os << "      \"unique_images\": " << c.uniqueImages << ",\n";
        os << "      \"recovered_clean\": " << c.recoveredClean
           << ",\n";
        os << "      \"violations\": " << c.violations << ",\n";
        os << "      \"truncated\": "
           << (c.truncated ? "true" : "false") << ",\n";
        os << "      \"coverage\": \""
           << (c.truncated ? "truncated" : "exact") << "\",\n";
        if (c.seededBugOpIdx != kNoEvent) {
            os << "      \"seeded_bug_core\": " << c.seededBugCore
               << ",\n";
            os << "      \"seeded_bug_op_idx\": " << c.seededBugOpIdx
               << ",\n";
        }
        os << "      \"counterexamples\": [";
        for (std::size_t j = 0; j < c.counterexamples.size(); ++j) {
            const ConcCounterexample &cex = c.counterexamples[j];
            os << (j ? ",\n        " : "\n        ");
            os << "{\"invariant\": \"" << exp::jsonEscape(cex.invariant)
               << "\", \"durable\": [";
            for (std::size_t k = 0; k < cex.durable.size(); ++k)
                os << (k ? ", " : "") << cex.durable[k];
            os << "], \"torn_idx\": ";
            if (cex.tornIdx == kNoEvent)
                os << "null";
            else
                os << cex.tornIdx;
            os << ", \"torn_mask\": " << cex.tornMask
               << ", \"image_hash\": " << cex.imageHash << "}";
        }
        os << (c.counterexamples.empty() ? "]\n" : "\n      ]\n");
        os << "    }"
           << (i + 1 < report.configs.size() ? ",\n" : "\n");
    }
    os << "  ],\n";
    writeQuarantinedJson(os, report.quarantined);
    os << "  \"ok\": " << (report.ok() ? "true" : "false") << "\n";
    os << "}\n";
    return os.str();
}

ConcCheckReport
runConcCheck(const ConcCheckOptions &options)
{
    ConcCheckReport report;
    report.options = options;
    const ConfigSweep sweep{"conc-check", "concheck",
                            concCheckSweepId(options), options.configs,
                            options.jobs, options.isolation,
                            options.chaosCrashConfig};
    if (sweepIsIsolated(sweep)) {
        runIsolatedConfigs(
            sweep,
            [&options](Config cfg) {
                return serializeConcCheckResult(checkConcConfig(
                    options, cfg, simulateConcConfig(options, cfg)));
            },
            deserializeConcCheckResult, report.configs,
            report.quarantined);
        return report;
    }

    const exp::Scheduler sched(options.jobs);
    report.configs = sched.map<ConcCheckConfigResult>(
        options.configs.size(), [&](std::size_t i) {
            const Config cfg = options.configs[i];
            return checkConcConfig(options, cfg,
                                   simulateConcConfig(options, cfg));
        });
    return report;
}

} // namespace ede
