/**
 * @file
 * Cross-core crash-consistency model checker.
 *
 * The single-core checker (fault/model_check/checker.hh) enumerates
 * durable sets of one hart's persist order and judges each state
 * through undo-log recovery.  This is its N-core counterpart: one
 * *joint* partial order spans every core's persist events (per-core
 * chains joined by cross-core WAIT edges and shared-L2 dirty-handoff
 * same-line edges, buildJointPersistOrder), cross-core durable sets are
 * the ideals of that joint lattice, and each materialized crash image
 * is judged by the concurrent kernels' recovery oracles
 * (checkConcInvariants) -- there is no undo log; the structures are
 * their own recovery story.
 *
 * Sensitivity gate: seedMissingCrossCoreWaitBug retargets one
 * cross-core WAIT to the waiting core's own key, deleting exactly the
 * WAIT edge that orders a consumer's dependent persist behind the
 * producer core's persists.  The checker must then find a durable
 * set with the consumer's write durable but the producer's missing
 * (e.g. a dequeued node vanishing from a recovered MS-queue) while
 * the intact program verifies clean.
 *
 * Checks run in the slow-media regime by default (mediaFactor scales
 * the NVM media write latency): accepted-but-undrained remote
 * persists then stay outstanding across scheduling rounds, which is
 * precisely the window where cross-core ordering bugs surface.
 */

#ifndef EDE_FAULT_CONC_CHECK_HH
#define EDE_FAULT_CONC_CHECK_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/conc_harness.hh"
#include "fault/config_sweep.hh"
#include "fault/fault_plan.hh"
#include "fault/model_check/persist_order.hh"

namespace ede {

/** Joint persist order of a completed, audited concurrent run. */
PersistOrderGraph buildConcPersistOrder(const ConcurrentHarness &h);

/** Where (if anywhere) the seeded cross-core bug was planted. */
struct SeededConcBug
{
    std::size_t opIdx = kNoEvent; ///< Trace index; kNoEvent = none.
    unsigned core = 0;            ///< Core whose WAIT was retargeted.
};

/**
 * Seeded-bug mutator: the first WAIT_KEY naming a *remote* core's
 * key (scanning cores 1..N-1 first, then core 0) is retargeted to
 * the waiting core's own key.  The machine still executes a valid
 * wait -- it just no longer drains the remote producer, so the
 * cross-core ordering edge disappears.  Must run after generate()
 * and before simulate().  Fence-based configurations (B, SU, U)
 * carry no WAIT: the bug is reported unplanted.
 */
SeededConcBug seedMissingCrossCoreWaitBug(std::vector<Trace> &traces);

/** One shrunk violating cross-core durable state. */
struct ConcCounterexample
{
    std::string invariant;            ///< checkConcInvariants name.
    std::vector<std::size_t> durable; ///< Joint-lattice event indices.
    std::size_t tornIdx = kNoEvent;   ///< Torn event, if any.
    std::uint64_t tornMask = 0;       ///< Surviving-chunk mask.
    std::uint64_t imageHash = 0;      ///< Canonical content hash.

    /** One-line human-readable rendering. */
    std::string describe() const;
};

/** Verdict and tallies for one configuration. */
struct ConcCheckConfigResult
{
    Config config = Config::B;
    Cycle cycles = 0;                 ///< Simulated run length.
    std::size_t events = 0;           ///< Persist events recorded.
    std::size_t freeEvents = 0;       ///< Enumerable (all of them).
    PersistOrderStats orderStats;     ///< Incl. crossWait/crossLine.
    std::uint64_t states = 0;
    std::uint64_t rejectedBudget = 0;
    std::uint64_t tornVariants = 0;
    std::uint64_t uniqueImages = 0;
    std::uint64_t recoveredClean = 0;
    std::uint64_t violations = 0;
    bool truncated = false;
    std::size_t seededBugOpIdx = kNoEvent;
    unsigned seededBugCore = 0;
    std::vector<ConcCounterexample> counterexamples;
};

/** The worker and journal payload of one config (exp/wire.hh). */
template <FieldsOf<ConcCheckConfigResult> R, class Io>
void
visitFields(R &r, Io &io)
{
    namespace wire = exp::wire;
    io.line("ede-concheck-config-v1");
    io.line("config", wire::config(r.config));
    io.line("cycles", r.cycles);
    io.line("events", r.events, r.freeEvents);
    io.line("edges", r.orderStats, r.orderStats.crossWait,
            r.orderStats.crossLine);
    io.line("tallies", r.states, r.rejectedBudget, r.tornVariants,
            r.uniqueImages, r.recoveredClean, r.violations,
            wire::flag(r.truncated), r.seededBugOpIdx, r.seededBugCore);
    io.seq("counterexamples", r.counterexamples, [&](auto &c) {
        io.line("c", wire::word(c.invariant), c.tornIdx, c.tornMask,
                c.imageHash, wire::counted(c.durable));
    });
}

/** Cross-core model-check parameters. */
struct ConcCheckOptions
{
    ConcApp app = ConcApp::MsQueue;
    std::uint64_t seed = 1;

    unsigned cores = 2;

    /**
     * Deliberately tiny: the joint lattice is exponential in the
     * total persist events of *all* cores.  Four ops per core on two
     * cores already exercises every cross-core handoff path.
     */
    int opsPerCore = 4;
    std::uint64_t workloadSeed = 42;

    /**
     * NVM media write latency multiplier (>= 1).  The default keeps
     * remote persists buffered across several paced rounds so
     * accept-order prefixes routinely cut through
     * accepted-but-undrained remote writes.
     */
    std::uint32_t mediaFactor = 8;

    std::vector<Config> configs{Config::B, Config::IQ, Config::WB};

    std::uint32_t drainLines = FaultPlan::kDrainAll;
    std::uint64_t maxStates = 20000;
    std::uint64_t budgetMs = 0;
    bool torn = true;
    bool seedBug = false;  ///< Apply seedMissingCrossCoreWaitBug.
    std::size_t maxCounterexamples = 4;
    unsigned jobs = 1;

    exp::IsolationOptions isolation;  ///< As in CampaignOptions.
    std::string chaosCrashConfig;     ///< Worker abort() hook (tests/CI).
};

/** The whole cross-core model check's outcome. */
struct ConcCheckReport
{
    ConcCheckOptions options;
    std::vector<ConcCheckConfigResult> configs;
    std::vector<QuarantinedConfig> quarantined;

    /**
     * Acceptance: nothing quarantined; intact configurations verify
     * clean; configurations where the seeded WAIT bug was actually
     * planted (EDE configurations with a cross-core WAIT) report at
     * least one violation.
     */
    bool ok() const;

    /** Multi-line human-readable summary with counterexamples. */
    std::string describe() const;
};

/** Run the cross-core model check across configurations. */
ConcCheckReport runConcCheck(const ConcCheckOptions &options);

/** @name Worker wire format / journal payloads. */
/// @{
std::string
serializeConcCheckResult(const ConcCheckConfigResult &result);

std::optional<ConcCheckConfigResult>
deserializeConcCheckResult(const std::string &text);

std::uint64_t concCheckSweepId(const ConcCheckOptions &options);
/// @}

/** Deterministic JSON artifact (BENCH_conc_check.json). */
std::string concCheckToJson(const ConcCheckReport &report);

} // namespace ede

#endif // EDE_FAULT_CONC_CHECK_HH
