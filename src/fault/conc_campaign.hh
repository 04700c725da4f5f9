/**
 * @file
 * Multi-core crash-injection campaign.
 *
 * The single-core campaign (fault/campaign.hh) samples crash cycles
 * of one hart's run and pushes each reconstructed image through
 * undo-log recovery.  This campaign runs the concurrent kernels on N
 * cores and aims its samples at the genuinely multi-core failure
 * window: crash cycles where core 0 is mid-operation while a *remote*
 * core (1..N-1) still has accepted-but-undrained persists -- writes
 * the NVM buffer acknowledged but whose media writes are outstanding.
 * Those are the states a fence bug on one core corrupts through
 * another core's durable view.  Crash-point selection stratifies
 * toward that window (remote-outstanding points get ~3/4 of the
 * budget); each image is reconstructed by the shared frontier-torn
 * crash-image builder against the *joint* persist order
 * (buildJointPersistOrder) and judged by the kernels' recovery
 * oracles (checkConcInvariants).
 *
 * Isolation, journaling and quarantine go through the per-config
 * sweep loop all four crash tools share (config_sweep.hh), so a
 * SIGKILLed multi-core sweep resumes byte-identically.
 */

#ifndef EDE_FAULT_CONC_CAMPAIGN_HH
#define EDE_FAULT_CONC_CAMPAIGN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/conc_harness.hh"
#include "fault/campaign.hh"

namespace ede {

/** One sampled multi-core crash point's verdict. */
struct ConcCrashPointResult
{
    Cycle crashCycle = 0;
    CrashOutcome outcome = CrashOutcome::Recovered;
    bool remoteOutstanding = false; ///< Remote media writes pending.
    std::string invariant;          ///< Violated invariant ("" = none).
    FaultPlan plan;
};

/** A failing multi-core crash point, replayable from scratch. */
struct ConcReproducer
{
    std::uint64_t seed = 0;
    Config config = Config::B;
    Cycle crashCycle = 0;
    FaultPlan plan;
    std::string invariant;

    /** One-line human-readable rendering. */
    std::string describe() const;
};

/** Tallies and failures for one configuration. */
struct ConcCampaignConfigResult
{
    Config config = Config::B;
    Cycle cycles = 0;
    std::uint64_t transientRejects = 0;
    std::uint64_t points = 0;
    std::uint64_t remotePoints = 0;  ///< Remote-outstanding samples.
    std::uint64_t recovered = 0;
    std::uint64_t unrecoverable = 0;
    std::vector<ConcCrashPointResult> results;
    std::vector<ConcReproducer> failures;  ///< Safe configs only.
};

/**
 * The worker and journal payload of one config (exp/wire.hh).
 * Invariant names never contain spaces; "-" encodes "none".
 */
template <FieldsOf<ConcCampaignConfigResult> R, class Io>
void
visitFields(R &r, Io &io)
{
    namespace wire = exp::wire;
    io.line("ede-conc-campaign-v1");
    io.line("config", wire::config(r.config));
    io.line("cycles", r.cycles);
    io.line("transientRejects", r.transientRejects);
    io.line("tallies", r.points, r.remotePoints, r.recovered,
            r.unrecoverable);
    io.seq("results", r.results, [&](auto &p) {
        io.line("p", p.crashCycle,
                wire::enumeration(p.outcome, CrashOutcome::Unrecoverable),
                wire::flag(p.remoteOutstanding), wire::word(p.invariant),
                p.plan);
    });
    io.seq("failures", r.failures, [&](auto &f) {
        io.line("f", f.seed, wire::config(f.config), f.crashCycle,
                wire::word(f.invariant), f.plan);
    });
}

/** Multi-core campaign parameters. */
struct ConcCampaignOptions
{
    ConcApp app = ConcApp::MsQueue;
    std::uint64_t seed = 1;

    /** Crash points sampled per configuration (0 = exhaustive). */
    std::size_t pointsPerConfig = 200;

    unsigned cores = 2;
    int opsPerCore = 8;
    std::uint64_t workloadSeed = 42;

    /** NVM media write latency multiplier (see ConcCheckOptions). */
    std::uint32_t mediaFactor = 8;

    /** Transient accept-fault rate pressured during simulation. */
    double acceptFaultRate = 0.02;

    std::vector<Config> configs{kAllConfigs.begin(),
                                kAllConfigs.end()};
    unsigned jobs = 1;

    exp::IsolationOptions isolation;  ///< As in CampaignOptions.
    std::string chaosCrashConfig;     ///< Worker abort() hook (tests/CI).
};

/** The whole multi-core campaign's outcome. */
struct ConcCampaignReport
{
    ConcCampaignOptions options;
    std::vector<ConcCampaignConfigResult> configs;
    std::vector<QuarantinedConfig> quarantined;

    /** No safe configuration produced an unrecoverable image. */
    bool safeConfigsClean() const;

    /** safeConfigsClean and nothing quarantined. */
    bool ok() const;

    /** Multi-line human-readable summary with failures. */
    std::string describe() const;
};

/** Run the multi-core campaign across configurations. */
ConcCampaignReport runConcCampaign(const ConcCampaignOptions &options);

/** @name Worker wire format / journal payloads. */
/// @{
std::string
serializeConcCampaignResult(const ConcCampaignConfigResult &result);

std::optional<ConcCampaignConfigResult>
deserializeConcCampaignResult(const std::string &text);

std::uint64_t concCampaignSweepId(const ConcCampaignOptions &options);
/// @}

/** Deterministic JSON artifact (BENCH_conc_campaign.json). */
std::string concCampaignToJson(const ConcCampaignReport &report);

} // namespace ede

#endif // EDE_FAULT_CONC_CAMPAIGN_HH
