/**
 * @file
 * The per-configuration sweep loop shared by the four crash tools.
 *
 * The fault campaigns and the model checkers, single-core and N-core,
 * sweep the Table III configurations the same way when isolated: one
 * forked worker per configuration runs that configuration serially
 * and ships its exact wire serialization back; the parent validates
 * the payload, journals it, and quarantines a configuration whose
 * worker keeps failing instead of losing the sweep.  With a journal
 * and `resume`, configurations a compatible run already journaled
 * are replayed: an `ok` record whose payload no longer validates is
 * re-run, and a quarantine record is kept as a durable verdict.
 *
 * This is that loop, once.  Each tool supplies its identity (sweep
 * id and fingerprint prefix), the per-config work that runs in the
 * worker, and the parser that validates a payload.
 */

#ifndef EDE_FAULT_CONFIG_SWEEP_HH
#define EDE_FAULT_CONFIG_SWEEP_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/worker.hh"
#include "sim/config.hh"

namespace ede {

/** A configuration whose isolated worker never produced a result. */
struct QuarantinedConfig
{
    Config config = Config::B;
    exp::JobFailure failure;
};

/** Per-configuration seed salt shared by the crash tools. */
constexpr std::uint64_t
configSalt(Config cfg)
{
    return static_cast<std::uint64_t>(cfg) + 1;
}

/** One crash tool's sweep over configurations, as the loop sees it. */
struct ConfigSweep
{
    std::string_view label;        ///< Diagnostics ("conc-check").
    std::string_view fieldPrefix;  ///< Fingerprint fields ("concheck").
    std::uint64_t sweepId = 0;     ///< The tool's journal identity.
    const std::vector<Config> &configs;
    unsigned jobs = 1;             ///< Workers in flight.
    const exp::IsolationOptions &isolation;

    /** Test/chaos hook: this configuration's worker calls abort(). */
    const std::string &chaosCrashConfig;
};

/** The worker and journal identity of one (sweep, config) pair. */
std::uint64_t configFingerprint(std::string_view fieldPrefix,
                                std::uint64_t sweepId, Config cfg);

/**
 * True when @p sweep runs isolated.  A journal without isolation is
 * a usage error and fatal.
 */
bool sweepIsIsolated(const ConfigSweep &sweep);

/**
 * The type-erased loop behind runIsolatedConfigs.  @p work runs in
 * the forked worker and returns the serialized result; @p accept
 * validates a (fresh or journaled) payload for config index i and
 * keeps it, returning false when it does not validate.  Returns the
 * quarantined configurations in config order.
 */
std::vector<QuarantinedConfig>
runConfigWorkers(
    const ConfigSweep &sweep,
    const std::function<std::string(Config)> &work,
    const std::function<bool(std::size_t, const std::string &)> &accept);

/**
 * Run @p sweep isolated: one worker per configuration running
 * @p work, payloads validated by @p parse (a payload for the wrong
 * configuration does not validate).  Validated results land in
 * @p results and failed configurations in @p quarantined, both in
 * config order.
 */
template <typename Result, typename Parse>
void
runIsolatedConfigs(const ConfigSweep &sweep,
                   const std::function<std::string(Config)> &work,
                   Parse parse, std::vector<Result> &results,
                   std::vector<QuarantinedConfig> &quarantined)
{
    std::vector<std::optional<Result>> slots(sweep.configs.size());
    quarantined = runConfigWorkers(
        sweep, work, [&](std::size_t i, const std::string &payload) {
            std::optional<Result> r = parse(payload);
            if (!r || r->config != sweep.configs[i])
                return false;
            slots[i] = std::move(r);
            return true;
        });
    for (std::optional<Result> &slot : slots) {
        if (slot)
            results.push_back(std::move(*slot));
    }
}

/** @name Quarantine rendering shared by the tools' reports. */
/// @{

/** One `  CFG: QUARANTINED (failure)` line per entry. */
void describeQuarantined(std::ostream &os,
                         const std::vector<QuarantinedConfig> &q);

/** The `"quarantined": [...],` member of a crash-tool artifact. */
void writeQuarantinedJson(std::ostream &os,
                          const std::vector<QuarantinedConfig> &q);
/// @}

} // namespace ede

#endif // EDE_FAULT_CONFIG_SWEEP_HH
