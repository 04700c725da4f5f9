/**
 * @file
 * Host-side performance profile of one simulation run.
 *
 * Everything in here measures the *simulator*, not the simulated
 * machine: wall-clock nanoseconds per pipeline phase, how many host
 * ticks the cycle loop actually executed, and how many simulated
 * cycles the skip-ahead scheduler jumped over.  None of it is
 * deterministic across hosts, so it lives outside CoreStats (which
 * must stay bit-identical between ticking modes) and is excluded from
 * the result-cache fingerprint.
 *
 * The struct is header-only so the pipeline can fill it without
 * linking against the experiment layer; JSON rendering lives in
 * profile.cc (linked into ede_exp for the ResultSink).
 */

#ifndef EDE_EXP_PROFILE_HH
#define EDE_EXP_PROFILE_HH

#include <chrono>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace ede {

/** Wall-clock timers and skip counters for one OoOCore::run. */
struct HostProfile
{
    /** @name Per-phase wall-clock time, nanoseconds. */
    /// @{
    std::uint64_t memNanos = 0;    ///< MemSystem tick + load polling.
    std::uint64_t fetchNanos = 0;  ///< Dispatch (frontend).
    std::uint64_t issueNanos = 0;  ///< Issue-queue scan.
    std::uint64_t wbNanos = 0;     ///< Exec WB, write buffer, retire.
    /// @}

    /** Whole-run wall-clock time, nanoseconds. */
    std::uint64_t wallNanos = 0;

    /** tickOnce invocations actually executed on the host. */
    std::uint64_t hostTicks = 0;

    /** Skip-ahead jumps taken (0 under reference ticking). */
    std::uint64_t skipJumps = 0;

    /** skipTarget evaluations, including failed ones (target<=now). */
    std::uint64_t skipAttempts = 0;

    /** Wall time spent computing skip targets, nanoseconds. */
    std::uint64_t skipNanos = 0;

    /** Simulated cycles covered by jumps instead of ticks. */
    Cycle cyclesSkipped = 0;

    /** Total simulated cycles of the run. */
    Cycle cyclesSimulated = 0;

    /** True when the run used the reference per-cycle loop. */
    bool referenceTicking = false;

    /** Simulated cycles per host second (0 when unmeasured). */
    double
    cyclesPerHostSecond() const
    {
        if (wallNanos == 0)
            return 0.0;
        return static_cast<double>(cyclesSimulated) * 1e9 /
               static_cast<double>(wallNanos);
    }

    /** Fraction of simulated cycles that were skipped, in [0, 1]. */
    double
    skipRatio() const
    {
        if (cyclesSimulated == 0)
            return 0.0;
        return static_cast<double>(cyclesSkipped) /
               static_cast<double>(cyclesSimulated);
    }

    /** Accumulate another run's profile (sweep totals). */
    void
    merge(const HostProfile &o)
    {
        memNanos += o.memNanos;
        fetchNanos += o.fetchNanos;
        issueNanos += o.issueNanos;
        wbNanos += o.wbNanos;
        wallNanos += o.wallNanos;
        hostTicks += o.hostTicks;
        skipJumps += o.skipJumps;
        skipAttempts += o.skipAttempts;
        skipNanos += o.skipNanos;
        cyclesSkipped += o.cyclesSkipped;
        cyclesSimulated += o.cyclesSimulated;
        referenceTicking = referenceTicking || o.referenceTicking;
    }
};

/**
 * Scoped phase timer: adds the elapsed nanoseconds to @p slot on
 * destruction.  Constructed with a null profile it does nothing, so
 * the instrumented code pays one branch when profiling is off.
 */
class PhaseTimer
{
  public:
    PhaseTimer(HostProfile *profile, std::uint64_t HostProfile::*slot)
        : profile_(profile), slot_(slot)
    {
        if (profile_)
            start_ = std::chrono::steady_clock::now();
    }

    ~PhaseTimer()
    {
        if (profile_) {
            profile_->*slot_ += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count());
        }
    }

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    HostProfile *profile_;
    std::uint64_t HostProfile::*slot_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Back-to-back phase timer: each lap() charges the time since the
 * previous lap (or construction) to one slot.  Consecutive phases
 * share their boundary, so n phases cost n + 1 clock reads instead of
 * PhaseTimer's 2n.  A null profile makes every call a no-op.
 */
class PhaseLaps
{
  public:
    explicit PhaseLaps(HostProfile *profile) : profile_(profile)
    {
        if (profile_)
            last_ = std::chrono::steady_clock::now();
    }

    void
    lap(std::uint64_t HostProfile::*slot)
    {
        if (!profile_)
            return;
        const auto t = std::chrono::steady_clock::now();
        profile_->*slot += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - last_)
                .count());
        last_ = t;
    }

  private:
    HostProfile *profile_;
    std::chrono::steady_clock::time_point last_;
};

/** One-line human-readable summary ("12.3 Mcyc/s, 87% skipped"). */
std::string describeProfile(const HostProfile &profile);

/** JSON object fragment for the ResultSink (no trailing newline). */
std::string profileToJson(const HostProfile &profile,
                          const std::string &indent);

} // namespace ede

#endif // EDE_EXP_PROFILE_HH
