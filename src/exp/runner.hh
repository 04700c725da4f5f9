/**
 * @file
 * The experiment runner: plan in, keyed results out.
 *
 * Ties the layer together: each plan point is fingerprinted, looked
 * up in the result cache (when one is configured), and simulated by
 * a fresh WorkloadHarness on a scheduler worker only on a miss.
 * Results come back in plan order, so `jobs=N` is bit-identical to
 * `jobs=1` and a warm cache is bit-identical to a cold one.
 *
 * The unit of work is a *machine-run group*.  Traffic points whose
 * traffic::machinePlan fingerprints alike -- the same machine under
 * different offered loads, warmup/window settings or overload
 * policies -- form one group led by its lowest plan index; every
 * other point, and a traffic point whose plan fails validation, is
 * a group of one.  Lookups stay per cell, and a
 * group's misses are simulated by a single machine run that each
 * miss replays (Session::runEach); every cell is still cached and
 * journaled under its own fingerprint.  Cells after the first miss
 * are marked sharedRun and carry an all-zero profile.
 *
 * With IsolationMode::Process each group's misses are executed in
 * one forked worker (exp/worker.hh) bounded by a wall-clock timeout
 * and an address-space cap, which returns their cells in one
 * payload; a crash, hang, OOM or structured SimError in the group
 * is classified, retried per the transient-failure policy, and
 * finally *quarantines* every miss of the group -- the sweep still
 * completes, the surviving cells are bit-identical to a non-isolated
 * run, and the quarantined cells are reported in
 * ExperimentResults::failures().
 * A sweep journal (exp/journal.hh) makes the run resumable: every
 * durable cell (fresh, cached or quarantined) is appended as it
 * lands, and `resume` replays compatible records so a SIGKILLed
 * campaign picks up from the last durable cell.
 */

#ifndef EDE_EXP_RUNNER_HH
#define EDE_EXP_RUNNER_HH

#include <string>

#include "exp/plan.hh"
#include "exp/result.hh"
#include "exp/worker.hh"

namespace ede {
namespace exp {

/** Where a plan point's simulation executes. */
enum class IsolationMode
{
    None,    ///< In-process, on a scheduler thread (the old path).
    Process, ///< Forked worker per cell; failures are classified.
};

/** How to execute a plan. */
struct RunnerOptions
{
    /** Parallel jobs; 0 = hardware concurrency, 1 = serial. */
    unsigned jobs = 0;

    /** Result-cache directory; empty disables the disk cache. */
    std::string cacheDir;

    /** Print the one-line `[exp] ...` run summary on completion. */
    bool printSummary = true;

    /** Execution backend for cache misses. */
    IsolationMode isolation = IsolationMode::None;

    /** Per-job resource bounds (Process isolation only). */
    WorkerLimits limits;

    /** Transient-failure retry/backoff policy (Process only). */
    RetryPolicy retry;

    /**
     * Sweep-journal path; empty disables journaling.  Requires
     * Process isolation (the journal records classified outcomes).
     */
    std::string journalPath;

    /** Replay a compatible journal instead of re-running its cells. */
    bool resume = false;

    /**
     * Test/chaos hook: a point whose label equals this calls abort()
     * inside its isolated worker before simulating -- the way tests
     * and the CI chaos job provoke a deterministic poison cell (and
     * so quarantine its whole machine-run group).  Ignored (never
     * aborts the sweep) without Process isolation.
     */
    std::string chaosCrashLabel;
};

/** Execute every point of @p plan. */
ExperimentResults runPlan(const ExperimentPlan &plan,
                          const RunnerOptions &options = {});

/** The journal identity of @p plan (hash of every cell fingerprint). */
std::uint64_t planSweepId(const ExperimentPlan &plan);

} // namespace exp
} // namespace ede

#endif // EDE_EXP_RUNNER_HH
