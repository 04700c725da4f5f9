/**
 * @file
 * Tiny shared command-line parser for the bench drivers.
 *
 * Every driver used to hand-roll the same loop (string compare, bump
 * the index for a value, bespoke usage text) with slightly different
 * unknown-flag behaviour.  Cli centralizes the contract:
 *
 *  - flags are registered with a help line and a callback;
 *  - a flag that takes a value receives it already split off;
 *  - --help / -h prints the generated usage to stdout and exits 0;
 *  - an unknown flag, a missing value, or a malformed value (the
 *    toU64/toUnsigned/toF64 helpers throw CliError instead of
 *    silently parsing "abc" as 0) prints a one-line error plus usage
 *    to stderr and exits 2 (so CI distinguishes "bad invocation"
 *    from "campaign found a violation", which exits 1).
 *
 * CommonOptions + addCommonFlags cover the experiment-layer options
 * (--jobs / --json / --cache-dir / --no-cache) shared by the sweep
 * benches; IsolationOptions + addIsolationFlags cover the
 * process-isolation backend (--isolate / --timeout-ms / ... /
 * --journal / --resume).
 */

#ifndef EDE_BENCH_CLI_HH
#define EDE_BENCH_CLI_HH

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "sim/session.hh"

namespace ede {
namespace bench {

/** Thrown by value conversions on malformed input; caught by parse. */
struct CliError
{
    std::string message;
};

/** Declarative command-line parser; see file comment. */
class Cli
{
  public:
    explicit Cli(std::string prog) : prog_(std::move(prog)) {}

    /** Register a flag taking a value, e.g. --seed N. */
    Cli &
    value(std::string name, std::string metavar, std::string help,
          std::function<void(const std::string &)> apply)
    {
        opts_.push_back({std::move(name), std::move(metavar),
                         std::move(help), std::move(apply), {}});
        return *this;
    }

    /** Register a boolean flag, e.g. --paper. */
    Cli &
    toggle(std::string name, std::string help,
           std::function<void()> apply)
    {
        opts_.push_back({std::move(name), {}, std::move(help), {},
                         std::move(apply)});
        return *this;
    }

    void
    usage(std::FILE *out) const
    {
        std::fprintf(out, "usage: %s [options]\n", prog_.c_str());
        for (const Opt &o : opts_) {
            std::string head = o.name;
            if (!o.metavar.empty())
                head += " " + o.metavar;
            std::fprintf(out, "  %-18s %s\n", head.c_str(),
                         o.help.c_str());
        }
        std::fprintf(out, "  %-18s %s\n", "--help", "this text");
    }

    /** Parse the whole command line; exits on --help or errors. */
    void
    parse(int argc, char **argv) const
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                usage(stdout);
                std::exit(0);
            }
            const Opt *match = nullptr;
            for (const Opt &o : opts_) {
                if (o.name == arg) {
                    match = &o;
                    break;
                }
            }
            if (!match) {
                std::fprintf(stderr, "%s: unknown flag '%s'\n",
                             prog_.c_str(), arg.c_str());
                usage(stderr);
                std::exit(2);
            }
            if (match->toggleFn) {
                match->toggleFn();
                continue;
            }
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: flag %s needs a value\n",
                             prog_.c_str(), arg.c_str());
                usage(stderr);
                std::exit(2);
            }
            try {
                match->valueFn(argv[++i]);
            } catch (const CliError &e) {
                std::fprintf(stderr, "%s: flag %s: %s\n",
                             prog_.c_str(), arg.c_str(),
                             e.message.c_str());
                usage(stderr);
                std::exit(2);
            }
        }
    }

  private:
    struct Opt
    {
        std::string name;
        std::string metavar;
        std::string help;
        std::function<void(const std::string &)> valueFn;
        std::function<void()> toggleFn;
    };

    std::string prog_;
    std::vector<Opt> opts_;
};

/**
 * @name Value conversions for flag callbacks.
 *
 * Each parses the *whole* string and throws CliError on anything
 * else: empty input, trailing junk ("12x"), a leading '-' on the
 * unsigned forms (strtoull would happily wrap it), or out-of-range
 * values.  Cli::parse turns the throw into the exit-2 usage path.
 */
/// @{
inline std::uint64_t
toU64(const std::string &s)
{
    if (s.empty())
        throw CliError{"expected an unsigned integer, got ''"};
    if (s[0] == '-')
        throw CliError{"expected an unsigned integer, got '" + s + "'"};
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE) {
        throw CliError{"expected an unsigned integer, got '" + s +
                       "'"};
    }
    return v;
}

inline unsigned
toUnsigned(const std::string &s)
{
    const std::uint64_t v = toU64(s);
    if (v > 0xffffffffull)
        throw CliError{"value '" + s + "' does not fit in 32 bits"};
    return static_cast<unsigned>(v);
}

inline double
toF64(const std::string &s)
{
    if (s.empty())
        throw CliError{"expected a number, got ''"};
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE)
        throw CliError{"expected a number, got '" + s + "'"};
    return v;
}
/// @}

/** Experiment-layer options shared by every sweep bench. */
struct CommonOptions
{
    unsigned jobs = 0;    ///< 0 = hardware concurrency.
    std::string jsonPath; ///< Empty = no JSON artifact.
    std::string cacheDir = ".ede-cache";
    bool useCache = true;
};

/** Register --jobs / --json / --cache-dir / --no-cache on @p cli. */
inline void
addCommonFlags(Cli &cli, CommonOptions &opt)
{
    cli.value("--jobs", "N",
              "parallel simulation jobs (default: hardware "
              "concurrency; 1 reproduces the old serial order -- "
              "results are bit-identical either way)",
              [&opt](const std::string &v) {
                  opt.jobs = toUnsigned(v);
              })
        .value("--json", "PATH",
               "write the sweep as a JSON artifact (BENCH_*.json)",
               [&opt](const std::string &v) { opt.jsonPath = v; })
        .value("--cache-dir", "D",
               "result-cache directory (default .ede-cache); "
               "snapshots are keyed by {app, config, workload, "
               "simulator parameters, schema}",
               [&opt](const std::string &v) { opt.cacheDir = v; })
        .toggle("--no-cache",
                "simulate every cell even when cached",
                [&opt] { opt.useCache = false; });
}

/**
 * Register the shared --seed flag: every seeded bench takes its
 * master seed the same way instead of re-rolling the registration.
 */
inline void
addSeedFlag(Cli &cli, std::uint64_t &seed)
{
    cli.value("--seed", "S", "master workload seed (default 42)",
              [&seed](const std::string &v) { seed = toU64(v); });
}

/** Traffic-harness knobs shared by the open-loop benches. */
struct TrafficOptions
{
    unsigned streams = 4;     ///< Concurrent client streams.
    double zipfTheta = 0.99;  ///< Key skew; [0, 1).
    bool bursty = false;      ///< MMPP arrivals instead of Poisson.

    /** Explicit offered-load points (mean gap, cycles); empty = the
     * bench's default sweep. */
    std::vector<double> arrivalGaps;

    std::uint64_t seed = 42;
};

/**
 * Register --streams / --zipf-theta / --arrival / --bursty / --seed
 * on @p cli.  --arrival is repeatable: each occurrence appends one
 * offered-load point to the sweep.
 */
inline void
addTrafficFlags(Cli &cli, TrafficOptions &opt)
{
    cli.value("--streams", "N",
              "concurrent client streams (default 4)",
              [&opt](const std::string &v) {
                  opt.streams = toUnsigned(v);
                  if (opt.streams < 1)
                      throw CliError{"--streams must be >= 1"};
              })
        .value("--zipf-theta", "T",
               "zipfian key skew in [0, 1) (default 0.99)",
               [&opt](const std::string &v) {
                   opt.zipfTheta = toF64(v);
                   if (!(opt.zipfTheta >= 0.0 && opt.zipfTheta < 1.0))
                       throw CliError{"--zipf-theta must be in "
                                      "[0, 1)"};
               })
        .value("--arrival", "G",
               "offered-load point: mean inter-arrival gap in cycles "
               "(> 0; repeatable -- each use appends one sweep "
               "point)",
               [&opt](const std::string &v) {
                   const double gap = toF64(v);
                   if (!(gap > 0.0))
                       throw CliError{"--arrival must be > 0"};
                   opt.arrivalGaps.push_back(gap);
               })
        .toggle("--bursty",
                "two-state MMPP arrivals instead of Poisson",
                [&opt] { opt.bursty = true; });
    addSeedFlag(cli, opt.seed);
}

/**
 * A structured workload fault raised before any verdict (an exhausted
 * per-core EDK key partition, a paced workload outgrowing its pace
 * lines) is a usage error at a tool's entry point: print one line
 * naming the kind and its detail to stderr and return exit status 2,
 * the same contract as malformed flags.
 */
inline int
reportUsageFault(const char *tool, const SimFaultError &e)
{
    const std::string what = e.what();
    std::string line = what.substr(0, what.find('\n'));
    if (!e.error().detail.empty())
        line += ": " + e.error().detail;
    std::fprintf(stderr, "%s: %s\n", tool, line.c_str());
    return 2;
}

/** Parse a single-core application name. */
inline AppId
toApp(const std::string &s)
{
    for (AppId id : kAllApps) {
        if (s == appName(id))
            return id;
    }
    throw CliError{"unknown app '" + s + "'"};
}

/** Parse a concurrent-kernel name (msqueue / rwlock / rcu). */
inline ConcApp
toConcApp(const std::string &s)
{
    for (ConcApp app : kAllConcApps) {
        if (s == concAppName(app))
            return app;
    }
    throw CliError{"unknown concurrent kernel '" + s + "'"};
}

/** Parse a Table III configuration name. */
inline Config
toConfig(const std::string &s)
{
    if (const std::optional<Config> c = configFromName(s))
        return *c;
    throw CliError{"unknown config '" + s + "'"};
}

/** Parse an admission-policy name (see traffic/policy.hh). */
inline traffic::AdmissionKind
toAdmissionKind(const std::string &s)
{
    if (s == "none")
        return traffic::AdmissionKind::None;
    if (s == "drop-tail")
        return traffic::AdmissionKind::DropTail;
    if (s == "deadline")
        return traffic::AdmissionKind::Deadline;
    if (s == "token-bucket")
        return traffic::AdmissionKind::TokenBucket;
    throw CliError{"unknown admission policy '" + s +
                   "' (none, drop-tail, deadline, token-bucket)"};
}

/**
 * Serving-path overload knobs: the admission policy and its
 * parameters, retry budgets, the degradation ladder, the
 * warmup/window split and the closed-pool arrival option.  Range
 * checks beyond simple positivity live in validateTrafficPlan, so
 * the CLI and programmatic callers reject identically.
 */
struct OverloadOptions
{
    traffic::OverloadPolicy policy;
    int totalTxns = 0;            ///< 0 = txnsPerStream semantics.
    unsigned warmupPermille = 125;
    unsigned latencyWindows = 8;
    bool closedPool = false;      ///< ClosedPool arrivals.
    unsigned poolSize = 4;
    double thinkTime = 2000.0;
};

/** Register the overload-policy flags on @p cli. */
inline void
addOverloadFlags(Cli &cli, OverloadOptions &opt)
{
    cli.value("--admission", "KIND",
              "admission policy: none | drop-tail | deadline | "
              "token-bucket (default none)",
              [&opt](const std::string &v) {
                  opt.policy.admission = toAdmissionKind(v);
              })
        .value("--queue-depth", "N",
               "finite service-queue depth before backpressure "
               "scaling (default 16)",
               [&opt](const std::string &v) {
                   opt.policy.queueDepth = toU64(v);
               })
        .value("--deadline", "C",
               "per-transaction deadline in cycles (deadline "
               "admission sheds predicted misses; any policy counts "
               "completions past it as timeouts)",
               [&opt](const std::string &v) {
                   opt.policy.deadline = toU64(v);
               })
        .value("--token-rate", "R",
               "token-bucket refill: tokens per 1024 cycles",
               [&opt](const std::string &v) {
                   opt.policy.tokenRatePerKCycle = toU64(v);
               })
        .value("--token-burst", "B", "token-bucket capacity",
               [&opt](const std::string &v) {
                   opt.policy.tokenBurst = toU64(v);
               })
        .value("--retry-budget", "N",
               "client retries per stream before permanent failure "
               "(default 0 = no retries)",
               [&opt](const std::string &v) {
                   opt.policy.retryBudget = toU64(v);
               })
        .value("--retry-base", "C",
               "exponential-backoff base in cycles (default 256)",
               [&opt](const std::string &v) {
                   opt.policy.retryBackoffBase = toU64(v);
               })
        .value("--retry-cap", "C",
               "backoff ceiling in cycles (default 8192)",
               [&opt](const std::string &v) {
                   opt.policy.retryBackoffCap = toU64(v);
               })
        .toggle("--degrade",
                "enable the graceful-degradation ladder (normal -> "
                "read-mostly -> reject-all, hysteretic recovery)",
                [&opt] { opt.policy.degrade = true; })
        .value("--shed-window", "N",
               "sliding pressure window for the ladder (default 32)",
               [&opt](const std::string &v) {
                   opt.policy.shedWindow = toUnsigned(v);
               })
        .value("--degrade-permille", "P",
               "shed rate escalating the ladder (default 500)",
               [&opt](const std::string &v) {
                   opt.policy.degradePermille = toUnsigned(v);
               })
        .value("--recover-permille", "P",
               "shed rate recovering one rung; must be below "
               "--degrade-permille (default 125)",
               [&opt](const std::string &v) {
                   opt.policy.recoverPermille = toUnsigned(v);
               })
        .value("--warmup-permille", "P",
               "leading fraction of each stream classified warmup "
               "(default 125)",
               [&opt](const std::string &v) {
                   opt.warmupPermille = toUnsigned(v);
               })
        .value("--windows", "N",
               "latency time-series windows, 1..64 (default 8)",
               [&opt](const std::string &v) {
                   opt.latencyWindows = toUnsigned(v);
               })
        .value("--total-txns", "N",
               "exact total transactions split round-robin across "
               "streams (0 = per-stream count)",
               [&opt](const std::string &v) {
                   opt.totalTxns = static_cast<int>(toUnsigned(v));
               })
        .value("--closed-pool", "N",
               "closed-loop arrivals from a pool of N clients per "
               "stream instead of open-loop",
               [&opt](const std::string &v) {
                   opt.closedPool = true;
                   opt.poolSize = toUnsigned(v);
                   if (opt.poolSize < 1)
                       throw CliError{"--closed-pool must be >= 1"};
               })
        .value("--think-time", "T",
               "mean closed-pool think time in cycles (default 2000)",
               [&opt](const std::string &v) {
                   opt.thinkTime = toF64(v);
                   if (opt.thinkTime < 0)
                       throw CliError{"--think-time must be >= 0"};
               });
}

/** Fold @p o into @p plan (policy, split knobs, closed arrivals). */
inline void
applyOverload(traffic::TrafficPlan &plan, const OverloadOptions &o)
{
    plan.policy = o.policy;
    plan.totalTxns = o.totalTxns;
    plan.warmupPermille = o.warmupPermille;
    plan.latencyWindows = o.latencyWindows;
    if (o.closedPool) {
        plan.arrival.kind = traffic::ArrivalKind::ClosedPool;
        plan.arrival.poolSize = o.poolSize;
        plan.arrival.thinkTime = o.thinkTime;
    }
}

using exp::IsolationOptions;

/** Register --isolate / --timeout-ms / ... / --resume on @p cli. */
inline void
addIsolationFlags(Cli &cli, IsolationOptions &opt)
{
    cli.toggle("--isolate",
               "run each cell in a forked worker process; crashes, "
               "hangs and OOMs are quarantined instead of fatal",
               [&opt] { opt.isolate = true; })
        .value("--timeout-ms", "T",
               "per-job wall-clock limit in ms (0 = none; needs "
               "--isolate)",
               [&opt](const std::string &v) {
                   opt.limits.timeoutMs = toU64(v);
               })
        .value("--mem-limit-mb", "M",
               "per-job address-space cap in MiB (0 = none; needs "
               "--isolate; ignored under sanitizers)",
               [&opt](const std::string &v) {
                   opt.limits.memLimitBytes =
                       toU64(v) * 1024ull * 1024ull;
               })
        .value("--attempts", "N",
               "attempts per job before quarantine; transient "
               "failures back off exponentially between tries "
               "(default 3)",
               [&opt](const std::string &v) {
                   opt.retry.maxAttempts = toUnsigned(v);
                   if (opt.retry.maxAttempts == 0)
                       throw CliError{"--attempts must be >= 1"};
               })
        .value("--journal", "PATH",
               "append-only sweep journal; every durable cell is "
               "recorded as it lands (needs --isolate)",
               [&opt](const std::string &v) { opt.journalPath = v; })
        .toggle("--resume",
                "replay compatible cells from the --journal instead "
                "of re-running them",
                [&opt] { opt.resume = true; });
}

/** Fold @p iso into runner options (mode, limits, journal). */
inline void
applyIsolation(exp::RunnerOptions &ro, const IsolationOptions &iso)
{
    ro.isolation = iso.isolate ? exp::IsolationMode::Process
                               : exp::IsolationMode::None;
    ro.limits = iso.limits;
    ro.retry = iso.retry;
    ro.journalPath = iso.journalPath;
    ro.resume = iso.resume;
}

} // namespace bench
} // namespace ede

#endif // EDE_BENCH_CLI_HH
