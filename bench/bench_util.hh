/**
 * @file
 * Shared plumbing for the reproduction benches: command-line options
 * and the standard (application x configuration) sweep used by the
 * Figure 9/10/11 reporters.
 *
 * The sweep itself is a thin wrapper over the experiment layer
 * (src/exp): cells run in parallel across cores and are served from
 * the content-addressed result cache when an identical cell was
 * already simulated -- so running fig9, fig10 and fig11 back to back
 * performs exactly one simulation per (app, config) pair.
 *
 * Flag parsing rides on bench/cli.hh; run any bench with --help for
 * the full option list.
 */

#ifndef EDE_BENCH_BENCH_UTIL_HH
#define EDE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "apps/harness.hh"
#include "cli.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"

namespace ede {
namespace bench {

/** Parsed command line. */
struct BenchOptions
{
    RunSpec spec{40, 25, 42};
    std::vector<AppId> apps{kAllApps.begin(), kAllApps.end()};
    bool paperScale = false;
    CommonOptions common;  ///< --jobs / --json / --cache-dir / ...
    IsolationOptions iso;  ///< --isolate / --journal / --resume / ...
};

/** The standard sweep flags, registered on a shared Cli. */
inline Cli
makeCli(const char *bench, BenchOptions &opt)
{
    Cli cli(bench);
    cli.value("--txns", "N",
              "transactions per application (default 40)",
              [&opt](const std::string &v) {
                  opt.spec.txns = toU64(v);
              })
        .value("--ops", "M",
               "operations per transaction (default 25)",
               [&opt](const std::string &v) {
                   opt.spec.opsPerTxn = toU64(v);
               })
        .toggle("--paper",
                "paper-scale run: 1000 txns x 100 ops",
                [&opt] {
                    opt.paperScale = true;
                    opt.spec.txns = 1000;
                    opt.spec.opsPerTxn = 100;
                })
        .value("--seed", "S", "workload RNG seed (default 42)",
               [&opt](const std::string &v) {
                   opt.spec.seed = toU64(v);
               })
        .value("--app", "LIST",
               "comma-separated subset of the applications",
               [&opt](const std::string &list) {
                   opt.apps.clear();
                   std::size_t pos = 0;
                   while (pos != std::string::npos) {
                       const std::size_t comma = list.find(',', pos);
                       const std::string name = list.substr(
                           pos, comma == std::string::npos
                                    ? comma
                                    : comma - pos);
                       opt.apps.push_back(toApp(name));
                       pos = (comma == std::string::npos) ? comma
                                                          : comma + 1;
                   }
               });
    addCommonFlags(cli, opt.common);
    addIsolationFlags(cli, opt.iso);
    return cli;
}

/** Parse the standard options; unknown flags exit with status 2. */
inline BenchOptions
parseOptions(int argc, char **argv, const char *bench = "bench")
{
    BenchOptions opt;
    makeCli(bench, opt).parse(argc, argv);
    return opt;
}

/** Runner options implied by a bench command line. */
inline exp::RunnerOptions
runnerOptions(const BenchOptions &opt)
{
    exp::RunnerOptions ro;
    ro.jobs = opt.common.jobs;
    ro.cacheDir =
        opt.common.useCache ? opt.common.cacheDir : std::string();
    applyIsolation(ro, opt.iso);
    return ro;
}

/**
 * Run every (app, config) pair through the experiment layer --
 * parallel across cells, cache-backed -- and return keyed results.
 */
inline exp::ExperimentResults
runSweep(const BenchOptions &opt,
         const std::vector<Config> &configs =
             {kAllConfigs.begin(), kAllConfigs.end()})
{
    exp::ExperimentPlan plan;
    plan.addGrid(opt.apps, configs, opt.spec);
    return exp::runPlan(plan, runnerOptions(opt));
}

/** Emit the --json artifact when one was requested. */
inline void
maybeWriteJson(const BenchOptions &opt, const char *bench,
               const exp::ExperimentResults &results)
{
    if (!opt.common.jsonPath.empty())
        exp::writeJsonArtifact(opt.common.jsonPath, bench, results);
}

/** Standard bench banner. */
inline void
printBanner(const char *figure, const BenchOptions &opt)
{
    std::printf("== %s ==\n", figure);
    std::printf("workload: %zu txns x %zu ops/txn (seed %llu)%s\n\n",
                opt.spec.txns, opt.spec.opsPerTxn,
                static_cast<unsigned long long>(opt.spec.seed),
                opt.paperScale ? " [paper scale]" : "");
}

} // namespace bench
} // namespace ede

#endif // EDE_BENCH_BENCH_UTIL_HH
