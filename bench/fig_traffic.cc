/**
 * @file
 * Open-loop traffic harness: exact tail latency vs offered load for
 * every Table III configuration.
 *
 * Each cell multiplexes N seeded client streams (YCSB-style
 * read/update mix, zipfian key skew, Poisson / bursty / closed-pool
 * arrivals) onto the multi-core persistent heap through the traffic
 * library (src/traffic/), and reports *exact* -- not
 * histogram-bucketed -- p50 / p99 / p99.9 open-loop and service
 * (closed-loop) latency per {configuration x arrival rate} cell,
 * aggregate, per stream and as a warmup/steady progress series.
 *
 * The sweep is the paper-style overload story a closed-loop bench
 * cannot tell: the per-core transaction schedule is arrival-
 * independent, so the machine's closed-loop cycle count is
 * bit-identical across offered loads, while the open-loop tail
 * blows up once arrivals outrun the NVM-bound service rate -- the
 * overload knee.  The experiment runner exploits the construction:
 * every offered load and policy of a configuration shares one
 * traffic::machinePlan, so the sweep simulates one machine run per
 * configuration and replays it per cell.  Two CI gates ride on it:
 *
 *  - --check-knee: closed-loop cycles identical across offered loads
 *    while the open-loop p99 diverges (PR-9's separation).  The
 *    sweep's cells share one run, so their cycles agree by
 *    construction; the gate also simulates the heaviest load on its
 *    own, which checks that arrivals never reach the machine;
 *  - --check-shed: the serving-path robustness story.  A light-load
 *    probe measures the mean service time (service times are
 *    arrival-independent, so the probe's distribution equals every
 *    cell's); the knee gap follows as meanService * streams / cores.
 *    At the knee and at 2x the knee, a deadline-shedding admission
 *    policy must hold the steady-state goodput *rate* (goodput per
 *    cycle of arrival horizon -- counts alone would compare
 *    different horizons) within 10%, while the policy-free open p99
 *    at 2x diverges from the knee's.  Overload shedding keeps
 *    goodput flat where the unprotected tail blows up.
 *
 * Every latency record is integer cycles, so BENCH_traffic.json is
 * byte-identical across --jobs 1 / --jobs 8 and both tickers up to
 * host_perf; CI cmp-gates that too.  Cells run through the
 * experiment layer (parallel across cells, content-addressed result
 * cache) like every other sweep bench.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cli.hh"
#include "common/stats.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "sim/session.hh"

using namespace ede;
using namespace ede::bench;

namespace {

struct Options
{
    TrafficOptions traffic;   ///< --streams / --zipf-theta / ...
    OverloadOptions overload; ///< --admission / --deadline / ...
    int txnsPerStream = 96;
    int opsPerTxn = 4;
    int cores = 2;
    bool smoke = false;
    bool checkKnee = false;
    bool checkShed = false;
    CommonOptions common;     ///< --jobs / --json / --cache-dir / ...
};

/** The plan-point label of one (config, mean-gap) cell. */
std::string
cellLabel(Config cfg, double gap)
{
    return std::string(configName(cfg)) + "/g" +
           std::to_string(static_cast<long long>(gap));
}

traffic::TrafficPlan
makePlan(const Options &opt, double gap)
{
    traffic::TrafficPlan plan;
    plan.streams = opt.traffic.streams;
    plan.txnsPerStream = opt.txnsPerStream;
    plan.opsPerTxn = opt.opsPerTxn;
    plan.mix.zipfTheta = opt.traffic.zipfTheta;
    plan.arrival.kind = opt.traffic.bursty
                            ? traffic::ArrivalKind::Bursty
                            : traffic::ArrivalKind::Poisson;
    plan.arrival.meanGap = gap;
    plan.seed = opt.traffic.seed;
    applyOverload(plan, opt.overload);
    return plan;
}

exp::ExperimentPoint
makePoint(const Options &opt, Config cfg, std::string label,
          traffic::TrafficPlan plan)
{
    exp::ExperimentPoint pt;
    pt.label = std::move(label);
    pt.config = cfg;
    pt.simParams = SimConfig::paper(cfg)
                       .withCoreCount(opt.cores)
                       .params();
    pt.traffic = true;
    pt.trafficPlan = std::move(plan);
    return pt;
}

/**
 * The overload-knee gate: per configuration, the machine's
 * closed-loop cycle count must be IDENTICAL at every offered load
 * (the trace is arrival-independent by construction), while the
 * open-loop p99 at the heaviest load must strictly exceed the
 * lightest load's -- queueing delay the closed-loop run structurally
 * cannot show.  The sweep's cells replay one shared machine run, so
 * the heaviest load is also simulated on its own: its cycles must
 * match too.
 */
int
checkKnee(const exp::ExperimentResults &results,
          const std::vector<Config> &configs,
          const std::vector<double> &gaps)
{
    int failures = 0;
    for (Config cfg : configs) {
        // Gaps are swept lightest (largest gap) first.
        const exp::ExperimentCell &light =
            results.cellByLabel(cellLabel(cfg, gaps.front()));
        const exp::ExperimentCell &heavy =
            results.cellByLabel(cellLabel(cfg, gaps.back()));
        bool cyclesEqual = true;
        for (double gap : gaps) {
            const exp::ExperimentCell &cell =
                results.cellByLabel(cellLabel(cfg, gap));
            if (cell.result.cycles != light.result.cycles)
                cyclesEqual = false;
        }
        Session alone(SimConfig::paper(cfg).withCoreCount(
            heavy.point.simParams.coreCount));
        const SimResult solo =
            alone.run(RunRequest::ofTraffic(heavy.point.trafficPlan));
        if (!solo.ok() || solo.stats.cycles != light.result.cycles)
            cyclesEqual = false;
        const Cycle p99Light = light.result.traffic.open.p99;
        const Cycle p99Heavy = heavy.result.traffic.open.p99;
        const bool diverges = p99Heavy > p99Light;
        if (!cyclesEqual || !diverges) {
            ++failures;
            std::printf(
                "KNEE MISSING %s: closed-loop %s, open p99 "
                "%llu -> %llu\n",
                std::string(configName(cfg)).c_str(),
                cyclesEqual ? "equal" : "DIVERGED",
                static_cast<unsigned long long>(p99Light),
                static_cast<unsigned long long>(p99Heavy));
        }
    }
    if (failures) {
        std::printf("overload-knee gate: %d configuration(s) without "
                    "the closed/open separation\n", failures);
        return 1;
    }
    std::printf("overload-knee gate: closed-loop cycles equal and "
                "open p99 diverges for all %zu configurations\n",
                configs.size());
    return 0;
}

/** Steady-state goodput rate in transactions per kilocycle. */
double
goodputRate(const traffic::OverloadResult &ov)
{
    if (ov.steadyHorizon == 0)
        return 0.0;
    return static_cast<double>(ov.steadyGoodput) * 1000.0 /
           static_cast<double>(ov.steadyHorizon);
}

/**
 * The deadline-shedding gate (see the file comment).  Runs its own
 * two-phase sweep: a light-load probe per configuration to measure
 * the mean service time, then {knee, 2x-knee} x {none, shed} cells.
 * Writes the phase-2 results as the JSON artifact when requested.
 */
int
runCheckShed(const Options &opt, const std::vector<Config> &configs,
             const exp::RunnerOptions &ro)
{
    // Phase 1: one probe cell per configuration at a gap so large no
    // queueing happens.  Service times are arrival-independent, so
    // the probe's service distribution equals every phase-2 cell's.
    const double probeGap = 50000.0;
    exp::ExperimentPlan probePlan;
    for (Config cfg : configs) {
        traffic::TrafficPlan plan = makePlan(opt, probeGap);
        plan.policy = traffic::OverloadPolicy{};
        probePlan.add(makePoint(
            opt, cfg, std::string(configName(cfg)) + "/probe",
            std::move(plan)));
    }
    const exp::ExperimentResults probe = exp::runPlan(probePlan, ro);

    // Phase 2: per configuration, the knee gap (aggregate arrivals
    // match service capacity: gap = meanService * streams / cores)
    // and half of it, each with and without deadline shedding.
    exp::ExperimentPlan plan2;
    std::vector<double> kneeGaps(configs.size());
    std::vector<Cycle> deadlines(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const Config cfg = configs[i];
        const exp::ExperimentCell &cell = probe.cellByLabel(
            std::string(configName(cfg)) + "/probe");
        const double meanService =
            cell.result.traffic.service.mean();
        if (!(meanService > 0)) {
            std::printf("SHED GATE %s: probe measured no service "
                        "time\n",
                        std::string(configName(cfg)).c_str());
            return 1;
        }
        kneeGaps[i] = std::max(
            1.0, meanService * opt.traffic.streams / opt.cores);
        deadlines[i] = static_cast<Cycle>(6.0 * meanService);
        for (double gap : {kneeGaps[i], kneeGaps[i] / 2}) {
            for (bool shed : {false, true}) {
                traffic::TrafficPlan plan = makePlan(opt, gap);
                plan.policy = traffic::OverloadPolicy{};
                if (shed) {
                    plan.policy.admission =
                        traffic::AdmissionKind::Deadline;
                    plan.policy.deadline = deadlines[i];
                }
                plan2.add(makePoint(
                    opt, cfg,
                    cellLabel(cfg, gap) + (shed ? "/shed" : "/none"),
                    std::move(plan)));
            }
        }
    }
    const exp::ExperimentResults results = exp::runPlan(plan2, ro);

    int failures = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const Config cfg = configs[i];
        const double knee = kneeGaps[i];
        const auto cell = [&](double gap, const char *suffix)
            -> const exp::ExperimentCell & {
            return results.cellByLabel(cellLabel(cfg, gap) + "/" +
                                       suffix);
        };
        const traffic::OverloadResult &shedKnee =
            cell(knee, "shed").result.traffic.overload;
        const traffic::OverloadResult &shed2x =
            cell(knee / 2, "shed").result.traffic.overload;
        const Cycle p99Knee =
            cell(knee, "none").result.traffic.openSteady.p99;
        const Cycle p992x =
            cell(knee / 2, "none").result.traffic.openSteady.p99;

        const double rateKnee = goodputRate(shedKnee);
        const double rate2x = goodputRate(shed2x);
        const bool goodputHolds =
            rateKnee > 0 && rate2x >= 0.9 * rateKnee;
        const bool sheds = shed2x.shedDeadline > 0;
        const bool tailDiverges = p992x > p99Knee;

        std::printf(
            "%-10s knee gap %7.0f deadline %6llu | goodput rate "
            "%s -> %s txn/kcyc (shed %llu) | no-policy steady p99 "
            "%llu -> %llu\n",
            std::string(configName(cfg)).c_str(), knee,
            static_cast<unsigned long long>(deadlines[i]),
            fmtDouble(rateKnee, 3).c_str(),
            fmtDouble(rate2x, 3).c_str(),
            static_cast<unsigned long long>(shed2x.shedDeadline),
            static_cast<unsigned long long>(p99Knee),
            static_cast<unsigned long long>(p992x));

        if (!goodputHolds || !sheds || !tailDiverges) {
            ++failures;
            std::printf(
                "SHED GATE %s: %s%s%s\n",
                std::string(configName(cfg)).c_str(),
                goodputHolds ? "" : "goodput rate dropped >10%; ",
                sheds ? "" : "deadline admission never shed; ",
                tailDiverges ? "" : "no-policy p99 did not diverge");
        }
    }

    if (!opt.common.jsonPath.empty()) {
        exp::writeJsonArtifact(opt.common.jsonPath, "fig_traffic",
                               results);
    }
    if (failures) {
        std::printf("deadline-shed gate: %d configuration(s) failed\n",
                    failures);
        return 1;
    }
    std::printf("deadline-shed gate: goodput rate held within 10%% "
                "at 2x knee while the unprotected p99 diverged, for "
                "all %zu configurations\n",
                configs.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    Cli cli("fig_traffic");
    cli.value("--txns", "N",
              "transactions per stream (default 96)",
              [&opt](const std::string &v) {
                  opt.txnsPerStream = static_cast<int>(toUnsigned(v));
                  if (opt.txnsPerStream < 1)
                      throw CliError{"--txns must be >= 1"};
              })
        .value("--ops", "N", "key operations per transaction "
                             "(default 4)",
               [&opt](const std::string &v) {
                   opt.opsPerTxn = static_cast<int>(toUnsigned(v));
                   if (opt.opsPerTxn < 1)
                       throw CliError{"--ops must be >= 1"};
               })
        .value("--cores", "N", "cores serving the streams (default 2)",
               [&opt](const std::string &v) {
                   opt.cores = static_cast<int>(toUnsigned(v));
                   if (opt.cores < 1)
                       throw CliError{"--cores must be >= 1"};
               })
        .toggle("--smoke",
                "tiny sweep for CI (two offered loads, 32 txns)",
                [&opt] { opt.smoke = true; })
        .toggle("--check-knee",
                "gate: closed-loop cycles identical across offered "
                "loads while open-loop p99 diverges",
                [&opt] { opt.checkKnee = true; })
        .toggle("--check-shed",
                "gate: deadline shedding holds the steady goodput "
                "rate at 2x the overload knee while the unprotected "
                "p99 diverges",
                [&opt] { opt.checkShed = true; });
    addTrafficFlags(cli, opt.traffic);
    addOverloadFlags(cli, opt.overload);
    addCommonFlags(cli, opt.common);
    cli.parse(argc, argv);

    std::vector<Config> configs(kAllConfigs.begin(),
                                kAllConfigs.end());
    // Lightest offered load first; the knee gate compares the ends.
    std::vector<double> gaps{4000, 2000, 1000, 500, 250, 125};
    if (opt.smoke) {
        gaps = {6000, 60};
        opt.txnsPerStream = std::min(opt.txnsPerStream, 32);
    }
    if (!opt.traffic.arrivalGaps.empty()) {
        gaps = opt.traffic.arrivalGaps;
        std::sort(gaps.begin(), gaps.end(),
                  [](double a, double b) { return a > b; });
    }

    std::printf("== Open-loop traffic: %u streams on %d cores, "
                "%d txns/stream, theta %s, %s arrivals, seed %llu "
                "==\n\n",
                opt.traffic.streams, opt.cores, opt.txnsPerStream,
                fmtDouble(opt.traffic.zipfTheta, 2).c_str(),
                opt.overload.closedPool
                    ? "closed-pool"
                    : (opt.traffic.bursty ? "bursty" : "poisson"),
                static_cast<unsigned long long>(opt.traffic.seed));

    exp::RunnerOptions ro;
    ro.jobs = opt.common.jobs;
    ro.cacheDir =
        opt.common.useCache ? opt.common.cacheDir : std::string();

    if (opt.checkShed)
        return runCheckShed(opt, configs, ro);

    exp::ExperimentPlan plan;
    for (Config cfg : configs) {
        for (double gap : gaps) {
            plan.add(makePoint(opt, cfg, cellLabel(cfg, gap),
                               makePlan(opt, gap)));
        }
    }
    const exp::ExperimentResults results = exp::runPlan(plan, ro);

    const bool policyActive = opt.overload.policy.active();
    for (Config cfg : configs) {
        TextTable t({"mean gap", "cycles", "svc p50", "svc p99",
                     "open p50", "open p99", "open p99.9",
                     "open max"});
        for (double gap : gaps) {
            const exp::ExperimentCell &cell =
                results.cellByLabel(cellLabel(cfg, gap));
            const traffic::TrafficResult &tr = cell.result.traffic;
            t.addRow({std::to_string(static_cast<long long>(gap)),
                      std::to_string(cell.result.cycles),
                      std::to_string(tr.service.p50),
                      std::to_string(tr.service.p99),
                      std::to_string(tr.open.p50),
                      std::to_string(tr.open.p99),
                      std::to_string(tr.open.p999),
                      std::to_string(tr.open.max)});
        }
        std::printf("-- %s --\n%s\n",
                    std::string(configName(cfg)).c_str(),
                    t.str().c_str());

        if (!policyActive)
            continue;
        TextTable o({"mean gap", "offered", "goodput", "timeout",
                     "shed", "retries", "failed", "depth",
                     "degrade"});
        for (double gap : gaps) {
            const traffic::OverloadResult &ov =
                results.cellByLabel(cellLabel(cfg, gap))
                    .result.traffic.overload;
            const std::uint64_t shed = ov.shedQueue +
                                       ov.shedDeadline +
                                       ov.shedToken + ov.shedDegrade;
            o.addRow({std::to_string(static_cast<long long>(gap)),
                      std::to_string(ov.offered),
                      std::to_string(ov.goodput),
                      std::to_string(ov.timeouts),
                      std::to_string(shed),
                      std::to_string(ov.retries),
                      std::to_string(ov.failures),
                      std::to_string(ov.effectiveDepth),
                      std::string(traffic::degradeLevelName(
                          static_cast<traffic::DegradeLevel>(
                              ov.maxDegradeLevel)))});
        }
        std::printf("-- %s overload --\n%s\n",
                    std::string(configName(cfg)).c_str(),
                    o.str().c_str());
    }

    if (!opt.common.jsonPath.empty()) {
        exp::writeJsonArtifact(opt.common.jsonPath, "fig_traffic",
                               results);
    }
    if (opt.checkKnee)
        return checkKnee(results, configs, gaps);
    return 0;
}
