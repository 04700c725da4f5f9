/**
 * @file
 * The benchmark's measuring program: one pass of one workload.
 *
 * run.py starts this program once per pass, each in its own process,
 * and reads what it writes to --out.  The file is JSON lines, flushed
 * as they are produced, so the operations that finished before a
 * crash are still on disk:
 *
 *   {"plan": {...}}     first: the pass's operations
 *   {"op": {...}}       one per finished operation, with its check
 *   {"summary": {...}}  last; missing when the pass died
 *
 * An untraced pass calls the entry points the figure binaries use:
 * exp::runPlan, runCampaign / runConcCampaign and runModelCheck /
 * runConcCheck.  A traced pass (--trace) splits runPlan into the
 * public calls it is made of -- WorkloadHarness generate / simulate,
 * traffic::buildTrafficWorkload, System::run,
 * traffic::computeTrafficResult, ResultCache::store -- and records a
 * span around each call.  The split simulates every cell, whatever
 * runPlan does.  Spans are kept in memory and written with the
 * summary.  Both kinds of pass check their outputs the same way, so a
 * traced pass also proves the split reproduces runPlan.
 *
 * Usage:
 *   ede_perfbench --workload fig9-sweep|traffic-sweep|crash-check
 *                 --seed N --out FILE --work-dir DIR
 *                 [--trace] [--tiny]
 */

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/conc_harness.hh"
#include "apps/harness.hh"
#include "common/stats.hh"
#include "exp/fingerprint.hh"
#include "exp/result_cache.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "fault/campaign.hh"
#include "fault/conc_campaign.hh"
#include "fault/conc_check.hh"
#include "fault/model_check/checker.hh"
#include "sim/session.hh"
#include "traffic/overload.hh"

using namespace ede;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "ede_perfbench: %s\n", why.c_str());
    std::exit(2);
}

// ---------------------------------------------------------------------
// Minimal JSON writing.

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

class JsonObject
{
  public:
    JsonObject &
    raw(std::string_view key, const std::string &value)
    {
        body_ += body_.empty() ? "" : ", ";
        body_ += jsonString(key) + ": " + value;
        return *this;
    }

    JsonObject &
    num(std::string_view key, double v)
    {
        return raw(key, jsonNumber(v));
    }

    JsonObject &
    str(std::string_view key, std::string_view v)
    {
        return raw(key, jsonString(v));
    }

    JsonObject &
    flag(std::string_view key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** The --out file: one JSON object per line, flushed per line. */
class LineWriter
{
  public:
    explicit LineWriter(const std::string &path)
        : file_(std::fopen(path.c_str(), "w"))
    {
        if (!file_)
            usage("cannot open --out file '" + path + "'");
    }

    ~LineWriter() { std::fclose(file_); }

    LineWriter(const LineWriter &) = delete;
    LineWriter &operator=(const LineWriter &) = delete;

    void
    line(std::string_view key, const JsonObject &obj)
    {
        const std::string text =
            "{" + jsonString(key) + ": " + obj.text() + "}\n";
        std::fputs(text.c_str(), file_);
        std::fflush(file_);
    }

  private:
    std::FILE *file_;
};

// ---------------------------------------------------------------------
// Spans.

struct Span
{
    std::string name;
    std::string id;  ///< Shared by every span of one cell.
    int parent = -1;
    double start = 0;
    double end = 0;
    std::vector<std::pair<std::string, double>> attrs;
};

/** In-memory span recorder; a disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

    bool on() const { return on_; }

    int
    open(std::string name, std::string id)
    {
        if (!on_)
            return -1;
        Span s;
        s.name = std::move(name);
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.id = (id.empty() && s.parent >= 0) ? spans_[s.parent].id
                                             : std::move(id);
        s.start = secondsBetween(t0_, Clock::now());
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int i)
    {
        if (i < 0)
            return;
        spans_[i].end = secondsBetween(t0_, Clock::now());
        stack_.pop_back();
    }

    void
    attr(int i, std::string key, double v)
    {
        if (i >= 0)
            spans_[i].attrs.emplace_back(std::move(key), v);
    }

    std::size_t size() const { return spans_.size(); }

    std::string
    json() const
    {
        std::string out = "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            JsonObject attrs;
            for (const auto &[k, v] : s.attrs)
                attrs.num(k, v);
            JsonObject o;
            o.str("name", s.name)
                .str("id", s.id)
                .num("parent", s.parent)
                .num("start", s.start)
                .num("end", s.end)
                .raw("attrs", attrs.text());
            out += (i ? ", " : "") + o.text();
        }
        return out + "]";
    }

  private:
    bool on_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span around one call into a layer. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, std::string name, std::string id = {})
        : tracer_(tracer), index_(tracer.open(std::move(name),
                                              std::move(id)))
    {
    }

    ~SpanScope() { tracer_.close(index_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int index() const { return index_; }

  private:
    Tracer &tracer_;
    int index_;
};

/** Host seconds one span costs: an open and a close of a named span. */
double
spanCostSeconds()
{
    constexpr int kSpans = 20000;
    Tracer probe(true);
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i)
        SpanScope s(probe, "probe.span", "probe");
    return secondsBetween(t0, Clock::now()) / kSpans;
}

// ---------------------------------------------------------------------
// Output digests.

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ull;
        }
    }

    void
    add(const traffic::LatencySummary &s)
    {
        for (std::uint64_t v : {s.count, s.p50, s.p99, s.p999, s.max,
                                s.sum})
            add(v);
    }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
        return buf;
    }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

void
addCache(Digest &d, const CacheStats &c)
{
    for (std::uint64_t v : {c.hits, c.misses, c.evictions, c.writebacks})
        d.add(v);
}

/** Key statistics of one cell: cycles, every core, the hierarchy. */
std::string
cellDigest(const exp::ExperimentCell &cell)
{
    const RunResult &r = cell.result;
    Digest d;
    d.add(cell.opCycles);
    d.add(r.cycles);
    d.add(r.coreCount);
    for (const CoreRunStats &pc : r.perCore) {
        const CoreStats &s = pc.stats;
        for (std::uint64_t v :
             {s.cycles, s.retired, s.dispatched, s.issuedOps, s.branches,
              s.mispredicts, s.squashes, s.squashedInsts,
              s.loadsForwarded, pc.wb.inserted, pc.wb.pushes,
              pc.wb.srcIdGated, pc.wb.lineGated, pc.wb.dmbGated,
              pc.wb.memRejected})
            d.add(v);
        addCache(d, pc.l1d);
    }
    addCache(d, r.l2);
    addCache(d, r.l3);
    const NvmStats &n = r.nvm;
    for (std::uint64_t v :
         {n.reads, n.bufferReadHits, n.writesAccepted, n.writesCoalesced,
          n.mediaWrites, n.cleansAccepted, n.bufferFullRejects,
          n.transientRejects, r.dram.reads, r.dram.writes,
          r.coherence.snoops, r.coherence.invalidations,
          r.coherence.downgrades, r.coherence.dirtyHandoffs})
        d.add(v);
    if (r.traffic.enabled) {
        d.add(r.traffic.open);
        d.add(r.traffic.service);
        const traffic::OverloadResult &o = r.traffic.overload;
        for (std::uint64_t v :
             {o.offered, o.admitted, o.completed, o.goodput, o.timeouts,
              o.failures, o.shedQueue, o.shedDeadline, o.retries,
              o.retryExhausted})
            d.add(v);
    }
    return d.hex();
}

/** The machine-level part of a cell (no post-hoc traffic replay). */
std::string
machineDigest(const exp::ExperimentCell &cell)
{
    exp::ExperimentCell machine = cell;
    machine.result.traffic = traffic::TrafficResult{};
    return cellDigest(machine);
}

// ---------------------------------------------------------------------
// Options and per-pass context.

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    std::string out;
    std::string workDir;
    bool traced = false;
    bool tiny = false;
};

/** Everything a pass reports besides its operations. */
class Pass
{
  public:
    Pass(const Options &opt, LineWriter &out)
        : opt_(opt), out_(out), tracer_(opt.traced)
    {
    }

    Tracer &tracer() { return tracer_; }
    const Options &opt() const { return opt_; }

    void
    plan(const std::vector<std::string> &ops)
    {
        std::string list = "[";
        for (std::size_t i = 0; i < ops.size(); ++i)
            list += (i ? ", " : "") + jsonString(ops[i]);
        JsonObject o;
        o.str("workload", opt_.workload)
            .num("seed", static_cast<double>(opt_.seed))
            .flag("traced", opt_.traced)
            .raw("ops", list + "]");
        out_.line("plan", o);
    }

    /** One finished operation; @p problem is empty when it passed. */
    void
    op(const std::string &name, std::uint64_t cycles,
       const std::string &digest, const std::string &problem)
    {
        JsonObject o;
        o.str("name", name)
            .num("cycles", static_cast<double>(cycles))
            .str("digest", digest)
            .flag("ok", problem.empty())
            .str("problem", problem);
        out_.line("op", o);
    }

    void
    startWorkload()
    {
        cpu0_ = cpuSeconds();
        wall0_ = Clock::now();
        root_ = tracer_.open("workload", "");
    }

    void
    endWorkload()
    {
        tracer_.close(root_);
        wallS_ = secondsBetween(wall0_, Clock::now());
        cpuS_ = cpuSeconds() - cpu0_;
        // The peak so far is the workload's own, before the set-up
        // samples run in this process.
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        rssMb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }

    JsonObject &counters() { return counters_; }
    std::vector<double> &setupSamples() { return setup_; }
    void setInsts(double n) { insts_ = n; }

    void
    summary()
    {
        std::string setup = "[";
        for (std::size_t i = 0; i < setup_.size(); ++i)
            setup += (i ? ", " : "") + jsonNumber(setup_[i]);
        JsonObject o;
        o.num("wall_s", wallS_)
            .num("cpu_s", cpuS_)
            .num("rss_mb", rssMb_)
            .num("insts", insts_)
            .raw("setup_s", setup + "]")
            .raw("counters", counters_.text())
            .raw("spans", tracer_.json());
        out_.line("summary", o);
    }

  private:
    const Options &opt_;
    LineWriter &out_;
    Tracer tracer_;
    JsonObject counters_;
    std::vector<double> setup_;
    double insts_ = 0;
    double cpu0_ = 0;
    Clock::time_point wall0_;
    double wallS_ = 0;
    double cpuS_ = 0;
    double rssMb_ = 0;
    int root_ = -1;
};

/**
 * Time repeated calls of @p buildAll, the workload's whole set-up:
 * at least kMinReps samples and at least half a second of them, so a
 * cheap set-up still yields a steady median.
 */
template <typename Fn>
void
sampleSetup(Pass &pass, Fn &&buildAll)
{
    constexpr unsigned kMinReps = 3;
    constexpr double kMinTotalS = 0.5;
    constexpr unsigned kMaxReps = 200;
    // Keep freed memory in the heap between repetitions, so they time
    // the generation work rather than first-touch page faults.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    double total = 0;
    for (unsigned r = 0; r < kMaxReps; ++r) {
        if (r >= kMinReps && total >= kMinTotalS)
            break;
        const auto t0 = Clock::now();
        buildAll();
        const double s = secondsBetween(t0, Clock::now());
        pass.setupSamples().push_back(s);
        total += s;
    }
}

/**
 * Host-profile and statistic totals over the cells this pass
 * simulated.  A cell counts when its HostProfile shows simulated
 * cycles; one served from the cache, or sharing another cell's
 * machine run without a profile of its own, does not.
 */
struct SimTotals
{
    std::uint64_t cells = 0;
    std::uint64_t cycles = 0;
    std::uint64_t hostTicks = 0;
    std::uint64_t skipped = 0;
    std::uint64_t retired = 0;
    std::uint64_t issued = 0;
    std::uint64_t squashed = 0;
    std::uint64_t l1dHits = 0, l1dMisses = 0;
    std::uint64_t l2Hits = 0, l2Misses = 0;
    std::uint64_t nvmWrites = 0;
    std::uint64_t nvmRejects = 0;
    double occupancyWeighted = 0;
    std::uint64_t occupancySamples = 0;
    std::uint64_t snoops = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t memNs = 0, fetchNs = 0, issueNs = 0, wbNs = 0;
    std::uint64_t skipNs = 0;
    std::uint64_t wallNs = 0;

    void
    add(const exp::ExperimentCell &c)
    {
        const HostProfile &p = c.profile;
        if (c.fromCache || c.failed || p.cyclesSimulated == 0)
            return;
        const RunResult &r = c.result;
        ++cells;
        cycles += p.cyclesSimulated;
        hostTicks += p.hostTicks;
        skipped += p.cyclesSkipped;
        memNs += p.memNanos;
        fetchNs += p.fetchNanos;
        issueNs += p.issueNanos;
        wbNs += p.wbNanos;
        skipNs += p.skipNanos;
        wallNs += p.wallNanos;
        for (const CoreRunStats &pc : r.perCore) {
            retired += pc.stats.retired;
            issued += pc.stats.issuedOps;
            squashed += pc.stats.squashedInsts;
            l1dHits += pc.l1d.hits;
            l1dMisses += pc.l1d.misses;
        }
        l2Hits += r.l2.hits;
        l2Misses += r.l2.misses;
        nvmWrites += r.nvm.writesAccepted;
        nvmRejects += r.nvm.bufferFullRejects + r.nvm.transientRejects;
        occupancyWeighted += r.nvmOccupancy.mean() *
                             static_cast<double>(
                                 r.nvmOccupancy.totalSamples());
        occupancySamples += r.nvmOccupancy.totalSamples();
        snoops += r.coherence.snoops;
        invalidations += r.coherence.invalidations;
    }

    static double
    ratio(std::uint64_t num, std::uint64_t den)
    {
        return den ? static_cast<double>(num) / den : 0.0;
    }

    void
    write(JsonObject &o) const
    {
        o.num("sim.cells", cells)
            .num("sim.cycles", cycles)
            .num("sim.host_ticks", hostTicks)
            .num("sim.cycles_skipped", skipped)
            .num("sim.skip_ratio", ratio(skipped, cycles))
            .num("sim.profile_mem_s", memNs * 1e-9)
            .num("sim.profile_fetch_s", fetchNs * 1e-9)
            .num("sim.profile_issue_s", issueNs * 1e-9)
            .num("sim.profile_wb_s", wbNs * 1e-9)
            .num("sim.profile_skip_s", skipNs * 1e-9)
            .num("sim.profile_wall_s", wallNs * 1e-9)
            .num("pipeline.retired", retired)
            .num("pipeline.issued", issued)
            .num("pipeline.squashed_insts", squashed)
            .num("mem.l1d.miss_rate",
                 ratio(l1dMisses, l1dHits + l1dMisses))
            .num("mem.l2.miss_rate", ratio(l2Misses, l2Hits + l2Misses))
            .num("mem.nvm.writes", nvmWrites)
            .num("mem.nvm.accept_rejects", nvmRejects)
            .num("mem.nvm.occupancy_mean",
                 occupancySamples
                     ? occupancyWeighted / occupancySamples
                     : 0.0)
            .num("mem.coherence.snoops", snoops)
            .num("mem.coherence.invalidations", invalidations);
    }
};

/** Record the HostProfile phases of one sim.run span. */
void
attachProfile(Tracer &tracer, int span, const HostProfile &p)
{
    tracer.attr(span, "mem_s", p.memNanos * 1e-9);
    tracer.attr(span, "fetch_s", p.fetchNanos * 1e-9);
    tracer.attr(span, "issue_s", p.issueNanos * 1e-9);
    tracer.attr(span, "wb_s", p.wbNanos * 1e-9);
    tracer.attr(span, "skip_s", p.skipNanos * 1e-9);
}

exp::RunnerOptions
runnerOptions(const std::string &cacheDir)
{
    exp::RunnerOptions ro;
    ro.jobs = 1;
    ro.cacheDir = cacheDir;
    ro.printSummary = false;
    return ro;
}

std::vector<std::string>
labelsOf(const exp::ExperimentPlan &plan)
{
    std::vector<std::string> out;
    for (const exp::ExperimentPoint &p : plan.points())
        out.push_back(p.label);
    return out;
}

/**
 * The traced split of a cold runPlan: per point, @p simulate makes
 * the cell inside an "exp.cell" span and the cell is stored in the
 * cache inside an "exp.cache_write" span.
 */
template <typename SimulateFn>
exp::ExperimentResults
tracedColdPlan(const exp::ExperimentPlan &plan,
               const std::string &cacheDir, Tracer &tracer,
               SimulateFn &&simulate)
{
    const exp::ResultCache cache(cacheDir);
    std::vector<exp::ExperimentCell> cells;
    for (const exp::ExperimentPoint &point : plan.points()) {
        SpanScope cellSpan(tracer, "exp.cell", point.label);
        exp::ExperimentCell cell = simulate(point);
        cell.point = point;
        cell.fingerprint = exp::fingerprintPoint(point);
        SpanScope store(tracer, "exp.cache_write");
        cache.store(cell);
        cells.push_back(std::move(cell));
    }
    return exp::ExperimentResults(std::move(cells));
}

// ---------------------------------------------------------------------
// fig9-sweep.

exp::ExperimentPlan
fig9Plan(const Options &opt)
{
    const RunSpec spec{opt.tiny ? 4u : 40u, opt.tiny ? 4u : 25u,
                       opt.seed};
    AppParams params;
    params.seed = opt.seed;
    exp::ExperimentPlan plan;
    plan.addGrid({kAllApps.begin(), kAllApps.end()},
                 {kAllConfigs.begin(), kAllConfigs.end()}, spec,
                 params);
    return plan;
}

/** Geomean of opCycles(cfg) / opCycles(B) over the apps. */
double
normalizedGeomean(const exp::ExperimentResults &r, Config cfg)
{
    std::vector<double> norm;
    for (AppId app : kAllApps) {
        norm.push_back(static_cast<double>(r.cell(app, cfg).opCycles) /
                       static_cast<double>(r.cell(app, Config::B)
                                               .opCycles));
    }
    return geomean(norm);
}

void
runFig9(Pass &pass)
{
    const Options &opt = pass.opt();
    const exp::ExperimentPlan plan = fig9Plan(opt);
    pass.plan(labelsOf(plan));
    const std::string cacheDir = opt.workDir + "/cache";
    const exp::RunnerOptions ro = runnerOptions(cacheDir);
    Tracer &tracer = pass.tracer();

    pass.startWorkload();
    exp::ExperimentResults cold;
    if (!tracer.on()) {
        cold = exp::runPlan(plan, ro);
    } else {
        cold = tracedColdPlan(
            plan, cacheDir, tracer,
            [&tracer](const exp::ExperimentPoint &p) {
                std::unique_ptr<WorkloadHarness> h;
                {
                    SpanScope s(tracer, "apps.generate");
                    h = std::make_unique<WorkloadHarness>(
                        p.app, p.config, p.spec, p.appParams,
                        p.simParams);
                    h->generate();
                    tracer.attr(s.index(), "insts",
                                static_cast<double>(h->trace().size()));
                }
                exp::ExperimentCell cell;
                SpanScope s(tracer, "sim.run");
                h->simulate();
                cell.opCycles = h->opPhaseCycles();
                cell.result = h->system().result();
                cell.profile = h->system().profile();
                attachProfile(tracer, s.index(), cell.profile);
                return cell;
            });
    }
    exp::ExperimentResults warm;
    {
        SpanScope s(tracer, "exp.plan");
        warm = exp::runPlan(plan, ro);
    }
    {
        SpanScope s(tracer, "exp.sink");
        exp::writeJsonArtifact(opt.workDir + "/fig9.json",
                               "fig9_exec_time", cold);
    }
    pass.endWorkload();

    SimTotals totals;
    std::size_t cacheWrites = 0;
    for (std::size_t i = 0; i < cold.size(); ++i) {
        const exp::ExperimentCell &c = cold.cells()[i];
        const exp::ExperimentCell &w = warm.cells()[i];
        totals.add(c);
        cacheWrites += c.fromCache ? 0 : 1;
        std::string problem;
        if (c.failed)
            problem = "cell failed";
        else if (!w.fromCache)
            problem = "warm pass missed the cache";
        else if (exp::serializeCell(c) != exp::serializeCell(w))
            problem = "warm pass differs from the cold pass";
        pass.op(c.point.label, c.opCycles, cellDigest(c), problem);
    }
    pass.setInsts(static_cast<double>(totals.retired));

    JsonObject &k = pass.counters();
    totals.write(k);
    k.num("exp.cache_writes", static_cast<double>(cacheWrites))
        .num("exp.cache_hits", static_cast<double>(warm.cacheHits()))
        .num("model.iq_speedup_pct",
             100.0 * (1.0 / normalizedGeomean(cold, Config::IQ) - 1.0))
        .num("model.wb_speedup_pct",
             100.0 * (1.0 / normalizedGeomean(cold, Config::WB) - 1.0))
        .num("model.u_reduction_pct",
             100.0 * (1.0 - normalizedGeomean(cold, Config::U)));

    if (!tracer.on()) {
        sampleSetup(pass, [&plan] {
            for (const exp::ExperimentPoint &p : plan.points()) {
                WorkloadHarness h(p.app, p.config, p.spec, p.appParams,
                                  p.simParams);
                h.generate();
            }
        });
    }
}

// ---------------------------------------------------------------------
// traffic-sweep.

/** Offered loads as mean arrival gaps, lightest first (fig_traffic). */
const std::vector<double> kTrafficGaps{4000, 2000, 1000, 500, 250, 125};

std::string
trafficLabel(Config cfg, double gap)
{
    return std::string(configName(cfg)) + "/g" +
           std::to_string(static_cast<long long>(gap));
}

exp::ExperimentPlan
trafficPlan(const Options &opt)
{
    exp::ExperimentPlan plan;
    for (Config cfg : kAllConfigs) {
        for (double gap : kTrafficGaps) {
            traffic::TrafficPlan tp;
            tp.streams = 4;
            tp.txnsPerStream = opt.tiny ? 24 : 768;
            tp.opsPerTxn = 4;
            tp.mix.zipfTheta = 0.99;
            tp.arrival.kind = traffic::ArrivalKind::Poisson;
            tp.arrival.meanGap = gap;
            tp.seed = opt.seed;
            tp.policy.admission = traffic::AdmissionKind::Deadline;
            tp.policy.deadline = 20000;
            tp.policy.retryBudget = 8;

            exp::ExperimentPoint pt;
            pt.label = trafficLabel(cfg, gap);
            pt.config = cfg;
            pt.simParams =
                SimConfig::paper(cfg).withCoreCount(2).params();
            pt.traffic = true;
            pt.trafficPlan = tp;
            plan.add(std::move(pt));
        }
    }
    return plan;
}

SimConfig
simConfigOf(const exp::ExperimentPoint &p)
{
    return SimConfig::paper(p.config)
        .withCore(p.simParams.core)
        .withMem(p.simParams.mem)
        .withCoreCount(p.simParams.coreCount);
}

traffic::TrafficWorkload
buildTraffic(const exp::ExperimentPoint &p)
{
    const unsigned cores = static_cast<unsigned>(p.simParams.coreCount);
    const traffic::TrafficCheck check =
        traffic::validateTrafficPlan(p.trafficPlan, p.config, cores);
    if (!check.ok())
        usage(std::string("invalid traffic plan: ") + check.message);
    return traffic::buildTrafficWorkload(p.trafficPlan, p.config, cores);
}

/** Session::run's traffic path, one public call per span. */
exp::ExperimentCell
tracedTrafficCell(const exp::ExperimentPoint &p, Tracer &tracer)
{
    traffic::TrafficWorkload workload;
    {
        SpanScope s(tracer, "traffic.build");
        workload = buildTraffic(p);
        double insts = 0;
        for (const Trace &t : workload.traces)
            insts += static_cast<double>(t.size());
        tracer.attr(s.index(), "insts", insts);
    }
    std::unique_ptr<System> sys;
    {
        SpanScope s(tracer, "sim.run");
        sys = std::make_unique<System>(simConfigOf(p));
        sys->recordCompletions(true);
        sys->run(workload.traces);
        if (const SimError *e = sys->firstError())
            ede_fatal("traffic cell '", p.label, "': ", e->describe());
        attachProfile(tracer, s.index(), sys->profile());
    }
    exp::ExperimentCell cell;
    cell.result = sys->result();
    cell.profile = sys->profile();
    cell.opCycles = cell.result.cycles;
    SpanScope s(tracer, "traffic.replay");
    std::vector<std::vector<Cycle>> completions;
    for (unsigned c = 0; c < sys->coreCount(); ++c)
        completions.push_back(sys->completionCycles(c));
    const NvmDevice &nvm = sys->mem().controller().nvm();
    traffic::BackpressureSignal signal;
    signal.occupancyPermille = nvm.meanOccupancyPermille();
    signal.rejectPermille = nvm.rejectPermille();
    signal.transientRejects = nvm.stats().transientRejects;
    signal.bufferFullRejects = nvm.stats().bufferFullRejects;
    cell.result.traffic = traffic::computeTrafficResult(
        p.trafficPlan, workload, completions, signal);
    return cell;
}

void
runTraffic(Pass &pass)
{
    const Options &opt = pass.opt();
    const exp::ExperimentPlan plan = trafficPlan(opt);
    pass.plan(labelsOf(plan));
    const std::string cacheDir = opt.workDir + "/cache";
    Tracer &tracer = pass.tracer();

    pass.startWorkload();
    exp::ExperimentResults results;
    if (!tracer.on()) {
        results = exp::runPlan(plan, runnerOptions(cacheDir));
    } else {
        results = tracedColdPlan(
            plan, cacheDir, tracer,
            [&tracer](const exp::ExperimentPoint &p) {
                return tracedTrafficCell(p, tracer);
            });
    }
    {
        SpanScope s(tracer, "exp.sink");
        exp::writeJsonArtifact(opt.workDir + "/traffic.json",
                               "fig_traffic", results);
    }
    pass.endWorkload();

    // Machine runs are the cells runPlan simulated; distinct ones are
    // the different machine digests over every cell.
    SimTotals totals;
    std::set<std::string> machines;
    std::size_t cacheWrites = 0;
    for (const exp::ExperimentCell &c : results.cells()) {
        totals.add(c);
        cacheWrites += c.fromCache ? 0 : 1;
        machines.insert(machineDigest(c));
        const traffic::OverloadResult &ov = c.result.traffic.overload;
        // Knee invariant: the machine run does not depend on the
        // offered load, so every load of a config has equal cycles.
        const exp::ExperimentCell &lightest = results.cellByLabel(
            trafficLabel(c.point.config, kTrafficGaps.front()));
        std::string problem;
        if (c.failed)
            problem = "cell failed";
        else if (!c.result.traffic.enabled || !ov.enabled)
            problem = "traffic replay or overload policy did not run";
        else if (c.result.cycles != lightest.result.cycles)
            problem = "closed-loop cycles differ across offered loads";
        else if (ov.offered != ov.completed + ov.failures)
            problem = "offered != completed + failures";
        pass.op(c.point.label, c.result.cycles, cellDigest(c), problem);
    }
    pass.setInsts(static_cast<double>(totals.retired));

    JsonObject &k = pass.counters();
    totals.write(k);
    k.num("exp.cache_writes", static_cast<double>(cacheWrites))
        .num("exp.cache_hits", static_cast<double>(results.cacheHits()))
        .num("traffic.machine_runs", static_cast<double>(totals.cells))
        .num("traffic.distinct_machine_runs",
             static_cast<double>(machines.size()));

    if (!tracer.on()) {
        sampleSetup(pass, [&plan] {
            for (const exp::ExperimentPoint &p : plan.points())
                buildTraffic(p);
        });
    }
}

// ---------------------------------------------------------------------
// crash-check.

const std::vector<Config> kConfigs{kAllConfigs.begin(),
                                   kAllConfigs.end()};

struct CrashSetup
{
    CampaignOptions campaign;
    ModelCheckOptions check;
    ConcCampaignOptions concCampaign;
    ConcCheckOptions concCheck;
};

CrashSetup
crashSetup(const Options &opt)
{
    CrashSetup s;
    CampaignOptions &c = s.campaign;
    c.app = AppId::Btree;
    c.seed = opt.seed;
    c.spec = RunSpec{opt.tiny ? 4u : 12u, 8, opt.seed};
    c.pointsPerConfig = opt.tiny ? 60 : 600;
    c.configs = kConfigs;
    c.jobs = 1;

    ModelCheckOptions &m = s.check;
    m.app = AppId::Btree;
    m.seed = opt.seed;
    m.spec = RunSpec{2, 2, opt.seed};
    m.appParams.seed = opt.seed;
    m.configs = kConfigs;
    m.maxStates = opt.tiny ? 300 : 2500;
    m.jobs = 1;

    ConcCampaignOptions &cc = s.concCampaign;
    cc.app = ConcApp::MsQueue;
    cc.seed = opt.seed;
    cc.cores = 2;
    cc.opsPerCore = opt.tiny ? 8 : 32;
    cc.workloadSeed = opt.seed;
    cc.pointsPerConfig = opt.tiny ? 60 : 0;
    cc.configs = kConfigs;
    cc.jobs = 1;

    ConcCheckOptions &ck = s.concCheck;
    ck.app = ConcApp::MsQueue;
    ck.seed = opt.seed;
    ck.cores = 2;
    ck.opsPerCore = opt.tiny ? 4 : 8;
    ck.workloadSeed = opt.seed;
    ck.configs = kConfigs;
    ck.jobs = 1;
    return s;
}

std::string
opName(const char *tool, Config cfg)
{
    return std::string(tool) + "/" + std::string(configName(cfg));
}

/**
 * Table III as a check: a safe config (B, IQ, WB) shows no bad
 * image; an unsafe one (SU, U) shows some when @p sensitive.
 */
std::string
crashProblem(Config cfg, std::uint64_t bad, bool sensitive)
{
    if (!configIsUnsafe(cfg))
        return bad ? "safe configuration produced a bad image" : "";
    if (sensitive && bad == 0)
        return "unsafe configuration showed no bad image";
    return "";
}

/** Trace instructions of every machine run crash-check makes. */
double
buildCrashWorkloads(const CrashSetup &s)
{
    double insts = 0;
    for (Config cfg : kConfigs) {
        WorkloadHarness campaign(s.campaign.app, cfg, s.campaign.spec);
        campaign.enableAudit();
        campaign.generate();
        WorkloadHarness check(s.check.app, cfg, s.check.spec,
                              s.check.appParams);
        check.enableAudit();
        check.generate();
        insts += static_cast<double>(campaign.trace().size() +
                                     check.trace().size());
        for (const auto &[app, cores, ops, seed, media] :
             {std::tuple{s.concCampaign.app, s.concCampaign.cores,
                         s.concCampaign.opsPerCore,
                         s.concCampaign.workloadSeed,
                         s.concCampaign.mediaFactor},
              std::tuple{s.concCheck.app, s.concCheck.cores,
                         s.concCheck.opsPerCore,
                         s.concCheck.workloadSeed,
                         s.concCheck.mediaFactor}}) {
            ConcParams p;
            p.cfg = cfg;
            p.cores = cores;
            p.opsPerCore = ops;
            p.seed = seed;
            p.paced = true;
            ConcurrentHarness h(app, p, media);
            h.generate();
            for (const Trace &t : h.traces())
                insts += static_cast<double>(t.size());
        }
    }
    return insts;
}

void
runCrash(Pass &pass)
{
    const Options &opt = pass.opt();
    const CrashSetup s = crashSetup(opt);
    std::vector<std::string> ops;
    for (const char *tool :
         {"fault_campaign", "model_check", "conc_campaign",
          "conc_check"})
        for (Config cfg : kConfigs)
            ops.push_back(opName(tool, cfg));
    pass.plan(ops);
    Tracer &tracer = pass.tracer();

    double campaignS = 0, concCampaignS = 0;
    std::uint64_t points = 0, durableSets = 0, uniqueImages = 0;
    const auto timed = [&tracer](const char *span, auto &&call,
                                 double &seconds) {
        SpanScope sc(tracer, span);
        const auto t0 = Clock::now();
        auto report = call();
        seconds = secondsBetween(t0, Clock::now());
        return report;
    };

    pass.startWorkload();
    const CampaignReport campaign = timed(
        "fault.campaign", [&] { return runCampaign(s.campaign); },
        campaignS);
    for (const CampaignConfigResult &r : campaign.configs) {
        Digest d;
        for (std::uint64_t v :
             {r.cycles, r.transientRejects, std::uint64_t(r.points),
              std::uint64_t(r.recovered), std::uint64_t(r.tornDetected),
              std::uint64_t(r.unrecoverable)})
            d.add(v);
        for (const CrashPointResult &p : r.results) {
            d.add(p.crashCycle);
            d.add(static_cast<std::uint64_t>(p.outcome));
            d.add(p.entriesTorn);
        }
        points += r.points;
        pass.op(opName("fault_campaign", r.config), r.cycles, d.hex(),
                crashProblem(r.config, r.unrecoverable, true));
    }

    double checkS = 0;
    const ModelCheckReport check = timed(
        "model_check.run", [&] { return runModelCheck(s.check); },
        checkS);
    for (const ModelCheckConfigResult &r : check.configs) {
        Digest d;
        for (std::uint64_t v :
             {r.cycles, std::uint64_t(r.events),
              std::uint64_t(r.freeEvents), r.states, r.rejectedBudget,
              r.tornVariants, r.uniqueImages, r.recoveredClean,
              r.tornLogDetected, r.violations,
              std::uint64_t(r.truncated)})
            d.add(v);
        durableSets += r.states;
        uniqueImages += r.uniqueImages;
        pass.op(opName("model_check", r.config), r.cycles, d.hex(),
                crashProblem(r.config, r.violations, true));
    }

    const ConcCampaignReport concCampaign = timed(
        "fault.conc_campaign",
        [&] { return runConcCampaign(s.concCampaign); },
        concCampaignS);
    for (const ConcCampaignConfigResult &r : concCampaign.configs) {
        Digest d;
        for (std::uint64_t v : {r.cycles, r.transientRejects, r.points,
                                r.remotePoints, r.recovered,
                                r.unrecoverable})
            d.add(v);
        for (const ConcCrashPointResult &p : r.results) {
            d.add(p.crashCycle);
            d.add(static_cast<std::uint64_t>(p.outcome));
            d.add(p.remoteOutstanding);
        }
        points += r.points;
        pass.op(opName("conc_campaign", r.config), r.cycles, d.hex(),
                crashProblem(r.config, r.unrecoverable, false));
    }

    double concCheckS = 0;
    const ConcCheckReport concCheck = timed(
        "model_check.conc_run",
        [&] { return runConcCheck(s.concCheck); }, concCheckS);
    for (const ConcCheckConfigResult &r : concCheck.configs) {
        Digest d;
        for (std::uint64_t v :
             {r.cycles, std::uint64_t(r.events),
              std::uint64_t(r.freeEvents), r.states, r.rejectedBudget,
              r.tornVariants, r.uniqueImages, r.recoveredClean,
              r.violations, std::uint64_t(r.truncated)})
            d.add(v);
        durableSets += r.states;
        uniqueImages += r.uniqueImages;
        pass.op(opName("conc_check", r.config), r.cycles, d.hex(),
                crashProblem(r.config, r.violations, false));
    }
    pass.endWorkload();

    pass.counters()
        .num("fault.points", static_cast<double>(points))
        .num("fault.images_per_s",
             points / std::max(1e-9, campaignS + concCampaignS))
        .num("model_check.durable_sets",
             static_cast<double>(durableSets))
        .num("model_check.unique_images",
             static_cast<double>(uniqueImages));

    // The campaigns simulate internally; their machine runs retire
    // exactly the traces built here.
    pass.setInsts(buildCrashWorkloads(s));
    if (!tracer.on())
        sampleSetup(pass, [&s] { buildCrashWorkloads(s); });
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(flag + " needs a value");
            return argv[++i];
        };
        const auto number = [&]() -> std::uint64_t {
            const std::string v = value();
            char *end = nullptr;
            const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage(flag + " needs a whole number, got '" + v + "'");
            return n;
        };
        if (flag == "--workload")
            opt.workload = value();
        else if (flag == "--seed")
            opt.seed = number();
        else if (flag == "--out")
            opt.out = value();
        else if (flag == "--work-dir")
            opt.workDir = value();
        else if (flag == "--trace")
            opt.traced = true;
        else if (flag == "--tiny")
            opt.tiny = true;
        else
            usage("unknown flag '" + flag + "'");
    }
    if (opt.out.empty() || opt.workDir.empty())
        usage("--out and --work-dir are required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    LineWriter out(opt.out);
    Pass pass(opt, out);
    if (opt.workload == "fig9-sweep")
        runFig9(pass);
    else if (opt.workload == "traffic-sweep")
        runTraffic(pass);
    else if (opt.workload == "crash-check")
        runCrash(pass);
    else
        usage("unknown workload '" + opt.workload + "'");
    if (opt.traced) {
        pass.counters().num("trace.span_cost_s",
                            spanCostSeconds() *
                                static_cast<double>(pass.tracer().size()));
    }
    pass.summary();
    return 0;
}
