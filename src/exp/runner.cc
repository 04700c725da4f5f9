#include "exp/runner.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <unordered_map>

#include "apps/concurrent.hh"
#include "apps/harness.hh"
#include "common/logging.hh"
#include "sim/session.hh"
#include "exp/fingerprint.hh"
#include "exp/journal.hh"
#include "exp/result_cache.hh"
#include "exp/scheduler.hh"

namespace ede {
namespace exp {

namespace {

SimConfig
simConfigOf(const ExperimentPoint &point)
{
    return SimConfig::paper(point.config)
        .withCore(point.simParams.core)
        .withMem(point.simParams.mem)
        .withCoreCount(point.simParams.coreCount);
}

/**
 * Simulate one concurrent-kernel point (bench/fig_scaling): N
 * lock-step cores running buildConcurrentTraces through a Session.
 * There is no setup/transaction split, so opCycles is the machine
 * run length.  @p checked selects SimFaultError over a fatal error
 * on a structured simulator abort.
 */
ExperimentCell
simulateConcCell(const ExperimentPoint &point, std::uint64_t fp,
                 bool checked)
{
    const LogJobTag tag(point.label);
    ConcParams cp;
    cp.cfg = point.config;
    cp.cores = static_cast<unsigned>(point.simParams.coreCount);
    cp.opsPerCore = point.concOpsPerCore;
    cp.seed = point.concSeed;
    const std::vector<Trace> traces =
        buildConcurrentTraces(point.concApp, cp);

    Session session(simConfigOf(point));
    const SimResult r = session.run(RunRequest::perCore(traces));
    if (checked && !r.ok())
        throw SimFaultError(r.error);
    if (!r.ok()) {
        ede_fatal("conc cell '", point.label, "' aborted: ",
                  r.error.describe());
    }
    ExperimentCell cell;
    cell.point = point;
    cell.fingerprint = fp;
    cell.opCycles = r.stats.cycles;
    cell.result = r.stats;
    cell.profile = r.profile;
    return cell;
}

/**
 * Simulate open-loop traffic points (bench/fig_traffic) that share
 * one traffic::machinePlan: one Session runs the machine once and
 * replays it per point, each cell's result carrying its own exact
 * tail-latency records in stats.traffic.  Cells after the first are
 * sharedRun, and only the first carries the host profile.
 */
std::vector<ExperimentCell>
simulateTrafficGroup(const ExperimentPlan &plan,
                     const std::vector<std::size_t> &members,
                     const std::vector<std::uint64_t> &fps, bool checked)
{
    const ExperimentPoint &leader = plan.points()[members.front()];
    const LogJobTag tag(leader.label);
    std::vector<traffic::TrafficPlan> plans;
    for (std::size_t i : members)
        plans.push_back(plan.points()[i].trafficPlan);
    Session session(simConfigOf(leader));
    const std::vector<SimResult> runs =
        session.runEach(RunRequest::ofTraffic(std::move(plans)));

    std::vector<ExperimentCell> cells(members.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
        const ExperimentPoint &point = plan.points()[members[k]];
        const SimResult &r = runs[k];
        if (checked && !r.ok())
            throw SimFaultError(r.error);
        if (!r.ok()) {
            ede_fatal("traffic cell '", point.label, "' aborted: ",
                      r.error.describe());
        }
        ExperimentCell &cell = cells[k];
        cell.point = point;
        cell.fingerprint = fps[members[k]];
        cell.opCycles = r.stats.cycles;
        cell.result = r.stats;
        cell.profile = r.profile;
        cell.sharedRun = k > 0;
    }
    return cells;
}

/** Simulate one Table II application point through its harness. */
ExperimentCell
simulateAppCell(const ExperimentPoint &point, std::uint64_t fp,
                bool checked)
{
    const LogJobTag tag(point.label);
    WorkloadHarness h(point.app, point.config, point.spec,
                      point.appParams, point.simParams);
    h.generate();
    if (checked)
        h.simulateChecked();
    else
        h.simulate();
    ExperimentCell cell;
    cell.point = point;
    cell.fingerprint = fp;
    cell.opCycles = h.opPhaseCycles();
    cell.result = h.system().result();
    cell.profile = h.system().profile();
    return cell;
}

/**
 * Simulate the plan points @p members (one machine-run group, see
 * machineGroups) into one cell each, in order.  Shared verbatim by
 * the in-process path and the forked worker, so isolated results
 * are bit-identical to inline ones.
 */
std::vector<ExperimentCell>
simulateGroup(const ExperimentPlan &plan,
              const std::vector<std::size_t> &members,
              const std::vector<std::uint64_t> &fps, bool checked)
{
    const ExperimentPoint &point = plan.points()[members.front()];
    if (point.traffic)
        return simulateTrafficGroup(plan, members, fps, checked);
    ede_assert(members.size() == 1,
               "only traffic points share a machine run");
    const std::uint64_t fp = fps[members.front()];
    if (point.conc)
        return {simulateConcCell(point, fp, checked)};
    return {simulateAppCell(point, fp, checked)};
}

/**
 * Partition @p plan into machine-run groups, each in plan order with
 * its leader (lowest index) first.  Traffic points whose
 * traffic::machinePlan fingerprints alike form one group.  Every
 * other point is a group of one -- and so is a traffic point whose
 * plan fails validation: Session::runEach rejects a whole request on
 * one malformed plan, so alone it fails exactly as a lone cell,
 * never takes its siblings down and is never answered from their
 * run.
 */
std::vector<std::vector<std::size_t>>
machineGroups(const ExperimentPlan &plan)
{
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<std::uint64_t, std::size_t> byMachine;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const ExperimentPoint &point = plan.points()[i];
        if (!point.traffic ||
            !traffic::validateTrafficPlan(
                 point.trafficPlan, point.config,
                 static_cast<unsigned>(point.simParams.coreCount))
                 .ok()) {
            groups.push_back({i});
            continue;
        }
        ExperimentPoint machine = point;
        machine.trafficPlan = traffic::machinePlan(point.trafficPlan);
        const auto [it, fresh] =
            byMachine.emplace(fingerprintPoint(machine), groups.size());
        if (fresh)
            groups.push_back({i});
        else
            groups[it->second].push_back(i);
    }
    return groups;
}

/**
 * One isolated group's cells as one worker payload: per cell, the
 * snapshot's byte length on its own line, then the snapshot.
 */
std::string
joinSnapshots(const std::vector<ExperimentCell> &cells)
{
    std::string out;
    for (const ExperimentCell &cell : cells) {
        const std::string text = serializeCell(cell);
        out += std::to_string(text.size());
        out += '\n';
        out += text;
    }
    return out;
}

/** The snapshots of a joinSnapshots payload; nullopt unless @p count. */
std::optional<std::vector<std::string>>
splitSnapshots(const std::string &payload, std::size_t count)
{
    std::vector<std::string> texts;
    std::size_t pos = 0;
    while (pos < payload.size()) {
        const std::size_t nl = payload.find('\n', pos);
        if (nl == std::string::npos)
            return std::nullopt;
        std::size_t len = 0;
        const char *end = payload.data() + nl;
        const auto [ptr, ec] =
            std::from_chars(payload.data() + pos, end, len);
        if (ec != std::errc{} || ptr != end ||
            len > payload.size() - nl - 1) {
            return std::nullopt;
        }
        texts.push_back(payload.substr(nl + 1, len));
        pos = nl + 1 + len;
    }
    if (texts.size() != count)
        return std::nullopt;
    return texts;
}

ExperimentCell
quarantinedCell(const ExperimentPoint &point, std::uint64_t fp,
                JobFailure failure)
{
    ExperimentCell cell;
    cell.point = point;
    cell.fingerprint = fp;
    cell.failed = true;
    cell.failure = std::move(failure);
    return cell;
}

} // namespace

std::uint64_t
planSweepId(const ExperimentPlan &plan)
{
    FingerprintHasher h;
    h.field("sweep.points", static_cast<std::uint64_t>(plan.size()));
    for (const ExperimentPoint &p : plan.points())
        h.field("sweep.cell", fingerprintPoint(p));
    return h.value();
}

ExperimentResults
runPlan(const ExperimentPlan &plan, const RunnerOptions &options)
{
    const bool isolated = options.isolation == IsolationMode::Process;
    if (isolated && !processIsolationSupported())
        ede_fatal("process isolation is not supported on this platform");
    if (!options.journalPath.empty() && !isolated) {
        ede_fatal("the sweep journal requires process isolation "
                  "(--isolate)");
    }

    const Scheduler sched(options.jobs);
    std::optional<ResultCache> cache;
    if (!options.cacheDir.empty())
        cache.emplace(options.cacheDir);
    std::optional<SweepJournal> journal;
    if (!options.journalPath.empty()) {
        journal.emplace(options.journalPath, planSweepId(plan),
                        plan.size(), options.resume);
    }

    std::vector<std::uint64_t> fps(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i)
        fps[i] = fingerprintPoint(plan.points()[i]);
    const std::vector<std::vector<std::size_t>> groups =
        machineGroups(plan);
    std::vector<ExperimentCell> cells(plan.size());

    // Fill cell @p i from the journal or the cache; false on a miss.
    auto restore = [&](std::size_t i) {
        const ExperimentPoint &point = plan.points()[i];
        const std::uint64_t fp = fps[i];
        if (journal && options.resume) {
            const auto it = journal->replayed().find(i);
            if (it != journal->replayed().end() &&
                it->second.fingerprint == fp) {
                const JournalEntry &e = it->second;
                if (e.ok) {
                    if (std::optional<ExperimentCell> cell =
                            deserializeCell(e.payload, point, fp)) {
                        cell->fromCache = false;
                        cell->fromJournal = true;
                        cells[i] = std::move(*cell);
                        return true;
                    }
                    // Corrupt payload: fall through and re-run.
                } else {
                    cells[i] = quarantinedCell(point, fp, e.failure);
                    return true;
                }
            }
        }
        if (cache) {
            if (std::optional<ExperimentCell> hit =
                    cache->load(point, fp)) {
                if (journal)
                    journal->recordOk(i, fp, serializeCell(*hit));
                cells[i] = std::move(*hit);
                return true;
            }
        }
        return false;
    };

    // One machine-run group: lookups stay per cell, the misses are
    // simulated by one run, and each cell is stored and journaled
    // under its own fingerprint.
    auto runGroup = [&](std::size_t g) {
        std::vector<std::size_t> misses;
        for (std::size_t i : groups[g]) {
            if (!restore(i))
                misses.push_back(i);
        }
        if (misses.empty())
            return;

        if (!isolated) {
            std::vector<ExperimentCell> fresh =
                simulateGroup(plan, misses, fps, /*checked=*/false);
            for (std::size_t k = 0; k < misses.size(); ++k) {
                cells[misses[k]] = std::move(fresh[k]);
                if (cache)
                    cache->store(cells[misses[k]]);
            }
            return;
        }

        const WorkerRun run = runWithRetry(
            [&]() -> std::string {
                for (std::size_t i : misses) {
                    if (!options.chaosCrashLabel.empty() &&
                        plan.points()[i].label ==
                            options.chaosCrashLabel) {
                        std::abort();
                    }
                }
                return joinSnapshots(
                    simulateGroup(plan, misses, fps, /*checked=*/true));
            },
            options.limits, options.retry,
            /*jitterSeed=*/fps[misses.front()]);

        JobFailure failure = run.failure;
        if (run.ok()) {
            const std::optional<std::vector<std::string>> texts =
                splitSnapshots(run.payload, misses.size());
            std::vector<ExperimentCell> fresh;
            for (std::size_t k = 0; texts && k < misses.size(); ++k) {
                const std::size_t i = misses[k];
                std::optional<ExperimentCell> cell = deserializeCell(
                    (*texts)[k], plan.points()[i], fps[i]);
                if (!cell)
                    break;
                cell->fromCache = false;
                cell->sharedRun = k > 0;
                fresh.push_back(std::move(*cell));
            }
            if (fresh.size() == misses.size()) {
                for (std::size_t k = 0; k < misses.size(); ++k) {
                    const std::size_t i = misses[k];
                    cells[i] = std::move(fresh[k]);
                    if (cache)
                        cache->store(cells[i]);
                    if (journal)
                        journal->recordOk(i, fps[i], (*texts)[k]);
                }
                return;
            }
            failure = JobFailure{};
            failure.outcome = JobOutcome::Crashed;
            failure.attempts = run.failure.attempts;
            failure.message = "worker payload failed snapshot validation";
        } else {
            for (std::size_t i : misses) {
                ede_warn("cell '", plan.points()[i].label,
                         "' quarantined: ", failure.describe());
            }
        }
        for (std::size_t i : misses) {
            cells[i] = quarantinedCell(plan.points()[i], fps[i], failure);
            if (journal)
                journal->recordQuarantine(i, fps[i], failure);
        }
    };

    if (isolated) {
        // Failures are classified into the cells themselves; a job
        // never throws, so every cell always lands.
        sched.run(groups.size(), runGroup, FailureMode::KeepGoing);
    } else {
        // The historical contract: first failure (lowest index)
        // propagates after in-flight jobs drain.
        sched.parallelFor(groups.size(), runGroup);
    }

    ExperimentResults results(std::move(cells));
    if (options.printSummary) {
        std::printf("[exp] %zu cells: %zu cached, %zu replayed, "
                    "%zu simulated in %zu machine runs, "
                    "%zu quarantined (jobs=%u%s%s)\n",
                    results.size(), results.cacheHits(),
                    results.journalReplays(), results.simulated(),
                    results.machineRuns(), results.failures().size(),
                    sched.jobs(),
                    cache ? (", cache=" + cache->dir()).c_str()
                          : ", cache off",
                    isolated ? ", isolated" : "");
        for (const ExperimentCell *f : results.failures()) {
            std::printf("[exp] quarantined '%s': %s\n",
                        f->point.label.c_str(),
                        f->failure.describe().c_str());
        }
        std::fflush(stdout);
    }
    return results;
}

} // namespace exp
} // namespace ede
