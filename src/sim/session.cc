#include "sim/session.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "traffic/overload.hh"

namespace ede {

namespace {

/** what() text: kind + cycle header, then the full dump. */
std::string
simFaultMessage(const SimError &error)
{
    std::ostringstream os;
    os << simErrorKindName(error.kind) << " at cycle " << error.cycle
       << " (last progress at " << error.lastProgressCycle << ")\n"
       << error.describe();
    return os.str();
}

/** A pre-simulation rejection as a result (no machine state). */
SimResult
rejected(SimErrorKind kind, std::string detail)
{
    SimResult r;
    r.error.kind = kind;
    r.error.detail = std::move(detail);
    return r;
}

} // namespace

SimFaultError::SimFaultError(SimError error)
    : std::runtime_error(simFaultMessage(error)),
      error_(std::move(error))
{
}

Session::Session(const SimConfig &config)
    : config_(config), system_(config)
{
}

SimResult
Session::run(const RunRequest &request)
{
    if (request.traffic.size() > 1) {
        return rejected(SimErrorKind::RunRequestInvalid,
                        "a request with several traffic plans has one "
                        "result per plan; run it through "
                        "Session::runEach");
    }
    return runEach(request).front();
}

std::vector<SimResult>
Session::runEach(const RunRequest &request)
{
    if (ran_) {
        return std::vector<SimResult>(
            std::max<std::size_t>(1, request.traffic.size()),
            rejected(SimErrorKind::SessionReused,
                     "Session::run is single-shot; build a new "
                     "Session per run"));
    }

    if (!request.traffic.empty())
        return runTraffic(request);

    if (request.traces.empty()) {
        return {rejected(SimErrorKind::RunRequestInvalid,
                         "RunRequest names no workload: pass traces "
                         "or a traffic plan")};
    }
    if (request.traces.size() != system_.coreCount()) {
        std::ostringstream os;
        os << "RunRequest needs one trace per core ("
           << system_.coreCount() << " cores, "
           << request.traces.size() << " traces)";
        return {rejected(SimErrorKind::RunRequestInvalid, os.str())};
    }

    ran_ = true;
    system_.run(request.traces);
    return {collect()};
}

std::vector<SimResult>
Session::runTraffic(const RunRequest &request)
{
    const std::vector<traffic::TrafficPlan> &plans = request.traffic;
    const Config cfg = system_.config();
    const unsigned cores = system_.coreCount();

    // Any rejection rejects the whole request: the first malformed
    // plan names the fault in every result.
    const auto rejectAll = [&](SimErrorKind kind, std::string detail) {
        return std::vector<SimResult>(
            plans.size(), rejected(kind, std::move(detail)));
    };
    for (const traffic::TrafficPlan &plan : plans) {
        const traffic::TrafficCheck check =
            traffic::validateTrafficPlan(plan, cfg, cores);
        if (!check.ok())
            return rejectAll(check.kind, check.message);
    }
    if (!request.traces.empty()) {
        return rejectAll(SimErrorKind::RunRequestInvalid,
                         "a traffic request builds its own traces; "
                         "pass either traces or a plan");
    }
    const traffic::TrafficPlan machine =
        traffic::machinePlan(plans.front());
    for (const traffic::TrafficPlan &plan : plans) {
        if (!(traffic::machinePlan(plan) == machine)) {
            return rejectAll(SimErrorKind::RunRequestInvalid,
                             "the traffic plans of one request must "
                             "share one traffic::machinePlan");
        }
    }

    // The replay-only knobs never shape the traces, so the machine
    // plan's workload is every plan's workload up to its arrival
    // stamps, which each replay redraws in turn.
    ran_ = true;
    system_.recordCompletions(true);
    traffic::TrafficWorkload workload =
        traffic::buildTrafficWorkload(machine, cfg, cores);
    system_.run(workload.traces);
    const SimResult machineRun = collect();

    std::vector<std::vector<Cycle>> completions;
    traffic::BackpressureSignal signal;
    if (machineRun.ok()) {
        completions.reserve(cores);
        for (unsigned c = 0; c < cores; ++c)
            completions.push_back(system_.completionCycles(c));
        // The machine's own congestion feeds the replay's admission
        // control: WPQ occupancy and accept rejects from this very
        // run scale the finite queue depth.
        const NvmDevice &nvm = system_.mem().controller().nvm();
        signal.occupancyPermille = nvm.meanOccupancyPermille();
        signal.rejectPermille = nvm.rejectPermille();
        signal.transientRejects = nvm.stats().transientRejects;
        signal.bufferFullRejects = nvm.stats().bufferFullRejects;
    }

    std::vector<SimResult> results(plans.size(), machineRun);
    for (std::size_t k = 0; k < plans.size(); ++k) {
        SimResult &r = results[k];
        if (k > 0)
            r.profile = HostProfile{};
        if (!r.ok())
            continue;
        traffic::stampArrivals(plans[k], workload);
        r.stats.traffic = traffic::computeTrafficResult(
            plans[k], workload, completions, signal);
    }
    return results;
}

SimResult
Session::collect() const
{
    SimResult r;
    r.stats = system_.result();
    if (const SimError *e = system_.firstError())
        r.error = *e;
    r.profile = system_.profile();
    return r;
}

} // namespace ede
