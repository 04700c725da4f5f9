#include "fault/config_sweep.hh"

#include <cstdlib>
#include <ostream>

#include "common/logging.hh"
#include "exp/fingerprint.hh"
#include "exp/journal.hh"
#include "exp/json.hh"
#include "exp/scheduler.hh"

namespace ede {

std::uint64_t
configFingerprint(std::string_view fieldPrefix, std::uint64_t sweepId,
                  Config cfg)
{
    const std::string prefix(fieldPrefix);
    exp::FingerprintHasher h;
    h.field(prefix + ".sweep", sweepId);
    h.field(prefix + ".config", configName(cfg));
    return h.value();
}

bool
sweepIsIsolated(const ConfigSweep &sweep)
{
    if (!sweep.isolation.journalPath.empty() && !sweep.isolation.isolate) {
        ede_fatal("the ", sweep.label, " journal requires process "
                  "isolation (--isolate)");
    }
    return sweep.isolation.isolate;
}

std::vector<QuarantinedConfig>
runConfigWorkers(
    const ConfigSweep &sweep,
    const std::function<std::string(Config)> &work,
    const std::function<bool(std::size_t, const std::string &)> &accept)
{
    if (!exp::processIsolationSupported())
        ede_fatal("process isolation is not supported on this platform");

    const exp::IsolationOptions &iso = sweep.isolation;
    const std::size_t n = sweep.configs.size();
    std::optional<exp::SweepJournal> journal;
    if (!iso.journalPath.empty())
        journal.emplace(iso.journalPath, sweep.sweepId, n, iso.resume);

    std::vector<std::optional<QuarantinedConfig>> poisoned(n);
    auto runConfig = [&](std::size_t i) {
        const Config cfg = sweep.configs[i];
        const std::uint64_t fp =
            configFingerprint(sweep.fieldPrefix, sweep.sweepId, cfg);

        if (journal && iso.resume) {
            const auto it = journal->replayed().find(i);
            if (it != journal->replayed().end() &&
                it->second.fingerprint == fp) {
                const exp::JournalEntry &e = it->second;
                if (!e.ok) {
                    poisoned[i] = QuarantinedConfig{cfg, e.failure};
                    return;
                }
                if (accept(i, e.payload))
                    return;
                // Corrupt payload: fall through and re-run.
            }
        }

        const exp::WorkerRun run = exp::runWithRetry(
            [&]() -> std::string {
                if (configName(cfg) == sweep.chaosCrashConfig)
                    std::abort();
                return work(cfg);
            },
            iso.limits, iso.retry, /*jitterSeed=*/fp);

        exp::JobFailure failure = run.failure;
        if (run.ok()) {
            if (accept(i, run.payload)) {
                if (journal)
                    journal->recordOk(i, fp, run.payload);
                return;
            }
            failure = exp::JobFailure{};
            failure.outcome = exp::JobOutcome::Crashed;
            failure.attempts = run.failure.attempts;
            failure.message = "worker payload failed " +
                              std::string(sweep.label) + " validation";
        }
        ede_warn("config '", configName(cfg), "' quarantined: ",
                 failure.describe());
        if (journal)
            journal->recordQuarantine(i, fp, failure);
        poisoned[i] = QuarantinedConfig{cfg, std::move(failure)};
    };

    const exp::Scheduler sched(sweep.jobs);
    sched.run(n, runConfig, exp::FailureMode::KeepGoing);

    std::vector<QuarantinedConfig> quarantined;
    for (std::optional<QuarantinedConfig> &q : poisoned) {
        if (q)
            quarantined.push_back(std::move(*q));
    }
    return quarantined;
}

void
describeQuarantined(std::ostream &os,
                    const std::vector<QuarantinedConfig> &q)
{
    for (const QuarantinedConfig &c : q) {
        os << "  " << configName(c.config) << ": QUARANTINED ("
           << c.failure.describe() << ")\n";
    }
}

void
writeQuarantinedJson(std::ostream &os,
                     const std::vector<QuarantinedConfig> &q)
{
    os << "  \"quarantined\": [\n";
    for (std::size_t i = 0; i < q.size(); ++i) {
        const exp::JobFailure &f = q[i].failure;
        os << "    {\"config\": \"" << configName(q[i].config)
           << "\", \"outcome\": \"" << exp::jobOutcomeName(f.outcome)
           << "\", \"signal\": " << f.signal << ", \"exit_code\": "
           << f.exitCode << ", \"attempts\": " << f.attempts
           << ", \"message\": \"" << exp::jsonEscape(f.message)
           << "\", \"stderr_tail\": \"" << exp::jsonEscape(f.stderrTail)
           << "\"}" << (i + 1 < q.size() ? ",\n" : "\n");
    }
    os << "  ],\n";
}

} // namespace ede
