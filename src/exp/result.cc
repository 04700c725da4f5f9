#include "exp/result.hh"

#include "common/logging.hh"

namespace ede {
namespace exp {

namespace {

std::pair<int, int>
keyOf(AppId app, Config cfg)
{
    return {static_cast<int>(app), static_cast<int>(cfg)};
}

} // namespace

ExperimentResults::ExperimentResults(std::vector<ExperimentCell> cells)
    : cells_(std::move(cells))
{
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const ExperimentCell &c = cells_[i];
        // First occurrence wins, so grid lookups land on the plan's
        // canonical cell even when an axis re-runs the same pair.
        byKey_.emplace(keyOf(c.point.app, c.point.config), i);
        byLabel_.emplace(c.point.label, i);
        if (c.failed)
            failures_.push_back(&c);
        else if (c.fromCache)
            ++cacheHits_;
        else if (c.fromJournal)
            ++journalReplays_;
        else if (c.sharedRun)
            ++sharedRuns_;
    }
}

const ExperimentCell *
ExperimentResults::find(AppId app, Config cfg) const
{
    const auto it = byKey_.find(keyOf(app, cfg));
    return it == byKey_.end() ? nullptr : &cells_[it->second];
}

const ExperimentCell &
ExperimentResults::cell(AppId app, Config cfg) const
{
    const ExperimentCell *c = find(app, cfg);
    if (!c) {
        ede_fatal("no cell for app '", appName(app), "' config '",
                  configName(cfg), "' in this ", cells_.size(),
                  "-cell experiment (was it in the plan / --app list?)");
    }
    if (c->failed) {
        ede_fatal("cell for app '", appName(app), "' config '",
                  configName(cfg), "' was quarantined: ",
                  c->failure.describe());
    }
    return *c;
}

const ExperimentCell *
ExperimentResults::findByLabel(const std::string &label) const
{
    const auto it = byLabel_.find(label);
    return it == byLabel_.end() ? nullptr : &cells_[it->second];
}

const ExperimentCell &
ExperimentResults::cellByLabel(const std::string &label) const
{
    const ExperimentCell *c = findByLabel(label);
    if (!c) {
        ede_fatal("no cell labeled '", label, "' in this ",
                  cells_.size(), "-cell experiment");
    }
    if (c->failed) {
        ede_fatal("cell labeled '", label, "' was quarantined: ",
                  c->failure.describe());
    }
    return *c;
}

} // namespace exp
} // namespace ede
