#include "exp/plan.hh"

namespace ede {
namespace exp {

std::string
pointLabel(AppId app, Config cfg)
{
    return std::string(appName(app)) + "/" +
           std::string(configName(cfg));
}

std::string_view
pointAppName(const ExperimentPoint &point)
{
    if (point.traffic)
        return "traffic";
    return point.conc ? concAppName(point.concApp) : appName(point.app);
}

ExperimentPlan &
ExperimentPlan::add(ExperimentPoint point)
{
    if (point.label.empty())
        point.label = pointLabel(point.app, point.config);
    points_.push_back(std::move(point));
    return *this;
}

ExperimentPlan &
ExperimentPlan::addCell(AppId app, Config cfg, const RunSpec &spec,
                        const AppParams &app_params)
{
    ExperimentPoint p;
    p.app = app;
    p.config = cfg;
    p.spec = spec;
    p.appParams = app_params;
    p.simParams = makeParams(cfg);
    return add(std::move(p));
}

ExperimentPlan &
ExperimentPlan::addGrid(const std::vector<AppId> &apps,
                        const std::vector<Config> &configs,
                        const RunSpec &spec, const AppParams &app_params)
{
    for (AppId app : apps) {
        for (Config cfg : configs)
            addCell(app, cfg, spec, app_params);
    }
    return *this;
}

ExperimentPlan &
ExperimentPlan::addTweakAxis(const std::string &axis, AppId app,
                             const std::vector<Config> &configs,
                             const RunSpec &spec,
                             const std::function<void(SimParams &)> &tweak)
{
    for (Config cfg : configs) {
        ExperimentPoint p;
        p.label = axis + "/" + std::string(configName(cfg));
        p.app = app;
        p.config = cfg;
        p.spec = spec;
        p.simParams = makeParams(cfg);
        tweak(p.simParams);
        add(std::move(p));
    }
    return *this;
}

} // namespace exp
} // namespace ede
