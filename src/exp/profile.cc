#include "exp/profile.hh"

#include <cstdio>
#include <sstream>

#include "exp/json.hh"

namespace ede {

std::string
describeProfile(const HostProfile &profile)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%.2f Mcyc/s, %.1f%% skipped (%s ticking)",
                  profile.cyclesPerHostSecond() / 1e6,
                  profile.skipRatio() * 100.0,
                  profile.referenceTicking ? "reference" : "skip-ahead");
    return buf;
}

std::string
profileToJson(const HostProfile &profile, const std::string &indent)
{
    std::ostringstream os;
    os << "{\n";
    os << indent << "  \"reference_ticking\": "
       << (profile.referenceTicking ? "true" : "false") << ",\n";
    os << indent << "  \"wall_nanos\": " << profile.wallNanos << ",\n";
    os << indent << "  \"mem_nanos\": " << profile.memNanos << ",\n";
    os << indent << "  \"fetch_nanos\": " << profile.fetchNanos
       << ",\n";
    os << indent << "  \"issue_nanos\": " << profile.issueNanos
       << ",\n";
    os << indent << "  \"wb_nanos\": " << profile.wbNanos << ",\n";
    os << indent << "  \"host_ticks\": " << profile.hostTicks << ",\n";
    os << indent << "  \"skip_jumps\": " << profile.skipJumps << ",\n";
    os << indent << "  \"skip_attempts\": " << profile.skipAttempts
       << ",\n";
    os << indent << "  \"skip_nanos\": " << profile.skipNanos << ",\n";
    os << indent << "  \"cycles_skipped\": " << profile.cyclesSkipped
       << ",\n";
    os << indent << "  \"cycles_simulated\": "
       << profile.cyclesSimulated << ",\n";
    os << indent << "  \"cycles_per_host_sec\": "
       << exp::jsonDouble(profile.cyclesPerHostSecond()) << ",\n";
    os << indent << "  \"skip_ratio\": "
       << exp::jsonDouble(profile.skipRatio()) << "\n";
    os << indent << "}";
    return os.str();
}

} // namespace ede
