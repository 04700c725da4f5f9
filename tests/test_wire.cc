/**
 * @file
 * The text codec (exp/wire.hh) against payloads frozen from the
 * hand-written serializers it replaced (tests/golden/wire/).
 *
 * Every fixture must read back and print again byte for byte, and
 * every malformation the readers guard against -- input from disk
 * and from worker pipes -- must be refused.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/result_cache.hh"
#include "fault/campaign.hh"
#include "fault/conc_campaign.hh"
#include "fault/conc_check.hh"
#include "fault/model_check/checker.hh"
#include "verify/fuzz.hh"

namespace ede {
namespace {

/** Read then print again; nullopt when the reader refuses @p text. */
using Reprint = std::function<std::optional<std::string>(
    const std::string &text)>;

std::string
fixture(const std::string &name)
{
    std::ifstream in(std::string(EDE_GOLDEN_DIR) + "/wire/" + name,
                     std::ios::binary);
    EXPECT_TRUE(in) << name;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

template <class R>
Reprint
through(std::optional<R> (*read)(const std::string &),
        std::string (*write)(const R &))
{
    return [=](const std::string &text) -> std::optional<std::string> {
        const std::optional<R> rec = read(text);
        if (!rec)
            return std::nullopt;
        return write(*rec);
    };
}

/** Snapshots stored under @p point and the fingerprint @p name has. */
Reprint
snapshotOf(exp::ExperimentPoint point, const std::string &name)
{
    const std::string stored = fixture(name);
    const std::size_t at = stored.find("fingerprint ");
    EXPECT_NE(at, std::string::npos) << name;
    const std::uint64_t fp =
        std::stoull(stored.substr(at + 12, 16), nullptr, 16);
    return [=](const std::string &text) -> std::optional<std::string> {
        const auto cell = exp::deserializeCell(text, point, fp);
        if (!cell)
            return std::nullopt;
        return exp::serializeCell(*cell);
    };
}

exp::ExperimentPoint
appPoint(AppId app, Config cfg)
{
    exp::ExperimentPoint p;
    p.app = app;
    p.config = cfg;
    return p;
}

exp::ExperimentPoint
concPoint(ConcApp app, Config cfg)
{
    exp::ExperimentPoint p;
    p.conc = true;
    p.concApp = app;
    p.config = cfg;
    return p;
}

exp::ExperimentPoint
trafficPoint(Config cfg)
{
    exp::ExperimentPoint p;
    p.traffic = true;
    p.config = cfg;
    return p;
}

struct Format
{
    const char *fixture;
    Reprint reprint;
};

const std::vector<Format> &
formats()
{
    static const std::vector<Format> all = {
        {"snapshot_update_wb.txt",
         snapshotOf(appPoint(AppId::Update, Config::WB),
                    "snapshot_update_wb.txt")},
        {"snapshot_msqueue_2core_wb.txt",
         snapshotOf(concPoint(ConcApp::MsQueue, Config::WB),
                    "snapshot_msqueue_2core_wb.txt")},
        {"snapshot_traffic_overload_wb.txt",
         snapshotOf(trafficPoint(Config::WB),
                    "snapshot_traffic_overload_wb.txt")},
        {"campaign_update_u.txt",
         through(&deserializeConfigResult, &serializeConfigResult)},
        {"conc_campaign_rcu_wb.txt",
         through(&deserializeConcCampaignResult,
                 &serializeConcCampaignResult)},
        {"conc_check_rwlock_iq.txt",
         through(&deserializeConcCheckResult, &serializeConcCheckResult)},
        {"model_check_update_iq.txt",
         through(&deserializeModelCheckResult,
                 &serializeModelCheckResult)},
        {"prog_failure.txt",
         through(&deserializeProgResult, &serializeProgResult)},
        {"prog_hwfault.txt",
         through(&deserializeProgResult, &serializeProgResult)},
    };
    return all;
}

const Reprint &
reprintOf(const std::string &name)
{
    for (const Format &f : formats()) {
        if (name == f.fixture)
            return f.reprint;
    }
    ADD_FAILURE() << "no format for " << name;
    static const Reprint none;
    return none;
}

TEST(WireFixtures, EveryFixtureReprintsByteForByte)
{
    for (const Format &f : formats()) {
        const std::string text = fixture(f.fixture);
        ASSERT_FALSE(text.empty()) << f.fixture;
        const std::optional<std::string> again = f.reprint(text);
        ASSERT_TRUE(again.has_value()) << f.fixture;
        EXPECT_EQ(*again, text) << f.fixture;
    }
}

TEST(WireFixtures, TruncatedFixturesAreRefused)
{
    for (const Format &f : formats()) {
        const std::string text = fixture(f.fixture);
        EXPECT_FALSE(f.reprint("").has_value()) << f.fixture;
        // A cut inside the last token of a prog payload, its
        // escaped failure text, still reads; a third never does.
        const std::string part = text.substr(0, text.size() / 3);
        EXPECT_FALSE(f.reprint(part).has_value()) << f.fixture;
    }
}

/**
 * One malformation of @p fixture: each edit replaces the first
 * occurrence of its first string by its second.  Each isolates one
 * check -- the rest of the text stays well formed.
 */
struct Mutation
{
    const char *fixture;
    std::vector<std::pair<std::string, std::string>> edits;
};

const Mutation kMutations[] = {
    // Magic strings and the snapshot schema.
    {"snapshot_update_wb.txt",
     {{"ede-exp-snapshot 8", "ede-exp-snapshot 7"}}},
    {"snapshot_update_wb.txt",
     {{"ede-exp-snapshot", "ede-exp-snapshop"}}},
    {"campaign_update_u.txt",
     {{"ede-campaign-config-v1", "ede-campaign-config-v2"}}},
    {"conc_campaign_rcu_wb.txt",
     {{"ede-conc-campaign-v1", "ede-conc-campaign-v2"}}},
    {"conc_check_rwlock_iq.txt",
     {{"ede-concheck-config-v1", "ede-concheck-config-v2"}}},
    {"model_check_update_iq.txt",
     {{"ede-modelcheck-config-v1", "ede-modelcheck-config-v2"}}},
    {"prog_hwfault.txt", {{"ede-fuzz-prog-v1", "ede-fuzz-prog-v2"}}},

    // Snapshot identity: fingerprint, app and config of the point.
    {"snapshot_update_wb.txt", {{"fingerprint b2f8", "fingerprint b2f9"}}},
    {"snapshot_update_wb.txt", {{"\napp update\n", "\napp swap\n"}}},
    {"snapshot_msqueue_2core_wb.txt",
     {{"\napp msqueue\n", "\napp rcu\n"}}},
    {"snapshot_traffic_overload_wb.txt",
     {{"\napp traffic\n", "\napp update\n"}}},
    {"snapshot_update_wb.txt", {{"\nconfig WB\n", "\nconfig IQ\n"}}},

    // Unknown config names.
    {"campaign_update_u.txt", {{"\nconfig U\n", "\nconfig V\n"}}},
    {"conc_campaign_rcu_wb.txt", {{"\nf 42 WB ", "\nf 42 XB "}}},
    {"conc_check_rwlock_iq.txt", {{"\nconfig IQ\n", "\nconfig IQQ\n"}}},
    {"model_check_update_iq.txt", {{"\nconfig IQ\n", "\nconfig iq\n"}}},

    // Outcome, tear and program-class enums out of range.
    {"campaign_update_u.txt", {{"\np 50 2 0 ", "\np 50 3 0 "}}},
    {"campaign_update_u.txt", {{"\np 50 2 0 ", "\np 50 -1 0 "}}},
    {"conc_campaign_rcu_wb.txt", {{"\np 493 0 0 ", "\np 493 3 0 "}}},
    {"campaign_update_u.txt",
     {{"5715507132256462957 78 3 0 3", "5715507132256462957 78 4 0 3"}}},
    {"conc_campaign_rcu_wb.txt",
     {{"13223014536263450086 4294967295 0 0 3",
       "13223014536263450086 4294967295 4 0 3"}}},
    {"prog_hwfault.txt", {{"ede-fuzz-prog-v1 2 ", "ede-fuzz-prog-v1 3 "}}},

    // 0/1 flags set to 2.
    {"snapshot_update_wb.txt", {{"\ntraffic 0\n", "\ntraffic 2\n"}}},
    {"snapshot_traffic_overload_wb.txt", {{"\ntw 0 1\n", "\ntw 0 2\n"}}},
    {"snapshot_traffic_overload_wb.txt",
     {{"\ntOverload 1\n", "\ntOverload 2\n"}}},
    {"conc_campaign_rcu_wb.txt", {{"\np 493 0 0 ", "\np 493 0 2 "}}},
    {"conc_check_rwlock_iq.txt",
     {{"tallies 56 0 255 40 36 4 0 ", "tallies 56 0 255 40 36 4 2 "}}},
    {"model_check_update_iq.txt",
     {{"tallies 18 0 60 23 19 2 4 0 ", "tallies 18 0 60 23 19 2 4 2 "}}},
    {"prog_hwfault.txt",
     {{"ede-fuzz-prog-v1 2 1 ", "ede-fuzz-prog-v1 2 2 "}}},

    // Core counts: at least one, and one per-core record each.
    {"snapshot_update_wb.txt",
     {{"\ncoreCount 1\n", "\ncoreCount 0\n"},
      {"\ntraffic 0\n", "\nperCore 0\ntraffic 0\n"}}},
    {"snapshot_msqueue_2core_wb.txt",
     {{"\ncoreCount 2\n", "\ncoreCount 3\n"}}},

    // Histogram and distribution geometry.
    {"snapshot_update_wb.txt",
     {{"\nissueHist 9 56369 3892 3718 3814 15 0 0 0 0 saturated",
       "\nissueHist 8 56369 3892 3718 3814 15 0 0 0 saturated"}}},
    {"snapshot_msqueue_2core_wb.txt",
     {{"\npcHist 9 3818 76 23 1 1 0 0 0 0 saturated",
       "\npcHist 10 3818 76 23 1 1 0 0 0 0 0 saturated"}}},
    {"snapshot_update_wb.txt",
     {{"\nnvmOccupancy 128 1 129 0 ", "\nnvmOccupancy 128 1 128 "}}},
    {"snapshot_update_wb.txt",
     {{"\nnvmOccupancy 128 1 129 ", "\nnvmOccupancy 128 2 129 "}}},
};

/** @p m applied to its fixture (a failure if an edit finds nothing). */
std::string
mutated(const Mutation &m)
{
    std::string text = fixture(m.fixture);
    for (const auto &[from, to] : m.edits) {
        const std::size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos)
            << m.fixture << ": '" << from << "' not found";
        if (at != std::string::npos)
            text.replace(at, from.size(), to);
    }
    return text;
}

TEST(WireFixtures, EveryMalformationIsRefused)
{
    for (const Mutation &m : kMutations) {
        EXPECT_FALSE(reprintOf(m.fixture)(mutated(m)).has_value())
            << m.fixture << ": '" << m.edits[0].first << "' -> '"
            << m.edits[0].second << "'";
    }
}

/** The traffic fixture with its last window repeated to @p n. */
std::string
trafficWithWindows(std::size_t n)
{
    const std::string text = fixture("snapshot_traffic_overload_wb.txt");
    const std::size_t last = text.find("\ntw 7 0\n");
    const std::size_t end = text.find("\ntStreams ");
    EXPECT_NE(last, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    std::string out = text.substr(0, last + 1);
    for (std::size_t w = 7; w < n; ++w)
        out += text.substr(last + 1, end - last);
    out += text.substr(end + 1);
    const std::string count = "\ntWindows 8\n";
    out.replace(out.find(count), count.size(),
                "\ntWindows " + std::to_string(n) + "\n");
    return out;
}

TEST(WireFixtures, AtMost64LatencyWindows)
{
    const Reprint &reprint = reprintOf("snapshot_traffic_overload_wb.txt");
    const std::string most = trafficWithWindows(64);
    const std::optional<std::string> again = reprint(most);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, most);
    EXPECT_FALSE(reprint(trafficWithWindows(65)).has_value());
}

} // namespace
} // namespace ede
