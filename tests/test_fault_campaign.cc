/**
 * @file
 * End-to-end tests for the crash-injection campaign: Table III's
 * safety split under fault pressure, determinism from the root seed,
 * and reproducer formatting -- plus the journal branches of the
 * per-config sweep loop the four crash tools share (config_sweep.hh).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "exp/journal.hh"
#include "fault/campaign.hh"

namespace ede {
namespace {

CampaignOptions
smallOptions()
{
    CampaignOptions opts;
    opts.app = AppId::Update;
    opts.seed = 5;
    opts.pointsPerConfig = 40;
    opts.spec = RunSpec{/*txns=*/4, /*opsPerTxn=*/5, /*seed=*/11};
    opts.acceptFaultRate = 0.02;
    return opts;
}

TEST(Campaign, SafeConfigsCleanUnsafeConfigFails)
{
    const CampaignReport report = runCampaign(smallOptions());
    ASSERT_EQ(report.configs.size(), kAllConfigs.size());
    EXPECT_TRUE(report.safeConfigsClean());
    bool saw_unsafe_failure = false;
    for (const CampaignConfigResult &c : report.configs) {
        EXPECT_GT(c.points, 0u) << configName(c.config);
        EXPECT_EQ(c.points,
                  c.recovered + c.tornDetected + c.unrecoverable);
        if (!configIsUnsafe(c.config)) {
            EXPECT_EQ(c.unrecoverable, 0u) << configName(c.config);
            EXPECT_TRUE(c.failures.empty()) << configName(c.config);
        }
        if (c.config == Config::U && c.unrecoverable > 0)
            saw_unsafe_failure = true;
    }
    EXPECT_TRUE(saw_unsafe_failure)
        << "expected the fenceless configuration to lose data";
    // The summary must carry the verdict line.
    EXPECT_NE(report.describe().find("safe configurations clean"),
              std::string::npos);
}

TEST(Campaign, IsDeterministicInTheRootSeed)
{
    CampaignOptions opts = smallOptions();
    opts.configs = {Config::B, Config::U};
    const CampaignReport a = runCampaign(opts);
    const CampaignReport b = runCampaign(opts);
    ASSERT_EQ(a.configs.size(), b.configs.size());
    for (std::size_t i = 0; i < a.configs.size(); ++i) {
        EXPECT_EQ(a.configs[i].points, b.configs[i].points);
        EXPECT_EQ(a.configs[i].recovered, b.configs[i].recovered);
        EXPECT_EQ(a.configs[i].tornDetected,
                  b.configs[i].tornDetected);
        EXPECT_EQ(a.configs[i].unrecoverable,
                  b.configs[i].unrecoverable);
        ASSERT_EQ(a.configs[i].results.size(),
                  b.configs[i].results.size());
        for (std::size_t j = 0; j < a.configs[i].results.size(); ++j) {
            EXPECT_EQ(a.configs[i].results[j].crashCycle,
                      b.configs[i].results[j].crashCycle);
            EXPECT_EQ(a.configs[i].results[j].outcome,
                      b.configs[i].results[j].outcome);
        }
    }
}

TEST(Campaign, TornPlansExerciseLogChecksums)
{
    // Across the whole campaign the torn-persist plans must hit the
    // undo log at least once -- the checksum path is the reason a
    // safe configuration survives a torn final persist.
    const CampaignReport report = runCampaign(smallOptions());
    std::size_t torn = 0;
    for (const CampaignConfigResult &c : report.configs)
        torn += c.tornDetected;
    EXPECT_GT(torn, 0u);
}

TEST(Campaign, ReproducerDescribesTheFullTuple)
{
    Reproducer rep;
    rep.seed = 9;
    rep.config = Config::IQ;
    rep.crashCycle = 1234;
    rep.plan = makeFaultPlan(77, 128);
    const std::string s = rep.describe();
    EXPECT_NE(s.find("seed=9"), std::string::npos);
    EXPECT_NE(s.find("config=IQ"), std::string::npos);
    EXPECT_NE(s.find("crashCycle=1234"), std::string::npos);
    EXPECT_NE(s.find("faultPlan={"), std::string::npos);
}

TEST(Campaign, OutcomeNamesAreStable)
{
    EXPECT_STREQ(crashOutcomeName(CrashOutcome::Recovered),
                 "recovered");
    EXPECT_STREQ(crashOutcomeName(CrashOutcome::TornLogDetected),
                 "torn-log-detected");
    EXPECT_STREQ(crashOutcomeName(CrashOutcome::Unrecoverable),
                 "unrecoverable");
}

// ---------------------------------------------------------------- //
// The shared per-config sweep loop's journal branches, run with a
// stand-in tool whose payload is "fake <config> <text>".
// ---------------------------------------------------------------- //

struct FakeResult
{
    Config config = Config::B;
    std::string text;
};

std::string
fakePayload(Config cfg, const std::string &text)
{
    return "fake " + std::string(configName(cfg)) + " " + text;
}

std::optional<FakeResult>
parseFake(const std::string &payload)
{
    std::istringstream is(payload);
    std::string magic, name, text;
    if (!(is >> magic >> name >> text) || magic != "fake")
        return std::nullopt;
    const std::optional<Config> cfg = configFromName(name);
    if (!cfg)
        return std::nullopt;
    return FakeResult{*cfg, text};
}

constexpr std::uint64_t kFakeSweepId = 0x5eed;

class ConfigSweepLoop : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const std::string dir = "config_sweep_test_scratch/" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name());
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        iso.isolate = true;
        iso.retry.maxAttempts = 1;
        iso.journalPath = dir + "/sweep.journal";
    }

    static std::uint64_t
    fp(Config cfg)
    {
        return configFingerprint("fake", kFakeSweepId, cfg);
    }

    /** Run the sweep; every worker returns its "fresh" payload. */
    void
    run(const std::function<std::string(Config)> &work =
            [](Config cfg) { return fakePayload(cfg, "fresh"); })
    {
        results.clear();
        quarantined.clear();
        const ConfigSweep sweep{"fake", "fake", kFakeSweepId, configs,
                                /*jobs=*/1, iso, chaos};
        ASSERT_TRUE(sweepIsIsolated(sweep));
        runIsolatedConfigs(sweep, work, parseFake, results,
                           quarantined);
    }

    std::vector<Config> configs{Config::B, Config::IQ};
    exp::IsolationOptions iso;
    std::string chaos;
    std::vector<FakeResult> results;
    std::vector<QuarantinedConfig> quarantined;
};

TEST_F(ConfigSweepLoop, CorruptJournaledPayloadIsRerun)
{
    {
        exp::SweepJournal j(iso.journalPath, kFakeSweepId,
                            configs.size(), /*resume=*/false);
        j.recordOk(0, fp(Config::B), "garbage");
        j.recordOk(1, fp(Config::IQ),
                   fakePayload(Config::IQ, "journaled"));
    }
    iso.resume = true;
    run();
    EXPECT_TRUE(quarantined.empty());
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].config, Config::B);
    EXPECT_EQ(results[0].text, "fresh");  // Re-run, not replayed.
    EXPECT_EQ(results[1].config, Config::IQ);
    EXPECT_EQ(results[1].text, "journaled");

    // The re-run landed in the journal: a second resume replays
    // both configs, even with every worker now set to crash.
    chaos = "B";
    run([](Config) -> std::string { std::abort(); });
    EXPECT_TRUE(quarantined.empty());
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].text, "fresh");
    EXPECT_EQ(results[1].text, "journaled");
}

TEST_F(ConfigSweepLoop, JournaledQuarantineIsReplayedWithoutRerunning)
{
    {
        exp::SweepJournal j(iso.journalPath, kFakeSweepId,
                            configs.size(), /*resume=*/false);
        exp::JobFailure f;
        f.outcome = exp::JobOutcome::TimedOut;
        f.attempts = 3;
        f.message = "journaled verdict";
        j.recordQuarantine(0, fp(Config::B), f);
    }
    iso.resume = true;
    run();
    ASSERT_EQ(quarantined.size(), 1u);
    EXPECT_EQ(quarantined[0].config, Config::B);
    EXPECT_EQ(quarantined[0].failure.outcome, exp::JobOutcome::TimedOut);
    EXPECT_EQ(quarantined[0].failure.attempts, 3u);
    EXPECT_EQ(quarantined[0].failure.message, "journaled verdict");
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].config, Config::IQ);
    EXPECT_EQ(results[0].text, "fresh");
}

TEST_F(ConfigSweepLoop, PayloadFailingValidationIsQuarantinedAsCrashed)
{
    // B's worker ships garbage; IQ's ships a valid payload for the
    // wrong configuration.  Neither validates.
    run([](Config cfg) {
        return cfg == Config::B ? std::string("not a payload")
                                : fakePayload(Config::B, "misfiled");
    });
    EXPECT_TRUE(results.empty());
    ASSERT_EQ(quarantined.size(), 2u);
    for (const QuarantinedConfig &q : quarantined) {
        EXPECT_EQ(q.failure.outcome, exp::JobOutcome::Crashed)
            << configName(q.config);
        EXPECT_EQ(q.failure.message,
                  "worker payload failed fake validation");
    }
    EXPECT_EQ(quarantined[0].config, Config::B);
    EXPECT_EQ(quarantined[1].config, Config::IQ);

    // The quarantines are journaled verdicts: a resume with a now
    // healthy worker keeps them.
    iso.resume = true;
    run();
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(quarantined.size(), 2u);
}

} // namespace
} // namespace ede
