#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>

#include "common/metrics.h"

namespace morph {
namespace {

/// Resets the global registry around each test so tests compose in one
/// process (each ctest entry runs in its own process, but a bare gtest run
/// executes them back to back against the same singleton).
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Instance().DisableAll();
    Failpoints::Instance().ResetCounters();
  }
  void TearDown() override {
    Failpoints::Instance().SetTracing(false);
    Failpoints::Instance().DisableAll();
    Failpoints::Instance().ResetCounters();
  }
};

TEST_F(FailpointTest, DisarmedIsFree) {
  EXPECT_FALSE(Failpoints::armed());
  // The macro takes the early-out path; Evaluate is never called, so the
  // site is not even registered.
  MORPH_FAILPOINT_VOID("fp_test.never_armed");
  EXPECT_TRUE(
      Failpoints::Instance().SitesMatching("fp_test.never_armed").empty());
}

TEST_F(FailpointTest, ErrorInjection) {
  auto& fps = Failpoints::Instance();
  fps.Error("fp_test.err", Status::IOError("boom"));
  EXPECT_TRUE(Failpoints::armed());
  const Status st = fps.Evaluate("fp_test.err");
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(fps.hits("fp_test.err"), 1u);
  EXPECT_EQ(fps.fires("fp_test.err"), 1u);
  fps.Disable("fp_test.err");
  EXPECT_FALSE(Failpoints::armed());
  EXPECT_TRUE(fps.Evaluate("fp_test.err").ok());
}

TEST_F(FailpointTest, CrashThrows) {
  auto& fps = Failpoints::Instance();
  fps.Crash("fp_test.crash");
  try {
    fps.Evaluate("fp_test.crash");
    FAIL() << "expected CrashException";
  } catch (const CrashException& e) {
    EXPECT_EQ(e.point(), "fp_test.crash");
    EXPECT_NE(std::string(e.what()).find("fp_test.crash"), std::string::npos);
  }
}

TEST_F(FailpointTest, CountGating) {
  auto& fps = Failpoints::Instance();
  Failpoints::Config config;
  config.action = Failpoints::Action::kError;
  config.error = Status::Busy("gated");
  config.fire_on_hit = 3;
  config.max_fires = 2;
  fps.Enable("fp_test.gated", config);
  EXPECT_TRUE(fps.Evaluate("fp_test.gated").ok());   // hit 1
  EXPECT_TRUE(fps.Evaluate("fp_test.gated").ok());   // hit 2
  EXPECT_TRUE(fps.Evaluate("fp_test.gated").IsBusy());  // hit 3: fire 1
  EXPECT_TRUE(fps.Evaluate("fp_test.gated").IsBusy());  // hit 4: fire 2
  EXPECT_TRUE(fps.Evaluate("fp_test.gated").ok());   // max_fires exhausted
  EXPECT_EQ(fps.hits("fp_test.gated"), 5u);
  EXPECT_EQ(fps.fires("fp_test.gated"), 2u);
}

TEST_F(FailpointTest, DelaySleeps) {
  auto& fps = Failpoints::Instance();
  fps.Delay("fp_test.delay", 20'000);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(fps.Evaluate("fp_test.delay").ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 15'000);
}

TEST_F(FailpointTest, TracingRecordsHitsWithoutActions) {
  auto& fps = Failpoints::Instance();
  fps.SetTracing(true);
  EXPECT_TRUE(Failpoints::armed());
  MORPH_FAILPOINT_VOID("fp_test.traced.a");
  MORPH_FAILPOINT_VOID("fp_test.traced.a");
  MORPH_FAILPOINT_VOID("fp_test.traced.b");
  fps.SetTracing(false);
  EXPECT_EQ(fps.hits("fp_test.traced.a"), 2u);
  EXPECT_EQ(fps.hits("fp_test.traced.b"), 1u);
  EXPECT_EQ(fps.fires("fp_test.traced.a"), 0u);
  EXPECT_EQ(fps.SitesMatching("fp_test.traced.").size(), 2u);
  EXPECT_EQ(fps.HitSitesMatching("fp_test.traced.").size(), 2u);
  fps.ResetCounters();
  EXPECT_EQ(fps.hits("fp_test.traced.a"), 0u);
  EXPECT_TRUE(fps.HitSitesMatching("fp_test.traced.").empty());
  // Registration survives a counter reset.
  EXPECT_EQ(fps.SitesMatching("fp_test.traced.").size(), 2u);
}

TEST_F(FailpointTest, ConfigureFromStringGrammar) {
  auto& fps = Failpoints::Instance();
  ASSERT_TRUE(fps.ConfigureFromString(
                     "fp_test.g1=error(io);fp_test.g2=delay(1);"
                     "fp_test.g3=error(aborted)@2*1")
                  .ok());
  EXPECT_TRUE(fps.Evaluate("fp_test.g1").IsIOError());
  EXPECT_TRUE(fps.Evaluate("fp_test.g2").ok());
  EXPECT_TRUE(fps.Evaluate("fp_test.g3").ok());         // hit 1
  EXPECT_TRUE(fps.Evaluate("fp_test.g3").IsAborted());  // hit 2: fires
  EXPECT_TRUE(fps.Evaluate("fp_test.g3").ok());         // max_fires = 1

  // Suffixes parse in either order.
  ASSERT_TRUE(fps.ConfigureFromString("fp_test.g4=error(busy)*1@2").ok());
  EXPECT_TRUE(fps.Evaluate("fp_test.g4").ok());
  EXPECT_TRUE(fps.Evaluate("fp_test.g4").IsBusy());
  EXPECT_TRUE(fps.Evaluate("fp_test.g4").ok());

  // Crash actions parse too (not evaluated here).
  ASSERT_TRUE(fps.ConfigureFromString("fp_test.g5=crash@7").ok());

  EXPECT_FALSE(fps.ConfigureFromString("nonsense").ok());
  EXPECT_FALSE(fps.ConfigureFromString("fp_test.bad=frobnicate").ok());
  EXPECT_FALSE(fps.ConfigureFromString("fp_test.bad=error(bogus)").ok());
  EXPECT_FALSE(fps.ConfigureFromString("fp_test.bad=delay(xyz)").ok());
  EXPECT_FALSE(fps.ConfigureFromString("=crash").ok());
}

TEST_F(FailpointTest, ConfigureFromEnv) {
  ASSERT_EQ(setenv("MORPH_FAILPOINTS", "fp_test.env=error(notfound)", 1), 0);
  auto& fps = Failpoints::Instance();
  ASSERT_TRUE(fps.ConfigureFromEnv().ok());
  EXPECT_TRUE(fps.Evaluate("fp_test.env").IsNotFound());
  unsetenv("MORPH_FAILPOINTS");
}

TEST_F(FailpointTest, EnableResetsCounters) {
  // Arming a site zeroes its counters, so @N counts hits from the arming on,
  // not from hits the site took while something else was armed.
  auto& fps = Failpoints::Instance();
  fps.SetTracing(true);
  MORPH_FAILPOINT_VOID("fp_test.rearm");
  MORPH_FAILPOINT_VOID("fp_test.rearm");
  fps.SetTracing(false);
  EXPECT_EQ(fps.hits("fp_test.rearm"), 2u);
  fps.Error("fp_test.rearm", Status::Busy("second hit"), /*fire_on_hit=*/2);
  EXPECT_EQ(fps.hits("fp_test.rearm"), 0u);
  EXPECT_TRUE(fps.Evaluate("fp_test.rearm").ok());      // hit 1 since arming
  EXPECT_TRUE(fps.Evaluate("fp_test.rearm").IsBusy());  // hit 2: fires
  EXPECT_EQ(fps.fires("fp_test.rearm"), 1u);
  // Re-arming zeroes the fire count too.
  fps.Error("fp_test.rearm", Status::Busy("again"));
  EXPECT_EQ(fps.fires("fp_test.rearm"), 0u);
}

// --- I/O actions -------------------------------------------------------------

/// The action a hit of `name` fires (kOff if none).
Failpoints::Action Fire(const char* name) {
  Failpoints::Action fired = Failpoints::Action::kOff;
  (void)Failpoints::Instance().Evaluate(name, {}, &fired);
  return fired;
}

TEST_F(FailpointTest, FireOnHitAndMaxFires) {
  auto& fps = Failpoints::Instance();
  ASSERT_TRUE(
      fps.ConfigureFromString("a.write=eio@2:transient;b.fsync=enospc*3").ok());

  // @2: the first hit passes, the second fires. :transient with no *M
  // defaults to a single fire, so the third hit passes again.
  EXPECT_TRUE(fps.Evaluate("a.write").ok());
  const Status st = fps.Evaluate("a.write");
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE(st.IsRetryable()) << st.ToString();
  EXPECT_TRUE(fps.Evaluate("a.write").ok());
  EXPECT_EQ(fps.hits("a.write"), 3u);
  EXPECT_EQ(fps.fires("a.write"), 1u);

  // *3: an ENOSPC window of exactly three fires, then clear.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(fps.Evaluate("b.fsync").IsNoSpace()) << i;
  }
  EXPECT_TRUE(fps.Evaluate("b.fsync").ok());
  EXPECT_EQ(fps.fires("b.fsync"), 3u);

  // A permanent eio fires on every hit and is not retryable.
  ASSERT_TRUE(fps.ConfigureFromString("c.fsync=eio").ok());
  for (int i = 0; i < 3; ++i) {
    const Status perm = fps.Evaluate("c.fsync");
    EXPECT_TRUE(perm.IsIOError()) << i;
    EXPECT_FALSE(perm.IsRetryable()) << perm.ToString();
  }

  // Unarmed sites never fire.
  EXPECT_EQ(Fire("c.never"), Failpoints::Action::kOff);
}

TEST_F(FailpointTest, SuffixesComposeInEitherOrder) {
  ASSERT_TRUE(
      Failpoints::Instance().ConfigureFromString("s=short*2@3,t=eintr@1*4").ok());
  EXPECT_EQ(Fire("s"), Failpoints::Action::kOff);
  EXPECT_EQ(Fire("s"), Failpoints::Action::kOff);
  EXPECT_EQ(Fire("s"), Failpoints::Action::kShortWrite);
  EXPECT_EQ(Fire("s"), Failpoints::Action::kShortWrite);
  EXPECT_EQ(Fire("s"), Failpoints::Action::kOff);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(Fire("t"), Failpoints::Action::kEintr) << i;
  }
  EXPECT_EQ(Fire("t"), Failpoints::Action::kOff);
}

TEST_F(FailpointTest, QualifierComposesInEitherOrderWithCounts) {
  // The suffixes compose in any order after the action: `eio:transient@2`
  // must parse identically to `eio@2:transient`.
  auto& fps = Failpoints::Instance();
  ASSERT_TRUE(fps.ConfigureFromString("a=eio:transient@2").ok());
  EXPECT_TRUE(fps.Evaluate("a").ok());
  const Status st = fps.Evaluate("a");
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE(st.IsRetryable()) << st.ToString();
  // The single-fire default for :transient applies in this spelling too.
  EXPECT_TRUE(fps.Evaluate("a").ok());
}

TEST_F(FailpointTest, EintrAndShortDefaultToSingleFire) {
  // An unbudgeted eintr would otherwise fire on every iteration of the
  // retry loop it interrupts — an infinite spin, not "EINTR once".
  ASSERT_TRUE(Failpoints::Instance().ConfigureFromString("e=eintr;s=short").ok());
  EXPECT_EQ(Fire("e"), Failpoints::Action::kEintr);
  EXPECT_EQ(Fire("e"), Failpoints::Action::kOff);
  EXPECT_EQ(Fire("s"), Failpoints::Action::kShortWrite);
  EXPECT_EQ(Fire("s"), Failpoints::Action::kOff);
}

TEST_F(FailpointTest, IoActionsNameSiteAndPathAndCount) {
  auto& fps = Failpoints::Instance();
  auto& registry = metrics::Registry::Instance();
  const uint64_t injected = registry.CounterValue("io.faults.injected");
  ASSERT_TRUE(fps.ConfigureFromString("io.write=eio;io.rename=short").ok());

  // The injected Status names the site and the file.
  const Status st = fps.Evaluate("io.write", "/data/seg-7.wal");
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.ToString().find("io.write"), std::string::npos) << st.ToString();
  EXPECT_NE(st.ToString().find("/data/seg-7.wal"), std::string::npos)
      << st.ToString();

  // A short or eintr shot injects no Status: a site that is not a write
  // swallows it, yet it counts as a fire.
  Failpoints::Action fired = Failpoints::Action::kOff;
  EXPECT_TRUE(fps.Evaluate("io.rename", "/data/x", &fired).ok());
  EXPECT_EQ(fired, Failpoints::Action::kShortWrite);
  EXPECT_EQ(fps.fires("io.rename"), 1u);
  EXPECT_EQ(registry.CounterValue("io.faults.injected"), injected + 2);
}

TEST_F(FailpointTest, RejectsMalformedSpecs) {
  auto& fps = Failpoints::Instance();
  EXPECT_FALSE(fps.ConfigureFromString("nonsense").ok());
  EXPECT_FALSE(fps.ConfigureFromString("x=wat").ok());
  EXPECT_FALSE(fps.ConfigureFromString("x=eio@zz").ok());
  EXPECT_FALSE(fps.ConfigureFromString("x=eio@0").ok());
  EXPECT_FALSE(fps.ConfigureFromString("x=eio:sometimes").ok());
  EXPECT_FALSE(fps.ConfigureFromString("=eio").ok());
}

TEST_F(FailpointTest, MalformedEntryArmsNothing) {
  // A spec is applied atomically: a bad entry must not leave earlier entries
  // armed, or MORPH_FAILPOINTS (where the error is only a warning) silently
  // runs with a configuration that differs from what the variable says.
  auto& fps = Failpoints::Instance();
  EXPECT_FALSE(fps.ConfigureFromString("fp_test.c=crash;x=wat").ok());
  EXPECT_FALSE(fps.ConfigureFromString("a.write=eio;x=eio:sometimes").ok());
  EXPECT_FALSE(Failpoints::armed());
  EXPECT_NO_THROW(MORPH_FAILPOINT_VOID("fp_test.c"));
  EXPECT_TRUE(fps.Evaluate("a.write").ok());
}

}  // namespace
}  // namespace morph
