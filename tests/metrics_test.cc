#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/trace.h"
#include "tests/propagator_test_util.h"

namespace morph {
namespace {

using metrics::Counter;
using metrics::Gauge;
using metrics::Histogram;
using metrics::Registry;

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON syntax checker, enough to assert that
// DumpJson() emits well-formed JSON without pulling in a JSON library (the
// CI job re-validates with python's json.tool).
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      pos_++;
    }
  }

  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    pos_++;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') pos_++;  // skip escaped char
      pos_++;
    }
    if (pos_ >= text_.size()) return false;
    pos_++;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') pos_++;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      pos_++;
    }
    return pos_ > start;
  }

  bool Object() {
    if (!Literal("{")) return false;
    SkipWs();
    if (Literal("}")) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Literal(":")) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Literal("}")) return true;
      if (!Literal(",")) return false;
    }
  }

  bool Array() {
    if (!Literal("[")) return false;
    SkipWs();
    if (Literal("]")) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Literal("]")) return true;
      if (!Literal(",")) return false;
    }
  }

  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

TEST(CounterTest, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAndMax) {
  Gauge g;
  g.Set(-7);
  EXPECT_EQ(g.value(), -7);
  g.Max(5);
  EXPECT_EQ(g.value(), 5);
  g.Max(3);  // lower value does not win
  EXPECT_EQ(g.value(), 5);
  g.Set(1);  // Set always wins
  EXPECT_EQ(g.value(), 1);
}

TEST(HistogramTest, CountSumAndQuantileBuckets) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0u);  // empty
  // 90 samples at ~1us, 10 at ~1ms: p50 must land in the microsecond
  // bucket, p99 in the millisecond bucket.
  for (int i = 0; i < 90; ++i) h.Record(1'000);
  for (int i = 0; i < 10; ++i) h.Record(1'000'000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 90u * 1'000 + 10u * 1'000'000);
  const uint64_t p50 = h.Quantile(0.5);
  const uint64_t p99 = h.Quantile(0.99);
  // Bucket upper bounds are powers of two: ~1us rounds into (512, 1024]
  // ...(1024, 2048]; assert the right order of magnitude, not exact bins.
  EXPECT_GE(p50, 1'000u);
  EXPECT_LT(p50, 4'096u);
  EXPECT_GE(p99, 1'000'000u);
  EXPECT_LT(p99, 4'194'304u);
  EXPECT_LE(p50, p99);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(HistogramTest, NegativeClampsToZeroBucket) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket(0), 1u);
}

TEST(HistogramTest, ConcurrentRecordersSumConsistently) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(100 + i % 1000);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, PointersAreStableAcrossLookups) {
  Registry& reg = Registry::Instance();
  Counter* c1 = reg.GetCounter("test.registry.stable");
  Counter* c2 = reg.GetCounter("test.registry.stable");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = reg.GetGauge("test.registry.stable_gauge");
  Gauge* g2 = reg.GetGauge("test.registry.stable_gauge");
  EXPECT_EQ(g1, g2);
  Histogram* h1 = reg.GetHistogram("test.registry.stable_hist");
  Histogram* h2 = reg.GetHistogram("test.registry.stable_hist");
  EXPECT_EQ(h1, h2);
}

TEST(RegistryTest, ReadsNeverCreateInstruments) {
  Registry& reg = Registry::Instance();
  EXPECT_EQ(reg.CounterValue("test.registry.never_created"), 0u);
  EXPECT_EQ(reg.GaugeValue("test.registry.never_created"), 0);
  const auto snap = reg.CounterSnapshot("test.registry.never_created");
  EXPECT_TRUE(snap.empty());
}

TEST(RegistryTest, CounterSnapshotFiltersByPrefix) {
  Registry& reg = Registry::Instance();
  reg.GetCounter("test.snapprefix.a")->Add(1);
  reg.GetCounter("test.snapprefix.b")->Add(2);
  reg.GetCounter("test.snapother.c")->Add(3);
  const auto snap = reg.CounterSnapshot("test.snapprefix.");
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.at("test.snapprefix.a"), 1u);
  EXPECT_EQ(snap.at("test.snapprefix.b"), 2u);
}

TEST(RegistryTest, ResetAllZeroesValuesButKeepsInstruments) {
  Registry& reg = Registry::Instance();
  Counter* c = reg.GetCounter("test.resetall.counter");
  Gauge* g = reg.GetGauge("test.resetall.gauge");
  Histogram* h = reg.GetHistogram("test.resetall.hist");
  c->Add(10);
  g->Set(20);
  h->Record(30);
  reg.ResetAll();
  // Same pointers, zeroed values — callers holding cached pointers (the
  // hot-path macros) keep working across a modelled restart.
  EXPECT_EQ(c, reg.GetCounter("test.resetall.counter"));
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
}

TEST(RegistryTest, MacrosUpdateNamedInstruments) {
  Registry& reg = Registry::Instance();
  const uint64_t before = reg.CounterValue("test.macros.counter");
  MORPH_COUNTER_INC("test.macros.counter");
  MORPH_COUNTER_ADD("test.macros.counter", 4);
  EXPECT_EQ(reg.CounterValue("test.macros.counter"), before + 5);
  MORPH_GAUGE_SET("test.macros.gauge", 77);
  EXPECT_EQ(reg.GaugeValue("test.macros.gauge"), 77);
  MORPH_HISTOGRAM_NANOS("test.macros.hist", 1234);
  EXPECT_GE(reg.GetHistogram("test.macros.hist")->count(), 1u);
}

TEST(RegistryTest, DumpJsonIsWellFormed) {
  Registry& reg = Registry::Instance();
  // Exercise all three sections plus a name needing escaping.
  reg.GetCounter("test.json.counter\"quoted\\name")->Add(1);
  reg.GetGauge("test.json.gauge")->Set(-5);
  reg.GetHistogram("test.json.hist_nanos")->Record(1'000'000);
  const std::string json = metrics::DumpJson();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_nanos\""), std::string::npos);
}

TEST(RegistryTest, ValueHistogramDumpsWithoutNanosLabels) {
  Registry& reg = Registry::Instance();
  MORPH_HISTOGRAM_VALUE("test.json.value_hist", 256);
  EXPECT_GE(reg.GetHistogram("test.json.value_hist")->count(), 1u);
  const std::string json = metrics::DumpJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  const size_t at = json.find("\"test.json.value_hist\"");
  ASSERT_NE(at, std::string::npos);
  const std::string entry = json.substr(at, json.find('}', at) - at);
  EXPECT_NE(entry.find("\"p50\""), std::string::npos) << entry;
  EXPECT_EQ(entry.find("_nanos"), std::string::npos) << entry;
}

TEST(RegistryTest, ConcurrentLookupsAndIncrements) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;
  Registry& reg = Registry::Instance();
  const uint64_t before = reg.CounterValue("test.concurrent.counter");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        MORPH_COUNTER_INC("test.concurrent.counter");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.CounterValue("test.concurrent.counter"),
            before + static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

TEST(TraceTest, RecordAndSnapshotThisThread) {
  trace::Traces::Instance().ClearAll();
  MORPH_TRACE("test.trace.first", 1, 2);
  MORPH_TRACE("test.trace.second", 3, 4);
  const auto events = trace::Traces::Instance().SnapshotAll();
  int first = 0, second = 0;
  int64_t first_nanos = 0, second_nanos = 0;
  for (const auto& e : events) {
    if (std::string(e.name) == "test.trace.first") {
      first++;
      first_nanos = e.nanos;
      EXPECT_EQ(e.a, 1);
      EXPECT_EQ(e.b, 2);
    } else if (std::string(e.name) == "test.trace.second") {
      second++;
      second_nanos = e.nanos;
    }
  }
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_LE(first_nanos, second_nanos);
  // SnapshotAll sorts by timestamp.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].nanos, events[i].nanos);
  }
}

TEST(TraceTest, RingWrapsKeepingNewestEvents) {
  trace::Ring ring;
  const auto total = static_cast<int64_t>(trace::Ring::kCapacity) + 100;
  for (int64_t i = 0; i < total; ++i) {
    ring.Record("test.trace.wrap", i, i, 0);
  }
  EXPECT_EQ(ring.recorded(), static_cast<uint64_t>(total));
  std::vector<trace::Event> events;
  ring.Snapshot(&events);
  ASSERT_EQ(events.size(), trace::Ring::kCapacity);
  // The oldest 100 events were overwritten: every surviving `a` >= 100.
  for (const auto& e : events) EXPECT_GE(e.a, 100);
  ring.Clear();
  events.clear();
  ring.Snapshot(&events);
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(ring.recorded(), 0u);
}

TEST(TraceTest, SnapshotWhileAnotherThreadRecords) {
  // Safety smoke (meaningful under TSan): one writer thread hammers its
  // ring while this thread snapshots concurrently.
  std::atomic<bool> stop{false};
  std::thread writer([&stop] {
    // A guaranteed minimum so the snapshots below genuinely overlap
    // recording even if this thread starts late.
    for (int64_t i = 0; i < 20'000; ++i) {
      MORPH_TRACE("test.trace.concurrent", i, i * 2);
    }
    int64_t i = 20'000;
    while (!stop.load(std::memory_order_acquire)) {
      MORPH_TRACE("test.trace.concurrent", i, i * 2);
      i++;
    }
  });
  for (int i = 0; i < 50; ++i) {
    const auto events = trace::Traces::Instance().SnapshotAll();
    for (const auto& e : events) {
      ASSERT_NE(e.name, nullptr);  // never a torn/null published name
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_GT(trace::Traces::Instance().TotalRecorded(), 0u);
}

// ---------------------------------------------------------------------------
// Population stage timers: a serial populate's scan / operator / insert
// stages account for its wall time, so the per-stage cost model adds up.
// ---------------------------------------------------------------------------

TEST(PopulateStageTest, SerialFojStagesSumToPopulateTime) {
  engine::Database db;
  auto r = *db.CreateTable("r", morph::testing::RSchema());
  auto s = *db.CreateTable("s", morph::testing::SSchema());
  // Every R row finds its S partner; 500 S rows are padded.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 30'000; ++i) {
    rows.push_back(Row({i, i % 12'000, "p"}));
  }
  ASSERT_TRUE(db.BulkLoad(r.get(), rows).ok());
  rows.clear();
  for (int64_t i = 0; i < 12'500; ++i) rows.push_back(Row({i, i, "i"}));
  ASSERT_TRUE(db.BulkLoad(s.get(), rows).ok());

  transform::FojSpec spec;
  spec.r_table = "r";
  spec.s_table = "s";
  spec.r_join_column = "jv";
  spec.s_join_column = "jv";
  spec.target_table = "t";
  auto rules = transform::FojRules::Make(&db, spec);
  ASSERT_TRUE(rules.ok());
  transform::TransformConfig config;
  ASSERT_EQ(config.populate_workers, 0u);
  ASSERT_EQ(config.priority, 1.0);  // no throttle sleep inside populate
  transform::TransformCoordinator coord(
      &db, std::shared_ptr<transform::FojRules>(std::move(rules).ValueOrDie()),
      config);

  auto& reg = Registry::Instance();
  const char* kStages[] = {"transform.populate.stage.scan_nanos",
                           "transform.populate.stage.operator_nanos",
                           "transform.populate.stage.insert_nanos"};
  uint64_t before[3];
  for (int i = 0; i < 3; ++i) before[i] = reg.CounterValue(kStages[i]);
  auto stats = coord.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats->completed) << stats->abort_reason;

  double sum = 0;
  for (int i = 0; i < 3; ++i) {
    const uint64_t delta = reg.CounterValue(kStages[i]) - before[i];
    EXPECT_GT(delta, 0u) << kStages[i];
    sum += static_cast<double>(delta);
  }
  const double populate = static_cast<double>(stats->populate_micros) * 1e3;
  ASSERT_GT(populate, 0);
  EXPECT_NEAR(sum, populate, 0.10 * populate)
      << "stages " << sum << " ns vs populate " << populate << " ns";
}

// ---------------------------------------------------------------------------
// Per-tablet transform observability: a staggered run must export its
// tablet lifecycle through the registry (gauges, latch histogram, skip
// counter) and the trace ring (activate/migrate events), because these are
// the instruments an operator watches to confirm the stagger is actually
// bounding the latch, tablet by tablet.
// ---------------------------------------------------------------------------

TEST(TabletObservabilityTest, StaggeredRunExportsPerTabletInstruments) {
  using transform::testing::CellOptions;
  using transform::testing::CellResult;
  using transform::testing::Operator;
  using transform::testing::RunCell;

  auto& registry = Registry::Instance();
  auto& fps = Failpoints::Instance();
  trace::Traces::Instance().ClearAll();
  const uint64_t latches_before =
      registry.GetHistogram("transform.sync.latch_nanos")->count();
  const uint64_t skipped_before =
      registry.CounterValue("transform.tablet.ops_skipped");

  // Hold each per-tablet sub-transform open a few milliseconds *after* its
  // begin-fuzzy mark so the cell's concurrent op stream demonstrably
  // overlaps the stagger: records then land inside the propagation window
  // while later tablets are still pending, and the global cursor must skip
  // them (each tablet's own mark + local catch-up pass covers its keys).
  fps.Delay("transform.fuzzy.end", 5'000);
  CellOptions opts;
  opts.strategy = transform::SyncStrategy::kNonBlockingAbort;
  opts.tablets = 4;
  const CellResult cell = RunCell(Operator::kMerge, opts);
  fps.Disable("transform.fuzzy.end");
  ASSERT_TRUE(cell.completed) << cell.abort_reason;
  ASSERT_EQ(cell.resolved_tablets, 4u);

  // Gauge end-state of a completed 4-tablet run.
  EXPECT_EQ(registry.GaugeValue("transform.tablet.total"), 4);
  EXPECT_EQ(registry.GaugeValue("transform.tablet.migrated"), 4);
  EXPECT_EQ(registry.GaugeValue("transform.tablet.active"), 0);

  // One latched sync pause per tablet, each individually recorded.
  EXPECT_EQ(registry.GetHistogram("transform.sync.latch_nanos")->count(),
            latches_before + 4);
  EXPECT_GT(registry.CounterValue("transform.tablet.ops_skipped"),
            skipped_before);

  // The trace ring names every lifecycle transition with its tablet index:
  // 4 activations (b = the tablet's begin-fuzzy LSN) and 4 migrations
  // (b = the tablet's latch hold in nanos).
  uint32_t activated = 0, migrated = 0;
  for (const auto& e : trace::Traces::Instance().SnapshotAll()) {
    if (std::string_view(e.name) == "transform.tablet.activate") {
      ASSERT_GE(e.a, 0);
      ASSERT_LT(e.a, 4);
      EXPECT_GT(e.b, 0) << "activate must carry the tablet's start LSN";
      activated |= 1u << e.a;
    } else if (std::string_view(e.name) == "transform.tablet.migrate") {
      ASSERT_GE(e.a, 0);
      ASSERT_LT(e.a, 4);
      EXPECT_GT(e.b, 0) << "migrate must carry the tablet's latch nanos";
      migrated |= 1u << e.a;
    }
  }
  EXPECT_EQ(activated, 0b1111u) << "every tablet must trace its activation";
  EXPECT_EQ(migrated, 0b1111u) << "every tablet must trace its migration";
}

TEST(TabletObservabilityTest, WholeTableRunIsOneTablet) {
  using transform::testing::CellOptions;
  using transform::testing::CellResult;
  using transform::testing::Operator;
  using transform::testing::RunCell;

  auto& registry = Registry::Instance();
  const uint64_t latches_before =
      registry.GetHistogram("transform.sync.latch_nanos")->count();
  const uint64_t skipped_before =
      registry.CounterValue("transform.tablet.ops_skipped");

  CellOptions opts;
  opts.strategy = transform::SyncStrategy::kNonBlockingAbort;
  opts.tablets = 1;
  const CellResult cell = RunCell(Operator::kVSplit, opts);
  ASSERT_TRUE(cell.completed) << cell.abort_reason;
  ASSERT_EQ(cell.resolved_tablets, 1u);
  // tablets = 1 runs the same per-tablet sequence over one tablet covering
  // the whole table: it activates and migrates like any tablet, takes
  // exactly one latch, and the global stream never skips a record.
  EXPECT_EQ(registry.GaugeValue("transform.tablet.total"), 1);
  EXPECT_EQ(registry.GaugeValue("transform.tablet.migrated"), 1);
  EXPECT_EQ(registry.GaugeValue("transform.tablet.active"), 0);
  EXPECT_EQ(registry.GetHistogram("transform.sync.latch_nanos")->count(),
            latches_before + 1);
  EXPECT_EQ(registry.CounterValue("transform.tablet.ops_skipped"),
            skipped_before);
}

}  // namespace
}  // namespace morph
