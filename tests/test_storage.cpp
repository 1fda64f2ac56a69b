// Storage-layer tests: StorageBackend implementations (map + log), range
// boundary semantics, shard routing, and StoreView reads over home shards.
// Backend-behavior tests are parameterized over every StorageBackendKind so a
// new backend inherits the whole contract suite by adding one enum value
// below.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "soma/export.hpp"
#include "soma/log_backend.hpp"
#include "soma/map_backend.hpp"
#include "soma/store.hpp"
#include "soma/storage_backend.hpp"

namespace soma::core {
namespace {

constexpr StorageBackendKind kAllBackends[] = {StorageBackendKind::kMap,
                                               StorageBackendKind::kLog};

datamodel::Node value_node(double v) {
  datamodel::Node node;
  node["v"].set(v);
  return node;
}

std::unique_ptr<StorageBackend> make_backend(StorageBackendKind kind) {
  StorageConfig config;
  config.backend = kind;
  return make_storage_backend(config);
}

// ---------- kind parsing / factory ----------

TEST(BackendKindTest, RoundTrip) {
  EXPECT_EQ(to_string(StorageBackendKind::kMap), "map");
  EXPECT_EQ(to_string(StorageBackendKind::kLog), "log");
  EXPECT_EQ(parse_backend_kind("map"), StorageBackendKind::kMap);
  EXPECT_EQ(parse_backend_kind("log"), StorageBackendKind::kLog);
  EXPECT_THROW(parse_backend_kind("lsm"), ConfigError);
  EXPECT_THROW(parse_backend_kind(""), ConfigError);
}

TEST(BackendKindTest, FactoryBuildsRequestedKind) {
  for (StorageBackendKind kind : kAllBackends) {
    EXPECT_EQ(make_backend(kind)->kind(), kind);
  }
}

// ---------- contract suite, parameterized over every backend ----------

class BackendContractTest
    : public ::testing::TestWithParam<StorageBackendKind> {};

TEST_P(BackendContractTest, EmptyBackend) {
  const auto backend = make_backend(GetParam());
  EXPECT_EQ(backend->latest("missing"), nullptr);
  EXPECT_TRUE(backend->series("missing").empty());
  EXPECT_TRUE(backend->sources().empty());
  EXPECT_EQ(backend->record_count(), 0u);
  EXPECT_EQ(backend->ingested_bytes(), 0u);
}

TEST_P(BackendContractTest, AppendLatestAndCounters) {
  const auto backend = make_backend(GetParam());
  backend->append("cn0001", SimTime::from_seconds(1.0), value_node(0.1));
  backend->append("cn0001", SimTime::from_seconds(2.0), value_node(0.2));
  backend->append("cn0002", SimTime::from_seconds(1.5), value_node(0.3));

  const TimedRecord* latest = backend->latest("cn0001");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->time, SimTime::from_seconds(2.0));
  EXPECT_DOUBLE_EQ(latest->data.fetch_existing("v").as_float64(), 0.2);
  EXPECT_EQ(backend->record_count(), 3u);
  EXPECT_GT(backend->ingested_bytes(), 0u);
  EXPECT_EQ(backend->sources(),
            (std::vector<std::string>{"cn0001", "cn0002"}));
}

TEST_P(BackendContractTest, LateArrivalKeepsSeriesSorted) {
  const auto backend = make_backend(GetParam());
  backend->append("m", SimTime::from_seconds(1.0), value_node(1.0));
  backend->append("m", SimTime::from_seconds(3.0), value_node(3.0));
  // Replay paths deliver a record out of order.
  backend->append("m", SimTime::from_seconds(2.0), value_node(2.0));

  const auto series = backend->series("m");
  ASSERT_EQ(series.size(), 3u);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series[i]->time, SimTime::from_seconds(1.0 + i));
    EXPECT_DOUBLE_EQ(series[i]->data.fetch_existing("v").as_float64(), 1.0 + i);
  }
  // Latest is still the newest by time, not the last appended.
  ASSERT_NE(backend->latest("m"), nullptr);
  EXPECT_EQ(backend->latest("m")->time, SimTime::from_seconds(3.0));
}

// Range boundary semantics: [from, to] inclusive on both ends.

TEST_P(BackendContractTest, RangeExactEndpointsInclusive) {
  const auto backend = make_backend(GetParam());
  for (int i = 0; i <= 4; ++i) {
    backend->append("m", SimTime::from_seconds(i), value_node(i));
  }
  const auto hits = backend->range("m", SimTime::from_seconds(1.0),
                                   SimTime::from_seconds(3.0));
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits.front()->time, SimTime::from_seconds(1.0));
  EXPECT_EQ(hits.back()->time, SimTime::from_seconds(3.0));
}

TEST_P(BackendContractTest, RangeFromEqualsTo) {
  const auto backend = make_backend(GetParam());
  for (int i = 0; i <= 4; ++i) {
    backend->append("m", SimTime::from_seconds(i), value_node(i));
  }
  // Degenerate window sitting exactly on a sample: that one record.
  const auto on_sample = backend->range("m", SimTime::from_seconds(2.0),
                                        SimTime::from_seconds(2.0));
  ASSERT_EQ(on_sample.size(), 1u);
  EXPECT_EQ(on_sample.front()->time, SimTime::from_seconds(2.0));
  // Degenerate window between samples: nothing.
  EXPECT_TRUE(backend->range("m", SimTime::from_seconds(2.5),
                             SimTime::from_seconds(2.5))
                  .empty());
}

TEST_P(BackendContractTest, RangeEmptyWindowAndReversedBounds) {
  const auto backend = make_backend(GetParam());
  backend->append("m", SimTime::from_seconds(1.0), value_node(1.0));
  backend->append("m", SimTime::from_seconds(5.0), value_node(5.0));
  // Window strictly between two samples.
  EXPECT_TRUE(backend->range("m", SimTime::from_seconds(2.0),
                             SimTime::from_seconds(4.0))
                  .empty());
  // Window entirely before / after the series.
  EXPECT_TRUE(backend->range("m", SimTime::zero(),
                             SimTime::from_seconds(0.5))
                  .empty());
  EXPECT_TRUE(backend->range("m", SimTime::from_seconds(6.0),
                             SimTime::from_seconds(9.0))
                  .empty());
  // Reversed bounds are an empty interval, not a crash or a wrap-around.
  EXPECT_TRUE(backend->range("m", SimTime::from_seconds(5.0),
                             SimTime::from_seconds(1.0))
                  .empty());
  // Unknown source.
  EXPECT_TRUE(backend->range("ghost", SimTime::zero(), SimTime::max())
                  .empty());
}

// ---------- batch append: equivalent to in-order single appends ----------

TEST_P(BackendContractTest, AppendBatchMatchesSequentialAppends) {
  const auto batched = make_backend(GetParam());
  const auto sequential = make_backend(GetParam());

  std::vector<BatchItem> items;
  items.push_back({"cn0001", SimTime::from_seconds(1.0), value_node(1.0)});
  items.push_back({"cn0001", SimTime::from_seconds(2.0), value_node(2.0)});
  items.push_back({"cn0002", SimTime::from_seconds(1.5), value_node(3.0)});
  items.push_back({"cn0001", SimTime::from_seconds(3.0), value_node(4.0)});
  for (const auto& item : items) {
    sequential->append(item.source, item.time, item.data);
  }
  batched->append_batch(std::move(items));

  EXPECT_EQ(batched->record_count(), sequential->record_count());
  EXPECT_EQ(batched->ingested_bytes(), sequential->ingested_bytes());
  EXPECT_EQ(batched->sources(), sequential->sources());
  for (const auto& source : sequential->sources()) {
    const auto a = batched->series(source);
    const auto b = sequential->series(source);
    ASSERT_EQ(a.size(), b.size()) << source;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i]->time, b[i]->time) << source;
      EXPECT_DOUBLE_EQ(a[i]->data.fetch_existing("v").as_float64(),
                       b[i]->data.fetch_existing("v").as_float64())
          << source;
    }
    ASSERT_NE(batched->latest(source), nullptr);
    EXPECT_EQ(batched->latest(source)->time, sequential->latest(source)->time);
  }
  // One batch frame absorbed; the sequential backend saw none.
  EXPECT_EQ(batched->batch_count(), 1u);
  EXPECT_EQ(sequential->batch_count(), 0u);
}

TEST_P(BackendContractTest, AppendBatchWithLateArrivalsKeepsSeriesSorted) {
  const auto backend = make_backend(GetParam());
  backend->append("m", SimTime::from_seconds(2.0), value_node(2.0));
  // A replayed batch can carry original (older) timestamps.
  std::vector<BatchItem> items;
  items.push_back({"m", SimTime::from_seconds(3.0), value_node(3.0)});
  items.push_back({"m", SimTime::from_seconds(1.0), value_node(1.0)});
  backend->append_batch(std::move(items));

  const auto series = backend->series("m");
  ASSERT_EQ(series.size(), 3u);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series[i]->time, SimTime::from_seconds(1.0 + i));
  }
  ASSERT_NE(backend->latest("m"), nullptr);
  EXPECT_EQ(backend->latest("m")->time, SimTime::from_seconds(3.0));
}

TEST_P(BackendContractTest, EmptyBatchIsNotCounted) {
  const auto backend = make_backend(GetParam());
  backend->append_batch({});
  EXPECT_EQ(backend->record_count(), 0u);
  EXPECT_EQ(backend->batch_count(), 0u);
}

// ---------- clear: the crash model of the replication layer ----------

TEST_P(BackendContractTest, ClearEmptiesAndStaysReusable) {
  const auto backend = make_backend(GetParam());
  backend->append("cn0001", SimTime::from_seconds(1.0), value_node(0.1));
  backend->append("cn0002", SimTime::from_seconds(2.0), value_node(0.2));
  backend->append_batch({{"cn0001", SimTime::from_seconds(3.0),
                          value_node(0.3)},
                         {"cn0003", SimTime::from_seconds(3.5),
                          value_node(0.4)}});
  ASSERT_EQ(backend->record_count(), 4u);

  backend->clear();

  // Indistinguishable from freshly built: no records, sources, or counters.
  EXPECT_EQ(backend->record_count(), 0u);
  EXPECT_EQ(backend->ingested_bytes(), 0u);
  EXPECT_EQ(backend->batch_count(), 0u);
  EXPECT_TRUE(backend->sources().empty());
  EXPECT_EQ(backend->latest("cn0001"), nullptr);
  EXPECT_TRUE(backend->series("cn0002").empty());
  EXPECT_TRUE(backend->range("cn0001", SimTime::zero(),
                             SimTime::from_seconds(10.0))
                  .empty());

  // Reusable afterwards (a recovering rank re-ingests into it).
  backend->append("cn0001", SimTime::from_seconds(5.0), value_node(0.5));
  EXPECT_EQ(backend->record_count(), 1u);
  ASSERT_NE(backend->latest("cn0001"), nullptr);
  EXPECT_EQ(backend->latest("cn0001")->time, SimTime::from_seconds(5.0));
  EXPECT_EQ(backend->sources(), (std::vector<std::string>{"cn0001"}));
}

// ---------- latest: the newest record wins, whatever the arrival order ----

TEST_P(BackendContractTest, LateRecordDoesNotDisplaceNewest) {
  const auto backend = make_backend(GetParam());
  backend->append("a", SimTime::from_seconds(1.0), value_node(1.0));
  ASSERT_NE(backend->latest("a"), nullptr);

  // A newer record supersedes the latest...
  backend->append("a", SimTime::from_seconds(2.0), value_node(2.0));
  ASSERT_NE(backend->latest("a"), nullptr);
  EXPECT_EQ(backend->latest("a")->time, SimTime::from_seconds(2.0));

  // ...and a late (replayed) older record does NOT.
  backend->append("a", SimTime::from_seconds(1.5), value_node(1.5));
  ASSERT_NE(backend->latest("a"), nullptr);
  EXPECT_EQ(backend->latest("a")->time, SimTime::from_seconds(2.0));
  EXPECT_EQ(backend->series("a").size(), 3u);
}

TEST_P(BackendContractTest, BatchWithLateRecordKeepsNewestLatest) {
  const auto backend = make_backend(GetParam());
  backend->append("a", SimTime::from_seconds(1.0), value_node(1.0));
  ASSERT_NE(backend->latest("a"), nullptr);

  // A batch carrying a newer record plus a late (replayed) older one leaves
  // latest at the true newest, as the sequential-append path does.
  std::vector<BatchItem> items;
  items.push_back({"a", SimTime::from_seconds(3.0), value_node(3.0)});
  items.push_back({"a", SimTime::from_seconds(2.0), value_node(2.0)});
  items.push_back({"b", SimTime::from_seconds(1.0), value_node(9.0)});
  backend->append_batch(std::move(items));

  const TimedRecord* newest_a = backend->latest("a");
  ASSERT_NE(newest_a, nullptr);
  EXPECT_EQ(newest_a->time, SimTime::from_seconds(3.0));
  ASSERT_NE(backend->latest("b"), nullptr);
  EXPECT_EQ(backend->series("a").size(), 3u);
  EXPECT_EQ(backend->batch_count(), 1u);
}

TEST(LogBackendCacheTest, ClearDropsCachedSnapshots) {
  // The index points into the log; clear() must drop both together or the
  // next latest() would dereference freed records.
  LogBackend backend;
  backend.append("a", SimTime::from_seconds(1.0), value_node(1.0));
  ASSERT_NE(backend.latest("a"), nullptr);
  backend.clear();
  EXPECT_EQ(backend.latest("a"), nullptr);
  backend.append("a", SimTime::from_seconds(2.0), value_node(2.0));
  ASSERT_NE(backend.latest("a"), nullptr);
  EXPECT_EQ(backend.latest("a")->time, SimTime::from_seconds(2.0));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendContractTest,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---------- shard routing ----------

TEST(ShardRoutingTest, StableHashIsStable) {
  // Fixed constants (inherited from the original client-side hash): the
  // values must never change across runs or refactors, or persisted routing
  // assumptions break.
  EXPECT_EQ(stable_source_hash(""), 1469598103934665603ULL);
  EXPECT_EQ(stable_source_hash("cn0001"),
            stable_source_hash(std::string("cn0001")));
  EXPECT_NE(stable_source_hash("cn0001"), stable_source_hash("cn0002"));
  EXPECT_EQ(route_source("anything", 0), 0u);
  EXPECT_EQ(route_source("anything", 1), 0u);
}

TEST(ShardRoutingTest, DataStoreRoutesByTheSharedHash) {
  DataStore store(StorageConfig{}, 4);
  ASSERT_EQ(store.shard_count(), 4);

  const std::vector<std::string> sources = {"cn0001", "cn0002", "task.0001",
                                            "task.0002", "pipeline.7"};
  for (const auto& source : sources) {
    const int expected = static_cast<int>(route_source(source, 4));
    EXPECT_EQ(store.shard_index_for(source), expected) << source;
    store.append(Namespace::kHardware, source, SimTime::from_seconds(1.0),
                 value_node(1.0));
    // The record landed in exactly the shard the hash names.
    EXPECT_EQ(
        store.shard(Namespace::kHardware, expected).series(source).size(), 1u)
        << source;
  }
}

// ---------- StoreView over home shards ----------

class StoreViewTest : public ::testing::TestWithParam<StorageBackendKind> {
 protected:
  static DataStore sharded_store(StorageBackendKind kind, int shards) {
    return DataStore(StorageConfig{kind}, shards);
  }
};

TEST_P(StoreViewTest, SourcesUnionSortedDeduplicated) {
  DataStore store = sharded_store(GetParam(), 2);
  ASSERT_NE(store.shard_index_for("cn0001"), store.shard_index_for("cn0002"));
  store.append(Namespace::kHardware, "cn0002", SimTime::from_seconds(1.0),
               value_node(1.0));
  store.append(Namespace::kHardware, "cn0001", SimTime::from_seconds(1.0),
               value_node(1.0));
  store.append(Namespace::kHardware, "cn0002", SimTime::from_seconds(2.0),
               value_node(2.0));

  EXPECT_EQ(store.view().sources(Namespace::kHardware),
            (std::vector<std::string>{"cn0001", "cn0002"}));
  EXPECT_EQ(store.view().record_count(Namespace::kHardware), 3u);
}

TEST_P(StoreViewTest, ExportIsShardCountInvariant) {
  // The exported stream is defined by the logical contents, not the
  // physical sharding: 1 shard and 5 shards must serialize identically.
  const auto fill = [](DataStore& store) {
    const std::vector<std::string> sources = {"cn0001", "cn0002", "task.1",
                                              "task.2", "pipeline.9"};
    for (int t = 1; t <= 4; ++t) {
      for (const auto& source : sources) {
        store.append(Namespace::kHardware, source, SimTime::from_seconds(t),
                     value_node(t));
      }
    }
  };
  DataStore single = sharded_store(GetParam(), 1);
  DataStore sharded = sharded_store(GetParam(), 5);
  fill(single);
  fill(sharded);

  std::ostringstream single_out, sharded_out;
  EXPECT_EQ(export_store(single.view(), single_out),
            export_store(sharded.view(), sharded_out));
  EXPECT_EQ(single_out.str(), sharded_out.str());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, StoreViewTest,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---------- shard counters / report ----------

TEST(ShardCountersTest, CountersFollowRouting) {
  DataStore store(StorageConfig{}, 2);
  store.append(Namespace::kWorkflow, "task.1", SimTime::from_seconds(1.0),
               value_node(1.0));
  store.append(Namespace::kHardware, "cn0001", SimTime::from_seconds(1.0),
               value_node(1.0));

  std::uint64_t total_records = 0;
  for (const auto& counter : store.shard_counters()) {
    total_records += counter.records;
    if (counter.records > 0) {
      EXPECT_GT(counter.bytes, 0u);
    }
  }
  EXPECT_EQ(total_records, store.view().total_records());
  // namespace-major, shard-minor: 4 namespaces x 2 shards.
  EXPECT_EQ(store.shard_counters().size(), 8u);
}

TEST(ShardCountersTest, ExportShardReportShape) {
  DataStore store(StorageConfig{StorageBackendKind::kLog}, 2);
  store.append(Namespace::kWorkflow, "task.1", SimTime::from_seconds(1.0),
               value_node(1.0));

  const datamodel::Node report = export_shard_report(store);
  EXPECT_EQ(report.fetch_existing("backend").as_string(), "log");
  EXPECT_EQ(report.fetch_existing("shard_count").as_int64(), 2);
  std::uint64_t records = 0;
  for (int shard = 0; shard < 2; ++shard) {
    records += static_cast<std::uint64_t>(
        report.fetch_existing("workflow/shard_" + std::to_string(shard) +
                             "/records")
            .as_int64());
  }
  EXPECT_EQ(records, 1u);
}

}  // namespace
}  // namespace soma::core
