// Unit tests for the EnTK layer: pipelines, stage barriers, concurrency.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "entk/entk.hpp"
#include "test_names.hpp"

namespace soma::entk {
namespace {

using testutil::numbered;

rp::SessionConfig session_config(int nodes = 3) {
  rp::SessionConfig config;
  config.platform = cluster::summit(nodes);
  config.pilot.nodes = nodes;
  config.seed = 21;
  return config;
}

rp::TaskDescription simple_task(const std::string& uid, double seconds) {
  rp::TaskDescription d;
  d.uid = uid;
  d.ranks = 1;
  d.fixed_duration = Duration::seconds(seconds);
  return d;
}

TEST(EnTkTest, StagesRunInOrder) {
  rp::Session session(session_config());
  AppManager manager(session);

  Pipeline pipeline;
  pipeline.name = "p0";
  pipeline.stages.push_back(Stage{"s0", {simple_task("a", 10.0)}});
  pipeline.stages.push_back(Stage{"s1", {simple_task("b", 10.0)}});
  manager.add_pipeline(std::move(pipeline));

  bool done = false;
  session.start([&] {
    manager.run([&] {
      done = true;
      session.finalize();
    });
  });
  session.run();

  ASSERT_TRUE(done);
  const auto a = session.find_task("a");
  const auto b = session.find_task("b");
  // Stage barrier: b's launch only after a fully completed.
  EXPECT_GT(*b->event_time(rp::Event::kLaunchStart),
            *a->event_time(rp::Event::kLaunchStop));
}

TEST(EnTkTest, StageBarrierWaitsForAllTasks) {
  rp::Session session(session_config());
  AppManager manager(session);

  Pipeline pipeline;
  pipeline.name = "p0";
  // Stage with a fast and a slow task; next stage must wait for the slow one.
  pipeline.stages.push_back(
      Stage{"s0", {simple_task("fast", 5.0), simple_task("slow", 50.0)}});
  pipeline.stages.push_back(Stage{"s1", {simple_task("next", 1.0)}});
  manager.add_pipeline(std::move(pipeline));

  session.start([&] { manager.run([&] { session.finalize(); }); });
  session.run();

  EXPECT_GT(*session.find_task("next")->event_time(rp::Event::kLaunchStart),
            *session.find_task("slow")->event_time(rp::Event::kRankStop));
}

TEST(EnTkTest, PipelinesRunConcurrently) {
  rp::Session session(session_config());
  AppManager manager(session);
  for (int p = 0; p < 2; ++p) {
    Pipeline pipeline;
    pipeline.name = "p" + std::to_string(p);
    pipeline.stages.push_back(Stage{
        "s0", {simple_task("t" + std::to_string(p), 30.0)}});
    manager.add_pipeline(std::move(pipeline));
  }
  session.start([&] { manager.run([&] { session.finalize(); }); });
  session.run();

  const auto t0 = session.find_task("t0");
  const auto t1 = session.find_task("t1");
  // Both executing at the same time (overlap).
  EXPECT_LT(*t1->event_time(rp::Event::kRankStart),
            *t0->event_time(rp::Event::kRankStop));
}

TEST(EnTkTest, ResultsRecordStageSpans) {
  rp::Session session(session_config());
  AppManager manager(session);
  Pipeline pipeline;
  pipeline.name = "p0";
  pipeline.stages.push_back(Stage{"s0", {simple_task("a", 10.0)}});
  pipeline.stages.push_back(Stage{"s1", {simple_task("b", 20.0)}});
  manager.add_pipeline(std::move(pipeline));
  session.start([&] { manager.run([&] { session.finalize(); }); });
  session.run();

  ASSERT_EQ(manager.results().size(), 1u);
  const PipelineResult& result = manager.results().front();
  EXPECT_EQ(result.name, "p0");
  ASSERT_EQ(result.stage_spans.size(), 2u);
  EXPECT_LT(result.stage_spans[0].second, result.stage_spans[1].second);
  EXPECT_GT(result.duration_seconds(), 30.0);
  EXPECT_TRUE(manager.finished());
}

TEST(EnTkTest, StageCallbackFiresBetweenStages) {
  rp::Session session(session_config());
  AppManager manager(session);
  Pipeline pipeline;
  pipeline.name = "p0";
  pipeline.stages.push_back(Stage{"s0", {simple_task("a", 5.0)}});
  pipeline.stages.push_back(Stage{"s1", {simple_task("b", 5.0)}});
  manager.add_pipeline(std::move(pipeline));

  std::vector<std::pair<std::size_t, std::size_t>> callbacks;
  manager.set_stage_callback([&](std::size_t p, std::size_t s) {
    callbacks.emplace_back(p, s);
  });
  session.start([&] { manager.run([&] { session.finalize(); }); });
  session.run();

  ASSERT_EQ(callbacks.size(), 2u);
  const std::pair<std::size_t, std::size_t> first{0, 0};
  const std::pair<std::size_t, std::size_t> second{0, 1};
  EXPECT_EQ(callbacks[0], first);
  EXPECT_EQ(callbacks[1], second);
}

TEST(EnTkTest, NonEntkTasksIgnored) {
  rp::Session session(session_config());
  AppManager manager(session);
  Pipeline pipeline;
  pipeline.name = "p0";
  pipeline.stages.push_back(Stage{"s0", {simple_task("managed", 30.0)}});
  manager.add_pipeline(std::move(pipeline));

  session.start([&] {
    // An unmanaged task completing must not advance the pipeline.
    session.submit(simple_task("unmanaged", 1.0));
    manager.run([&] { session.finalize(); });
  });
  session.run();
  EXPECT_TRUE(manager.finished());
  EXPECT_EQ(manager.results().front().stage_spans.size(), 1u);
}

TEST(EnTkTest, ValidationErrors) {
  rp::Session session(session_config());
  AppManager manager(session);
  EXPECT_THROW(manager.add_pipeline(Pipeline{"empty", {}}), InternalError);
  Pipeline bad;
  bad.name = "bad";
  bad.stages.push_back(Stage{"s0", {}});
  EXPECT_THROW(manager.add_pipeline(std::move(bad)), InternalError);
  EXPECT_THROW(manager.run([] {}), InternalError);  // no pipelines
}

TEST(EnTkTest, ManyPipelinesAllComplete) {
  rp::Session session(session_config(4));
  AppManager manager(session);
  for (int p = 0; p < 10; ++p) {
    Pipeline pipeline;
    pipeline.name = numbered("p", p);
    for (int s = 0; s < 3; ++s) {
      pipeline.stages.push_back(
          Stage{numbered("s", s),
                {simple_task(numbered("t", p) + "." + std::to_string(s),
                             5.0 + p)}});
    }
    manager.add_pipeline(std::move(pipeline));
  }
  session.start([&] { manager.run([&] { session.finalize(); }); });
  session.run();
  EXPECT_EQ(manager.results().size(), 10u);
  for (const auto& result : manager.results()) {
    EXPECT_EQ(result.stage_spans.size(), 3u);
    EXPECT_GT(result.duration_seconds(), 15.0);
  }
}

}  // namespace
}  // namespace soma::entk
