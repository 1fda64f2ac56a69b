// Unit tests for the ZeroMQ-like component channels.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "comm/channel.hpp"

namespace soma::comm {
namespace {

TEST(ChannelTest, DeliversAfterLatency) {
  sim::Simulation simulation;
  Channel<int> channel(simulation, "test", Duration::milliseconds(5));
  std::vector<std::pair<double, int>> received;
  channel.set_consumer([&](int value) {
    received.emplace_back(simulation.now().to_seconds(), value);
  });
  channel.put(42);
  simulation.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].second, 42);
  EXPECT_NEAR(received[0].first, 0.005, 1e-9);
}

TEST(ChannelTest, PreservesOrder) {
  sim::Simulation simulation;
  Channel<int> channel(simulation, "test");
  std::vector<int> received;
  channel.set_consumer([&](int value) { received.push_back(value); });
  for (int i = 0; i < 10; ++i) channel.put(i);
  simulation.run();
  ASSERT_EQ(received.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST(ChannelTest, BuffersUntilConsumerRegisters) {
  sim::Simulation simulation;
  Channel<std::string> channel(simulation, "late-joiner");
  channel.put("early");
  channel.put("bird");
  simulation.run();  // deliveries fire, no consumer: buffered
  EXPECT_EQ(channel.buffered(), 2u);
  EXPECT_EQ(channel.delivered(), 0u);

  std::vector<std::string> received;
  channel.set_consumer(
      [&](std::string value) { received.push_back(std::move(value)); });
  // Flushed synchronously on registration, in order.
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], "early");
  EXPECT_EQ(received[1], "bird");
  EXPECT_EQ(channel.buffered(), 0u);
  EXPECT_EQ(channel.delivered(), 2u);
}

TEST(ChannelTest, MoveOnlyPayloads) {
  sim::Simulation simulation;
  Channel<std::unique_ptr<int>> channel(simulation, "move-only");
  int value = 0;
  channel.set_consumer(
      [&](std::unique_ptr<int> payload) { value = *payload; });
  channel.put(std::make_unique<int>(7));
  simulation.run();
  EXPECT_EQ(value, 7);
}

TEST(ChannelTest, ConsumerMaySendOnOtherChannel) {
  // The RP pattern: each component consumes from one queue and pushes to
  // the next component's queue.
  sim::Simulation simulation;
  Channel<int> first(simulation, "a", Duration::milliseconds(1));
  Channel<int> second(simulation, "b", Duration::milliseconds(1));
  std::vector<double> arrival;
  first.set_consumer([&](int value) { second.put(value + 1); });
  second.set_consumer([&](int value) {
    arrival.push_back(simulation.now().to_seconds());
    EXPECT_EQ(value, 11);
  });
  first.put(10);
  simulation.run();
  ASSERT_EQ(arrival.size(), 1u);
  EXPECT_NEAR(arrival[0], 0.002, 1e-9);  // two hops
}

TEST(ChannelTest, NameAndLatencyAccessors) {
  sim::Simulation simulation;
  Channel<int> channel(simulation, "tmgr->agent", Duration::microseconds(50));
  EXPECT_EQ(channel.name(), "tmgr->agent");
  EXPECT_EQ(channel.latency(), Duration::microseconds(50));
}

}  // namespace
}  // namespace soma::comm
