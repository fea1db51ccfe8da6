#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "events/event.h"
#include "events/federated_channel.h"
#include "events/placement_table.h"
#include "sched/load_balancer.h"
#include "sched/utilization_ledger.h"
#include "events/local_channel.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace rtcm::events {
namespace {

using rtcm::testing::placed;

Event make_trigger(ProcessorId source, TaskId task, std::size_t stage,
                   Placement placement) {
  return Event{source, Time(0),
               TriggerPayload{task, JobId(1), stage, placement, Time(1000000),
                              Time(0)}};
}

// --- Event -------------------------------------------------------------------

TEST(EventTest, TypeFromPayload) {
  Event e{
      ProcessorId(0), Time(0),
      TaskArrivePayload{TaskId(1), JobId(2), ProcessorId(0), Time(0), true}};
  EXPECT_EQ(e.type(), EventType::kTaskArrive);
  e.payload = AcceptPayload{};
  EXPECT_EQ(e.type(), EventType::kAccept);
  e.payload = RejectPayload{};
  EXPECT_EQ(e.type(), EventType::kReject);
  e.payload = TriggerPayload{};
  EXPECT_EQ(e.type(), EventType::kTrigger);
  e.payload = IdleResetPayload{};
  EXPECT_EQ(e.type(), EventType::kIdleReset);
}

TEST(EventTest, PayloadAs) {
  const Event e{ProcessorId(3), Time(5),
                TaskArrivePayload{TaskId(1), JobId(2), ProcessorId(3), Time(5),
                                  false}};
  const auto& p = payload_as<TaskArrivePayload>(e);
  EXPECT_EQ(p.task, TaskId(1));
  EXPECT_EQ(p.job, JobId(2));
}

TEST(EventTest, ToStringMentionsTypeAndIds) {
  const Event e{ProcessorId(3), Time(5),
                TaskArrivePayload{TaskId(1), JobId(2), ProcessorId(3), Time(5),
                                  false}};
  const std::string s = e.to_string();
  EXPECT_NE(s.find("TaskArrive"), std::string::npos);
  EXPECT_NE(s.find("T1"), std::string::npos);
  EXPECT_NE(s.find("J2"), std::string::npos);
}

TEST(RouteKeyTest, EventKeyedByTypeOrStage) {
  EXPECT_EQ(RouteKey::of(make_trigger(ProcessorId(0), TaskId(3), 2,
                                      placed({ProcessorId(0)}))),
            RouteKey::trigger(TaskId(3), 2));
  EXPECT_EQ(RouteKey::of(Event{ProcessorId(0), Time(0), AcceptPayload{}}),
            RouteKey::of(EventType::kAccept));
  EXPECT_NE(RouteKey::trigger(TaskId(3), 2), RouteKey::trigger(TaskId(3), 1));
  EXPECT_NE(RouteKey::of(EventType::kAccept),
            RouteKey::of(EventType::kReject));
}

// --- PlacementTable ----------------------------------------------------------

TEST(PlacementTableTest, EqualPlacementsShareOneEntry) {
  PlacementTable table;
  const std::vector<ProcessorId> a{ProcessorId(1), ProcessorId(2)};
  const std::vector<ProcessorId> same{ProcessorId(1), ProcessorId(2)};
  const std::vector<ProcessorId> reversed{ProcessorId(2), ProcessorId(1)};
  const std::vector<ProcessorId> prefix{ProcessorId(1)};

  const Placement first = table.intern(a);
  EXPECT_TRUE(std::ranges::equal(first, a));
  EXPECT_NE(first.data(), a.data());  // the table holds its own copy
  const Placement again = table.intern(same);
  EXPECT_EQ(again.data(), first.data());
  EXPECT_EQ(again.size(), first.size());
  EXPECT_NE(table.intern(reversed).data(), first.data());
  EXPECT_NE(table.intern(prefix).data(), first.data());
  EXPECT_EQ(table.size(), 3u);
  // Re-interning an interned span is the identity.
  EXPECT_EQ(table.intern(first).data(), first.data());
  EXPECT_EQ(table.size(), 3u);
  // The empty placement is never stored.
  EXPECT_TRUE(table.intern({}).empty());
  EXPECT_EQ(table.size(), 3u);
}

TEST(PlacementTableTest, SpansStayValidWhileTheTableGrows) {
  // Events in flight keep their spans while later admissions intern new
  // placements; growth (index rehash, new storage blocks) must not move
  // or free an entry.
  PlacementTable table;
  std::vector<std::vector<ProcessorId>> originals;
  std::vector<Placement> spans;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    std::vector<ProcessorId> p;
    p.emplace_back(i);  // distinct by construction
    const auto extra = rng.uniform_int(0, 7);
    for (std::int64_t k = 0; k < extra; ++k) {
      p.emplace_back(static_cast<std::int32_t>(rng.uniform_int(0, 80)));
    }
    spans.push_back(table.intern(p));
    originals.push_back(std::move(p));
  }
  ASSERT_EQ(table.size(), originals.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    ASSERT_TRUE(std::ranges::equal(spans[i], originals[i])) << i;
    ASSERT_EQ(table.intern(originals[i]).data(), spans[i].data()) << i;
  }
}

TEST(PlacementTableTest, SizeBoundedByDistinctPlacementsUnderPerJobBalancing) {
  // 10^4 LB-per-job decisions for three replicated tasks against a churning
  // ledger: the table grows with the distinct placements the balancer
  // produces, not with the number of jobs.
  const sched::TaskSpec tasks[] = {
      rtcm::testing::make_periodic(0, Duration::milliseconds(100),
                                   {{0, 20000, {1, 2}}, {1, 10000, {3}}}),
      rtcm::testing::make_periodic(
          1, Duration::milliseconds(200),
          {{2, 30000, {0}}, {3, 20000, {1, 2}}, {0, 10000, {4}}}),
      rtcm::testing::make_aperiodic(2, Duration::milliseconds(300),
                                    {{4, 50000, {0, 1, 2, 3}}})};
  std::size_t bound = 0;  // every candidate combination of every task
  for (const sched::TaskSpec& task : tasks) {
    std::size_t combos = 1;
    for (const sched::SubtaskSpec& st : task.subtasks) {
      combos *= st.candidate_count();
    }
    bound += combos;
  }

  PlacementTable table;
  sched::LoadBalancer balancer;
  sched::UtilizationLedger ledger;
  std::vector<sched::ContributionId> live;
  std::set<std::vector<ProcessorId>> distinct;
  std::vector<ProcessorId> out;
  Rng rng(11);
  for (int decision = 0; decision < 10000; ++decision) {
    if (live.size() > 20 || (!live.empty() && rng.uniform_int(0, 2) == 0)) {
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      (void)ledger.remove(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    const sched::TaskSpec& task = tasks[decision % 3];
    balancer.place(task, ledger, out);
    const Placement interned = table.intern(out);
    ASSERT_TRUE(std::ranges::equal(interned, out));
    distinct.emplace(out.begin(), out.end());
    for (std::size_t j = 0; j < out.size(); ++j) {
      live.push_back(ledger.add(out[j], task.subtask_utilization(j)));
    }
  }
  EXPECT_EQ(table.size(), distinct.size());
  EXPECT_LE(table.size(), bound);
  EXPECT_GT(table.size(), 3u);  // the balancer really did move stages
}

// --- LocalEventChannel -------------------------------------------------------

TEST(LocalChannelTest, DeliversToMatchingType) {
  LocalEventChannel channel(ProcessorId(0));
  int hits = 0;
  channel.subscribe(RouteKey::trigger(TaskId(1), 0),
                    [&](const Event&) { ++hits; });
  channel.deliver(
      make_trigger(ProcessorId(0), TaskId(1), 0, placed({ProcessorId(0)})));
  channel.deliver(Event{ProcessorId(0), Time(0), AcceptPayload{}});
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(channel.delivered_count(), 1u);
}

TEST(LocalChannelTest, FilterNarrowsDelivery) {
  // The (task, stage) key is the filter: triggers for another task or
  // another stage of the same task pass this subscription by.
  LocalEventChannel channel(ProcessorId(0));
  int hits = 0;
  channel.subscribe(RouteKey::trigger(TaskId(7), 0),
                    [&](const Event&) { ++hits; });
  const std::vector<ProcessorId> both{ProcessorId(0), ProcessorId(0)};
  channel.deliver(make_trigger(ProcessorId(0), TaskId(7), 0, both));
  channel.deliver(make_trigger(ProcessorId(0), TaskId(8), 0, both));
  channel.deliver(make_trigger(ProcessorId(0), TaskId(7), 1, both));
  EXPECT_EQ(hits, 1);
}

TEST(LocalChannelTest, MatchesQueriesWithoutDelivering) {
  LocalEventChannel channel(ProcessorId(0));
  channel.subscribe(RouteKey::of(EventType::kAccept), [](const Event&) {});
  channel.subscribe(RouteKey::trigger(TaskId(2), 1), [](const Event&) {});
  EXPECT_TRUE(channel.subscribed(RouteKey::of(EventType::kAccept)));
  EXPECT_FALSE(channel.subscribed(RouteKey::of(EventType::kReject)));
  EXPECT_TRUE(channel.subscribed(RouteKey::trigger(TaskId(2), 1)));
  EXPECT_FALSE(channel.subscribed(RouteKey::trigger(TaskId(2), 0)));
  EXPECT_FALSE(channel.subscribed(RouteKey::trigger(TaskId(1), 1)));
  EXPECT_EQ(channel.delivered_count(), 0u);
}

TEST(LocalChannelTest, MultipleConsumersInSubscriptionOrder) {
  // Subscriptions under other keys, made in between, do not disturb the
  // order within a key.
  LocalEventChannel channel(ProcessorId(0));
  std::vector<int> order;
  channel.subscribe(RouteKey::of(EventType::kAccept),
                    [&](const Event&) { order.push_back(1); });
  channel.subscribe(RouteKey::of(EventType::kReject),
                    [&](const Event&) { order.push_back(9); });
  channel.subscribe(RouteKey::of(EventType::kAccept),
                    [&](const Event&) { order.push_back(2); });
  channel.subscribe(RouteKey::of(EventType::kTaskArrive),
                    [&](const Event&) { order.push_back(8); });
  channel.subscribe(RouteKey::of(EventType::kAccept),
                    [&](const Event&) { order.push_back(3); });
  channel.deliver(Event{ProcessorId(0), Time(0), AcceptPayload{}});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(LocalChannelTest, Unsubscribe) {
  LocalEventChannel channel(ProcessorId(0));
  int hits = 0;
  const auto id = channel.subscribe(RouteKey::of(EventType::kAccept),
                                    [&](const Event&) { ++hits; });
  EXPECT_EQ(channel.subscription_count(), 1u);
  EXPECT_TRUE(channel.unsubscribe(id));
  EXPECT_FALSE(channel.unsubscribe(id));
  EXPECT_FALSE(channel.subscribed(RouteKey::of(EventType::kAccept)));
  channel.deliver(Event{ProcessorId(0), Time(0), AcceptPayload{}});
  EXPECT_EQ(hits, 0);
}

TEST(LocalChannelTest, ConsumerMaySubscribeDuringDelivery) {
  LocalEventChannel channel(ProcessorId(0));
  int late_hits = 0;
  channel.subscribe(RouteKey::of(EventType::kAccept), [&](const Event&) {
    channel.subscribe(RouteKey::of(EventType::kAccept),
                      [&](const Event&) { ++late_hits; });
  });
  channel.deliver(Event{ProcessorId(0), Time(0), AcceptPayload{}});
  // The subscription created during delivery must not receive the event
  // that triggered it.
  EXPECT_EQ(late_hits, 0);
  channel.deliver(Event{ProcessorId(0), Time(0), AcceptPayload{}});
  EXPECT_EQ(late_hits, 1);
}

TEST(LocalChannelTest, ConsumerMayUnsubscribeALaterOneDuringDelivery) {
  LocalEventChannel channel(ProcessorId(0));
  std::vector<int> order;
  SubscriptionId second;
  channel.subscribe(RouteKey::of(EventType::kAccept), [&](const Event&) {
    order.push_back(1);
    channel.unsubscribe(second);
  });
  second = channel.subscribe(RouteKey::of(EventType::kAccept),
                             [&](const Event&) { order.push_back(2); });
  channel.subscribe(RouteKey::of(EventType::kAccept),
                    [&](const Event&) { order.push_back(3); });
  channel.deliver(Event{ProcessorId(0), Time(0), AcceptPayload{}});
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(channel.subscription_count(), 2u);
}

// --- FederatedEventChannel ---------------------------------------------------

class FederationFixture : public ::testing::Test {
 protected:
  FederationFixture()
      : network_(sim_, std::make_unique<sim::ConstantLatency>(
                           Duration(322), Duration::zero())),
        federation_(sim_, network_) {}

  sim::Simulator sim_;
  sim::Network network_;
  FederatedEventChannel federation_;
};

TEST_F(FederationFixture, RoutesOnlyToInterestedChannels) {
  int p1_hits = 0;
  int p2_hits = 0;
  federation_.channel(ProcessorId(1))
      .subscribe(RouteKey::trigger(TaskId(1), 0),
                 [&](const Event&) { ++p1_hits; });
  federation_.channel(ProcessorId(2))
      .subscribe(RouteKey::of(EventType::kAccept),
                 [&](const Event&) { ++p2_hits; });

  federation_.push(ProcessorId(0),
                   TriggerPayload{TaskId(1), JobId(1), 0,
                                  placed({ProcessorId(1)}), Time(1000), Time(0)});
  sim_.run_all();
  EXPECT_EQ(p1_hits, 1);
  EXPECT_EQ(p2_hits, 0);
  EXPECT_EQ(federation_.stats().events_pushed, 1u);
  EXPECT_EQ(federation_.stats().remote_deliveries, 1u);
  // Only one network message: the gateway filtered P2 out at the source.
  EXPECT_EQ(network_.stats().messages_sent, 1u);
}

TEST_F(FederationFixture, RemoteDeliveryIncursLatency) {
  Time delivered;
  federation_.channel(ProcessorId(1))
      .subscribe(RouteKey::of(EventType::kAccept),
                 [&](const Event&) { delivered = sim_.now(); });
  federation_.push(ProcessorId(0),
                   AcceptPayload{TaskId(1), JobId(1), ProcessorId(1),
                                 placed({ProcessorId(1)}), Time(99), false});
  sim_.run_all();
  EXPECT_EQ(delivered, Time(322));
}

TEST_F(FederationFixture, LocalDeliveryUsesLoopback) {
  Time delivered;
  federation_.channel(ProcessorId(0))
      .subscribe(RouteKey::of(EventType::kAccept),
                 [&](const Event&) { delivered = sim_.now(); });
  federation_.push(ProcessorId(0),
                   AcceptPayload{TaskId(1), JobId(1), ProcessorId(0),
                                 placed({ProcessorId(0)}), Time(99), false});
  sim_.run_all();
  EXPECT_EQ(delivered, Time(0));  // loopback latency configured as zero
  EXPECT_EQ(federation_.stats().local_deliveries, 1u);
}

TEST_F(FederationFixture, FanOutToMultipleProcessors) {
  int hits = 0;
  for (int p = 1; p <= 3; ++p) {
    federation_.channel(ProcessorId(p))
        .subscribe(RouteKey::of(EventType::kIdleReset),
                   [&](const Event&) { ++hits; });
  }
  federation_.push(ProcessorId(0), IdleResetPayload{ProcessorId(0), {}});
  sim_.run_all();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(network_.stats().messages_sent, 3u);
}

TEST_F(FederationFixture, PublishedTimestampIsPushTime) {
  Time published;
  federation_.channel(ProcessorId(1))
      .subscribe(RouteKey::of(EventType::kAccept),
                 [&](const Event& e) { published = e.published; });
  sim_.schedule_at(Time(500), [&] {
    federation_.push(ProcessorId(0),
                     AcceptPayload{TaskId(1), JobId(1), ProcessorId(1),
                                   placed({ProcessorId(1)}), Time(99), false});
  });
  sim_.run_all();
  EXPECT_EQ(published, Time(500));
}

TEST_F(FederationFixture, ChannelCreatedOnDemand) {
  EXPECT_EQ(federation_.channel_count(), 0u);
  federation_.channel(ProcessorId(4));
  federation_.channel(ProcessorId(4));
  EXPECT_EQ(federation_.channel_count(), 1u);
}

TEST_F(FederationFixture, AcceptGoesToArrivalAndFirstStageInProcessorOrder) {
  // Re-allocated first stage: placement.front() (P1) sorts before the
  // arrival processor (P3), so P1's copy is sent first.  P2's TE is not
  // addressed and gets nothing.
  std::vector<int> order;
  for (int p = 1; p <= 3; ++p) {
    federation_.channel(ProcessorId(p))
        .subscribe(RouteKey::of(EventType::kAccept),
                   [&order, p](const Event&) { order.push_back(p); });
  }
  federation_.push(ProcessorId(0),
                   AcceptPayload{TaskId(1), JobId(1), ProcessorId(3),
                                 placed({ProcessorId(1), ProcessorId(2)}), Time(99),
                                 false});
  sim_.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(network_.stats().messages_sent, 2u);

  // Arrival and first stage on one processor: one copy, not two.
  order.clear();
  federation_.push(ProcessorId(0),
                   AcceptPayload{TaskId(1), JobId(2), ProcessorId(2),
                                 placed({ProcessorId(2)}), Time(99), false});
  sim_.run_all();
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(network_.stats().messages_sent, 3u);
}

TEST_F(FederationFixture, AddressedChannelWithoutSubscriptionGetsNoMessage) {
  // P1 exists and hosts stage 0 of T1, but the trigger is for stage 1.
  federation_.channel(ProcessorId(1))
      .subscribe(RouteKey::trigger(TaskId(1), 0), [](const Event&) {});
  federation_.push(ProcessorId(0),
                   TriggerPayload{TaskId(1), JobId(1), 1,
                                  placed({ProcessorId(1), ProcessorId(1)}),
                                  Time(1000), Time(0)});
  // A stage past the placement addresses no processor at all.
  federation_.push(ProcessorId(0),
                   TriggerPayload{TaskId(1), JobId(1), 0, {}, Time(1000),
                                  Time(0)});
  sim_.run_all();
  EXPECT_EQ(network_.stats().messages_sent, 0u);
  EXPECT_EQ(federation_.stats().events_pushed, 2u);
  EXPECT_EQ(federation_.stats().remote_deliveries, 0u);
}

TEST_F(FederationFixture, BroadcastFollowsSubscriptionsAsTheyComeAndGo) {
  int hits = 0;
  const SubscriptionId first =
      federation_.channel(ProcessorId(2))
          .subscribe(RouteKey::of(EventType::kTaskArrive),
                     [&](const Event&) { ++hits; });
  const SubscriptionId second =
      federation_.channel(ProcessorId(2))
          .subscribe(RouteKey::of(EventType::kTaskArrive),
                     [&](const Event&) { ++hits; });
  const TaskArrivePayload arrive{TaskId(1), JobId(1), ProcessorId(0), Time(0),
                                 true};
  federation_.push(ProcessorId(0), arrive);
  sim_.run_all();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(network_.stats().messages_sent, 1u);

  // P2 still holds one subscription after the first goes.
  EXPECT_TRUE(federation_.channel(ProcessorId(2)).unsubscribe(first));
  federation_.push(ProcessorId(0), arrive);
  sim_.run_all();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(network_.stats().messages_sent, 2u);

  EXPECT_TRUE(federation_.channel(ProcessorId(2)).unsubscribe(second));
  federation_.push(ProcessorId(0), arrive);
  sim_.run_all();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(network_.stats().messages_sent, 2u);
}

// --- Keyed routing against the predicate flood -----------------------------
//
// FloodModel is a test-only copy of the routing the keyed channel replaced:
// every push asks every channel, in ascending processor order, whether any
// of its subscriptions' predicates accepts the event; each channel that
// answers yes gets one message, and delivery runs the accepting consumers
// in subscription order.  The subscriptions are the middleware's own
// shapes: a Subtask per (task, stage) instance, a TE per application
// processor and the AC on the manager.

/// One consumer call: (channel processor, subscription tag).
using DeliveryLog = std::vector<std::pair<std::int32_t, std::int32_t>>;

struct ShapedSubscription {
  std::int32_t processor;
  std::int32_t tag;
  RouteKey key;
  std::function<bool(const Event&)> accepts;  // the predicate it replaced
};

ShapedSubscription subtask_subscription(std::int32_t processor,
                                        std::int32_t tag, TaskId task,
                                        std::size_t stage) {
  const ProcessorId me(processor);
  return {processor, tag, RouteKey::trigger(task, stage),
          [me, task, stage](const Event& e) {
            const auto* p = std::get_if<TriggerPayload>(&e.payload);
            return p != nullptr && p->task == task && p->stage == stage &&
                   stage < p->placement.size() && p->placement[stage] == me;
          }};
}

ShapedSubscription te_subscription(std::int32_t processor, std::int32_t tag,
                                   EventType type) {
  const ProcessorId me(processor);
  if (type == EventType::kAccept) {
    return {processor, tag, RouteKey::of(type), [me](const Event& e) {
              const auto* p = std::get_if<AcceptPayload>(&e.payload);
              return p != nullptr &&
                     (p->arrival_processor == me ||
                      (!p->placement.empty() && p->placement.front() == me));
            }};
  }
  return {processor, tag, RouteKey::of(type), [me](const Event& e) {
            const auto* p = std::get_if<RejectPayload>(&e.payload);
            return p != nullptr && p->arrival_processor == me;
          }};
}

ShapedSubscription ac_subscription(std::int32_t processor, std::int32_t tag,
                                   EventType type) {
  return {processor, tag, RouteKey::of(type),
          [type](const Event& e) { return e.type() == type; }};
}

class FloodModel {
 public:
  void subscribe(const ShapedSubscription& sub) {
    channels_[sub.processor].push_back(sub);
  }
  void unsubscribe(std::int32_t processor, std::int32_t tag) {
    std::erase_if(channels_[processor], [tag](const ShapedSubscription& s) {
      return s.tag == tag;
    });
  }
  void push(const Event& event, DeliveryLog& log) {
    ++stats_.events_pushed;
    for (const auto& [processor, subs] : channels_) {
      const auto accepts = [&](const ShapedSubscription& s) {
        return s.accepts(event);
      };
      if (std::none_of(subs.begin(), subs.end(), accepts)) continue;
      ++messages_;
      if (processor == event.source.value()) ++stats_.local_deliveries;
      else ++stats_.remote_deliveries;
      for (const ShapedSubscription& s : subs) {
        if (s.accepts(event)) log.emplace_back(processor, s.tag);
      }
    }
  }
  [[nodiscard]] const FederationStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t messages() const { return messages_; }

 private:
  std::map<std::int32_t, std::vector<ShapedSubscription>> channels_;
  FederationStats stats_;
  std::uint64_t messages_ = 0;
};

TEST(KeyedRoutingTest, ReplaysThePredicateFloodExactly) {
  constexpr std::int32_t kApps = 6;       // application processors 0..5
  constexpr std::int32_t kManager = 6;    // the AC's processor
  constexpr std::int32_t kTasks = 5;
  constexpr std::size_t kStages = 3;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    sim::Simulator sim;
    // Equal loopback and remote latency: deliveries then run in send order,
    // so the consumer log also records the destination order.
    sim::Network network(sim, std::make_unique<sim::ConstantLatency>(
                                  Duration(50), Duration(50)));
    FederatedEventChannel federation(sim, network);
    FloodModel model;
    DeliveryLog log;
    DeliveryLog expected;
    std::vector<std::pair<ShapedSubscription, SubscriptionId>> live;
    std::int32_t next_tag = 0;

    const auto add = [&](ShapedSubscription sub) {
      model.subscribe(sub);
      DeliveryLog* out = &log;
      const std::int32_t proc = sub.processor;
      const std::int32_t tag = sub.tag;
      const SubscriptionId id =
          federation.channel(ProcessorId(proc))
              .subscribe(sub.key, [out, proc, tag](const Event&) {
                out->emplace_back(proc, tag);
              });
      live.emplace_back(std::move(sub), id);
    };
    const auto random_proc = [&] {
      return static_cast<std::int32_t>(rng.uniform_int(0, kApps - 1));
    };
    const auto add_subtask = [&] {
      const TaskId task(
          static_cast<std::int32_t>(rng.uniform_int(0, kTasks - 1)));
      const auto stage =
          static_cast<std::size_t>(rng.uniform_int(0, kStages - 1));
      add(subtask_subscription(random_proc(), next_tag++, task, stage));
    };

    for (std::int32_t p = 0; p < kApps; ++p) {
      add(te_subscription(p, next_tag++, EventType::kAccept));
      add(te_subscription(p, next_tag++, EventType::kReject));
    }
    add(ac_subscription(kManager, next_tag++, EventType::kTaskArrive));
    add(ac_subscription(kManager, next_tag++, EventType::kIdleReset));
    // Primaries and replicas; random placement also puts two instances of
    // one stage on one processor now and then (an old and a new instance
    // across a reconfiguration), whose order must hold.
    for (int i = 0; i < 40; ++i) add_subtask();

    const auto random_placement = [&] {
      std::vector<ProcessorId> placement;
      const auto len = rng.uniform_int(0, kStages);
      for (std::int64_t j = 0; j < len; ++j) {
        placement.emplace_back(random_proc());
      }
      return placement;
    };
    for (int op = 0; op < 600; ++op) {
      const std::int64_t roll = rng.uniform_int(0, 99);
      const ProcessorId source(static_cast<std::int32_t>(
          rng.uniform_int(0, kManager)));
      const TaskId task(
          static_cast<std::int32_t>(rng.uniform_int(0, kTasks - 1)));
      const JobId job(op);
      EventPayload payload;
      if (roll < 3) {
        add_subtask();
        continue;
      }
      if (roll < 5 && !live.empty()) {
        // Removal is not a middleware path, but it must keep the tables
        // (the broadcast listeners included) in step.
        const auto victim = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        const auto& [sub, id] = live[victim];
        model.unsubscribe(sub.processor, sub.tag);
        EXPECT_TRUE(federation.channel(ProcessorId(sub.processor))
                        .unsubscribe(id));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        continue;
      }
      if (roll < 45) {
        payload = TriggerPayload{
            task, job,
            static_cast<std::size_t>(rng.uniform_int(0, kStages)),
            placed(random_placement()), Time(1000000), Time(0)};
      } else if (roll < 65) {
        payload = AcceptPayload{task, job, ProcessorId(random_proc()),
                                placed(random_placement()), Time(1000000),
                                rng.uniform_int(0, 1) == 1};
      } else if (roll < 75) {
        payload = RejectPayload{task, job, ProcessorId(random_proc())};
      } else if (roll < 90) {
        payload = TaskArrivePayload{task, job, ProcessorId(random_proc()),
                                    sim.now(), rng.uniform_int(0, 1) == 1};
      } else {
        IdleResetPayload reset{ProcessorId(random_proc()), {}};
        reset.completed.push_back(SubjobRef{task, job, 0});
        payload = std::move(reset);
      }
      model.push(Event{source, sim.now(), payload}, expected);
      federation.push(source, std::move(payload));
      sim.run_all();
      ASSERT_EQ(log, expected) << "seed " << seed << " op " << op;
    }
    EXPECT_GT(log.size(), 300u) << "seed " << seed;
    EXPECT_EQ(federation.stats().events_pushed, model.stats().events_pushed);
    EXPECT_EQ(federation.stats().local_deliveries,
              model.stats().local_deliveries);
    EXPECT_EQ(federation.stats().remote_deliveries,
              model.stats().remote_deliveries);
    EXPECT_EQ(network.stats().messages_sent, model.messages());
  }
}

TEST(EventTypeNamesTest, AllNamed) {
  EXPECT_STREQ(to_string(EventType::kTaskArrive), "TaskArrive");
  EXPECT_STREQ(to_string(EventType::kAccept), "Accept");
  EXPECT_STREQ(to_string(EventType::kReject), "Reject");
  EXPECT_STREQ(to_string(EventType::kTrigger), "Trigger");
  EXPECT_STREQ(to_string(EventType::kIdleReset), "IdleReset");
}

}  // namespace
}  // namespace rtcm::events
