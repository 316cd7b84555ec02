#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>

#include "src/net/connection.h"
#include "src/net/event_loop.h"
#include "src/net/fd.h"
#include "src/net/framed_channel.h"
#include "src/net/socket.h"
#include "src/util/liveness.h"

namespace lard {
namespace {

// Helper: run a loop on a thread, with setup/teardown marshalled onto it.
class LoopFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    thread_ = std::thread([this]() { loop_.Run(); });
  }
  void TearDown() override {
    loop_.Stop();
    thread_.join();
  }
  // Runs fn on the loop thread, waits for completion.
  void OnLoop(std::function<void()> fn) {
    std::promise<void> done;
    loop_.Post([&]() {
      fn();
      done.set_value();
    });
    done.get_future().wait();
  }

  EventLoop loop_;
  std::thread thread_;
};

TEST(UniqueFdTest, ClosesOnDestruction) {
  int raw;
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    UniqueFd a(fds[0]);
    UniqueFd b(fds[1]);
    raw = fds[0];
    EXPECT_TRUE(a.valid());
  }
  // fd should now be closed: fcntl fails.
  EXPECT_EQ(::fcntl(raw, F_GETFD), -1);
}

TEST(UniqueFdTest, MoveTransfersOwnership) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  UniqueFd a(fds[0]);
  UniqueFd b(fds[1]);
  UniqueFd moved = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(moved.get(), fds[0]);
}

TEST(SocketTest, ListenConnectRoundTrip) {
  uint16_t port = 0;
  auto listener = ListenTcp(0, &port);
  ASSERT_TRUE(listener.ok());
  ASSERT_NE(port, 0);
  auto client = ConnectTcp(port);
  ASSERT_TRUE(client.ok());
  const int accepted = ::accept(listener.value().get(), nullptr, nullptr);
  ASSERT_GE(accepted, 0);
  UniqueFd server(accepted);
  ASSERT_EQ(::send(client.value().get(), "ping", 4, 0), 4);
  char buf[8] = {0};
  ASSERT_EQ(::recv(server.get(), buf, sizeof(buf), 0), 4);
  EXPECT_STREQ(buf, "ping");
}

TEST(SocketTest, UnixPairIsConnected) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_EQ(::send(pair.value().first.get(), "x", 1, 0), 1);
  char c = 0;
  ASSERT_EQ(::recv(pair.value().second.get(), &c, 1, 0), 1);
  EXPECT_EQ(c, 'x');
}

TEST(EventLoopTest, StopBeforeRunStillEndsTheLoop) {
  // A loop thread can start late: a Stop() issued first must not be lost
  // when Run() begins, or the joining owner waits forever.
  EventLoop loop;
  bool ran = false;
  loop.Post([&ran]() { ran = true; });
  loop.Stop();
  std::thread thread([&loop]() { loop.Run(); });
  thread.join();
  EXPECT_TRUE(ran);  // the final drain still runs posted tasks
}

TEST_F(LoopFixture, PostRunsOnLoopThread) {
  std::promise<bool> in_loop;
  loop_.Post([&]() { in_loop.set_value(loop_.IsInLoopThread()); });
  EXPECT_TRUE(in_loop.get_future().get());
  EXPECT_FALSE(loop_.IsInLoopThread());
}

TEST_F(LoopFixture, TimerFires) {
  std::promise<void> fired;
  OnLoop([&]() { loop_.ScheduleAfterMs(10, [&]() { fired.set_value(); }); });
  EXPECT_EQ(fired.get_future().wait_for(std::chrono::seconds(5)), std::future_status::ready);
}

TEST_F(LoopFixture, GuardedTimerOfDestroyedOwnerDoesNotFire) {
  // Timers are not cancelled; an owner that goes away first invalidates its
  // LivenessToken and the pending callback becomes a no-op.
  std::atomic<bool> fired{false};
  std::promise<void> later_fired;
  OnLoop([&]() {
    auto owner = std::make_unique<LivenessToken>();
    loop_.ScheduleAfterMs(20, owner->Guard([&]() { fired.store(true); }));
    owner->Invalidate();
    loop_.ScheduleAfterMs(60, [&]() { later_fired.set_value(); });
  });
  later_fired.get_future().wait();
  EXPECT_FALSE(fired.load());
}

TEST_F(LoopFixture, ConnectionEchoes) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  UniqueFd outside = std::move(pair.value().second);

  std::unique_ptr<Connection> conn;
  OnLoop([&]() {
    conn = std::make_unique<Connection>(&loop_, std::move(pair.value().first));
    conn->set_on_data([&](std::string_view data) { conn->Write(data); });  // echo
    conn->Start();
  });
  ASSERT_EQ(::send(outside.get(), "hello", 5, 0), 5);
  char buf[8] = {0};
  ssize_t n = 0;
  for (int attempt = 0; attempt < 100 && n <= 0; ++attempt) {
    n = ::recv(outside.get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_EQ(n, 5);
  EXPECT_EQ(std::string(buf, 5), "hello");
  OnLoop([&]() { conn.reset(); });
}

TEST_F(LoopFixture, ConnectionDetachShipsUnconsumedBytes) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  UniqueFd outside = std::move(pair.value().second);

  std::unique_ptr<Connection> conn;
  std::promise<Connection::Detached> detached_promise;
  OnLoop([&]() {
    conn = std::make_unique<Connection>(&loop_, std::move(pair.value().first));
    conn->set_on_data([&](std::string_view data) {
      // Consume the first 4 bytes, push back the rest, then detach.
      conn->PushBack(data.substr(4));
      detached_promise.set_value(conn->Detach());
    });
    conn->Start();
  });
  ASSERT_EQ(::send(outside.get(), "headTAIL", 8, 0), 8);
  Connection::Detached detached = detached_promise.get_future().get();
  EXPECT_EQ(detached.unconsumed_input, "TAIL");
  ASSERT_TRUE(detached.fd.valid());
  // The detached fd is still the live socket: the peer can keep talking.
  ASSERT_EQ(::send(outside.get(), "more", 4, 0), 4);
  char buf[8] = {0};
  ssize_t n = -1;
  for (int attempt = 0; attempt < 100 && n <= 0; ++attempt) {
    n = ::recv(detached.fd.get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_EQ(n, 4);
  EXPECT_EQ(std::string(buf, 4), "more");
  OnLoop([&]() { conn.reset(); });
}

TEST_F(LoopFixture, FramedChannelRoundTrip) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().second.get(), true).ok());

  std::unique_ptr<FramedChannel> a;
  std::unique_ptr<FramedChannel> b;
  std::promise<std::pair<uint8_t, std::string>> received;
  OnLoop([&]() {
    a = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().first));
    b = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().second));
    b->set_on_message([&](uint8_t type, std::string payload, UniqueFd) {
      received.set_value({type, std::move(payload)});
    });
    a->Start();
    b->Start();
    a->Send(7, "payload bytes");
  });
  const auto [type, payload] = received.get_future().get();
  EXPECT_EQ(type, 7);
  EXPECT_EQ(payload, "payload bytes");
  OnLoop([&]() {
    a.reset();
    b.reset();
  });
}

TEST_F(LoopFixture, FramedChannelPassesFd) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().second.get(), true).ok());

  // The fd we pass: one end of a pipe; we verify by writing through it.
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  UniqueFd read_end(pipe_fds[0]);

  std::unique_ptr<FramedChannel> a;
  std::unique_ptr<FramedChannel> b;
  std::promise<UniqueFd> received_fd;
  OnLoop([&]() {
    a = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().first));
    b = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().second));
    b->set_on_message([&](uint8_t, std::string, UniqueFd fd) {
      received_fd.set_value(std::move(fd));
    });
    a->Start();
    b->Start();
    a->SendWithFd(1, "handoff", UniqueFd(pipe_fds[1]));
  });
  UniqueFd write_end = received_fd.get_future().get();
  ASSERT_TRUE(write_end.valid());
  ASSERT_EQ(::write(write_end.get(), "via-scm", 7), 7);
  char buf[16] = {0};
  ASSERT_EQ(::read(read_end.get(), buf, sizeof(buf)), 7);
  EXPECT_EQ(std::string(buf, 7), "via-scm");
  OnLoop([&]() {
    a.reset();
    b.reset();
  });
}

TEST_F(LoopFixture, FramedChannelInterleavesManyMessages) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().second.get(), true).ok());

  constexpr int kMessages = 500;
  std::unique_ptr<FramedChannel> a;
  std::unique_ptr<FramedChannel> b;
  std::promise<void> all_received;
  std::atomic<int> count{0};
  std::atomic<bool> in_order{true};
  OnLoop([&]() {
    a = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().first));
    b = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().second));
    b->set_on_message([&](uint8_t, std::string payload, UniqueFd) {
      const int expected = count.fetch_add(1);
      const std::string prefix = "msg" + std::to_string(expected) + ";";
      if (payload.rfind(prefix, 0) != 0) {
        in_order.store(false);
      }
      if (expected + 1 == kMessages) {
        all_received.set_value();
      }
    });
    a->Start();
    b->Start();
    for (int i = 0; i < kMessages; ++i) {
      // Mix small and large payloads to force partial writes and fragmented
      // frames on the receive side.
      std::string payload = "msg" + std::to_string(i) + ";";
      if (i % 7 == 0) {
        payload.append(60000, '#');
      }
      a->Send(2, payload);
    }
  });
  ASSERT_EQ(all_received.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(in_order.load());
  OnLoop([&]() {
    a.reset();
    b.reset();
  });
}

}  // namespace
}  // namespace lard
