// Watch streams of the sweep service are rendered on demand from small event
// records. These tests pin that contract: a watcher following a submission
// live and any number of replays after it finished read the same bytes, the
// lines match the service's established NDJSON, `status` and `result` by id
// keep answering the same, and a finished pure-hit submission stays small.
#include <gtest/gtest.h>

#include <malloc.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace sttgpu::serve {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "sttgpu_watch_XXXXXX");
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

struct FaultEnv {
  explicit FaultEnv(const char* spec) { ::setenv("STTGPU_SANDBOX_FAULT", spec, 1); }
  ~FaultEnv() { ::unsetenv("STTGPU_SANDBOX_FAULT"); }
};

bool asan_active() {
#if defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

std::string submit_request(const std::map<std::string, std::string>& options) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("protocol_version").value(kProtocolVersion);
  w.key("verb").value("submit");
  w.key("options").begin_object();
  for (const auto& [k, v] : options) w.key(k).value(v);
  w.end_object();
  w.end_object();
  return os.str();
}

std::string id_request(const char* verb, std::int64_t id) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("protocol_version").value(kProtocolVersion);
  w.key("verb").value(verb);
  w.key("id").value(id);
  w.end_object();
  return os.str();
}

/// One request/response exchange; returns the response frame's exact bytes.
std::string raw_request(const std::string& socket_path, const std::string& payload) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  write_frame(fd, payload);
  const std::optional<std::string> reply = read_frame(fd);
  ::close(fd);
  return reply.value_or("");
}

class WatchReplayTest : public ::testing::Test {
 protected:
  void StartServer(bool sandbox, unsigned jobs = 2) {
    ServerOptions so;
    so.socket_path = dir_.path + "/s.sock";
    so.cache_path = dir_.path + "/c.csv";
    so.jobs = jobs;
    so.sandbox = sandbox;
    server_ = std::make_unique<SweepServer>(std::move(so));
    server_->start();
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  const std::string& sock() const { return server_->socket_path(); }

  JsonValue submit(std::map<std::string, std::string> options) {
    options.emplace("scale", "0.05");
    return Client::connect(sock()).request(submit_request(options));
  }

  std::vector<std::string> watch(std::int64_t id) {
    std::vector<std::string> lines;
    Client::connect(sock()).stream(id_request("watch", id),
                                   [&](const std::string& line, const JsonValue&) {
                                     lines.push_back(line);
                                   });
    return lines;
  }

  /// Checks a finished submission whose live stream was @p live: two
  /// replays read the same lines, and status and result by id answer the
  /// same before and after them. Returns the result response.
  JsonValue ExpectReplaysMatch(std::int64_t id, const std::vector<std::string>& live) {
    const std::string status = raw_request(sock(), id_request("status", id));
    const std::string result = raw_request(sock(), id_request("result", id));
    EXPECT_EQ(watch(id), live);
    EXPECT_EQ(watch(id), live);
    EXPECT_EQ(raw_request(sock(), id_request("status", id)), status);
    EXPECT_EQ(raw_request(sock(), id_request("result", id)), result);
    return parse_json(result);
  }

  /// Submits, follows the watch from the ack on, and checks the replays.
  std::vector<std::string> SubmitWatchAndReplay(std::map<std::string, std::string> options) {
    const std::int64_t id = submit(std::move(options)).at("id").as_int();
    const std::vector<std::string> live = watch(id);
    ExpectReplaysMatch(id, live);
    return live;
  }

  /// The established lines of a one-task submission that simulated its
  /// config: the row is the one `result` serves.
  std::vector<std::string> SimulatedLines(std::int64_t id, const std::string& row) {
    const std::string n = std::to_string(id);
    return {
        R"({"event":"scheduled","id":)" + n + R"(,"total":1,"hits":0,"scheduled":1,"attached":0})",
        R"({"event":"start","arch":"C1","benchmark":"bfs"})",
        R"({"event":"done","arch":"C1","benchmark":"bfs","status":"ok","row":")" + row + R"("})",
        R"({"event":"complete","id":)" + n +
            R"(,"state":"complete","total":1,"hits":0,"simulated":1,"failed":0})",
    };
  }

  void ExpectSimulatedCase() {
    const std::int64_t id = submit({{"archs", "C1"}, {"benchmarks", "bfs"}}).at("id").as_int();
    const std::vector<std::string> live = watch(id);
    const JsonValue result = ExpectReplaysMatch(id, live);
    ASSERT_EQ(result.at("rows").size(), 1u);
    EXPECT_EQ(live, SimulatedLines(id, result.at("rows").at(0).as_string()));
  }

  TempDir dir_;
  std::unique_ptr<SweepServer> server_;
};

TEST_F(WatchReplayTest, SimulatedTaskWithSandboxReplaysTheLiveStream) {
  StartServer(/*sandbox=*/true);
  ExpectSimulatedCase();
}

TEST_F(WatchReplayTest, SimulatedTaskWithoutSandboxReplaysTheLiveStream) {
  StartServer(/*sandbox=*/false);
  ExpectSimulatedCase();
}

TEST_F(WatchReplayTest, PureHitReplaysTheEstablishedLines) {
  StartServer(/*sandbox=*/false);
  SubmitWatchAndReplay({{"archs", "C1"}, {"benchmarks", "bfs"}});
  const std::int64_t id = submit({{"archs", "C1"}, {"benchmarks", "bfs"}}).at("id").as_int();
  const std::vector<std::string> live = watch(id);
  ExpectReplaysMatch(id, live);
  const std::string n = std::to_string(id);
  const std::vector<std::string> want = {
      R"({"event":"scheduled","id":)" + n + R"(,"total":1,"hits":1,"scheduled":0,"attached":0})",
      R"({"event":"complete","id":)" + n +
          R"(,"state":"complete","total":1,"hits":1,"simulated":0,"failed":0})",
  };
  EXPECT_EQ(live, want);
  EXPECT_EQ(raw_request(sock(), id_request("status", id)),
            R"({"protocol_version":1,"ok":true,"id":)" + n +
                R"(,"state":"complete","total":1,"hits":1,"simulated":0,"failed":0,"pending":0})");
}

TEST_F(WatchReplayTest, AttachedAndCancelledSubmissionsReplayTheirLiveStreams) {
  // One worker wedged on C3/nw keeps C1/bfs queued, so the second C1/bfs
  // submission attaches to the first one's task.
  const FaultEnv env("C3/nw=hang");
  StartServer(/*sandbox=*/true, /*jobs=*/1);
  const std::int64_t blocker = submit({{"archs", "C3"}, {"benchmarks", "nw"}}).at("id").as_int();
  const std::int64_t owner = submit({{"archs", "C1"}, {"benchmarks", "bfs"}}).at("id").as_int();
  const JsonValue attached_ack = submit({{"archs", "C1,C2"}, {"benchmarks", "bfs"}});
  ASSERT_EQ(attached_ack.at("attached").as_int(), 1);
  ASSERT_EQ(attached_ack.at("scheduled").as_int(), 1);
  const std::int64_t attached = attached_ack.at("id").as_int();

  std::vector<std::string> live_blocker, live_owner, live_attached;
  std::thread t1([&] { live_owner = watch(owner); });
  std::thread t2([&] { live_attached = watch(attached); });
  std::thread t3([&] { live_blocker = watch(blocker); });
  // Let the watchers subscribe before anything moves.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Client::connect(sock()).request(id_request("cancel", blocker));
  t1.join();
  t2.join();
  t3.join();

  ExpectReplaysMatch(blocker, live_blocker);
  ExpectReplaysMatch(owner, live_owner);
  ExpectReplaysMatch(attached, live_attached);
  ASSERT_FALSE(live_blocker.empty());
  EXPECT_NE(live_blocker.back().find(R"("state":"cancelled")"), std::string::npos);
  ASSERT_FALSE(live_attached.empty());
  EXPECT_NE(live_attached.front().find(R"("scheduled":1,"attached":1})"), std::string::npos);
  EXPECT_NE(live_attached.back().find(R"("simulated":2,"failed":0})"), std::string::npos);
}

TEST_F(WatchReplayTest, FailedTaskReplaysItsErrorText) {
  const FaultEnv env("C1/bfs=abort");
  StartServer(/*sandbox=*/true);
  const std::vector<std::string> live =
      SubmitWatchAndReplay({{"archs", "C1"}, {"benchmarks", "bfs"}});
  ASSERT_EQ(live.size(), 4u);
  EXPECT_EQ(live[2].rfind(R"({"event":"failed","arch":"C1","benchmark":"bfs","status":"crashed",)"
                          R"("error":")", 0),
            0u)
      << live[2];
  EXPECT_NE(live[3].find(R"("state":"failed")"), std::string::npos);
}

TEST_F(WatchReplayTest, TelemetryFramesReplayVerbatim) {
  StartServer(/*sandbox=*/true);
  const std::vector<std::string> live = SubmitWatchAndReplay(
      {{"archs", "C1"}, {"benchmarks", "bfs"}, {"telemetry", "1"}, {"interval", "2000"}});
  std::size_t frames = 0;
  for (const std::string& line : live) {
    frames += line.rfind(R"({"event":"telemetry","arch":"C1","benchmark":"bfs",)", 0) == 0;
  }
  EXPECT_GE(frames, 2u);
  EXPECT_EQ(live.size(), frames + 4);  // scheduled, start, done, complete
}

TEST(ServeRetention, FinishedPureHitSubmissionKeepsAtMost160Bytes) {
  if (asan_active()) GTEST_SKIP() << "ASan's allocator does not report through mallinfo2";
  // mallinfo2 sees only the main arena; with a single arena every
  // connection thread allocates there.
  ::mallopt(M_ARENA_MAX, 1);
  TempDir dir;
  ServerOptions so;
  so.socket_path = dir.path + "/s.sock";
  so.cache_path = dir.path + "/c.csv";
  so.sandbox = false;
  SweepServer server(std::move(so));
  server.start();
  const std::string hit = submit_request({{"archs", "C1"}, {"benchmarks", "bfs"}, {"scale", "0.02"}});
  const JsonValue first = Client::connect(server.socket_path()).request(hit);
  Client::connect(server.socket_path())
      .stream(id_request("watch", first.at("id").as_int()),
              [](const std::string&, const JsonValue&) {});
  for (int i = 0; i < 200; ++i) raw_request(server.socket_path(), hit);  // warm up

  // Measure once every connection handler has exited, so no thread's cache
  // of freed chunks is counted as in use.
  const auto settled_heap = [&server] {
    while (server.stats().connections > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return ::mallinfo2().uordblks;
  };
  constexpr int kSubmissions = 2000;
  const std::size_t before = settled_heap();
  for (int i = 0; i < kSubmissions; ++i) raw_request(server.socket_path(), hit);
  const std::size_t after = settled_heap();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.store_hits, 200u + kSubmissions);
  EXPECT_EQ(s.tasks_simulated, 1u);
  const double per = (static_cast<double>(after) - static_cast<double>(before)) / kSubmissions;
  EXPECT_LE(per, 160.0) << "bytes retained per finished pure-hit submission";
  server.stop();
}

}  // namespace
}  // namespace sttgpu::serve
