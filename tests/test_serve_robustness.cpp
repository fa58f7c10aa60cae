// Robustness tests of the hardened sweep service: fair-queue scheduling,
// frame-parser abuse over a raw socket, read deadlines for silent clients,
// admission-control shedding, the health verb, crash containment through the
// server, and journal replay on restart.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hpp"
#include "serve/client.hpp"
#include "serve/fair_queue.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace sttgpu::serve {
namespace {

TEST(FairQueue, RoundRobinsAcrossClients) {
  FairQueue<std::string> q;
  q.push("a", "a1");
  q.push("a", "a2");
  q.push("a", "a3");
  q.push("b", "b1");
  q.push("c", "c1");
  q.push("c", "c2");
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(q.clients(), 3u);

  std::vector<std::string> order;
  while (auto item = q.pop()) order.push_back(*item);
  const std::vector<std::string> expected = {"a1", "b1", "c1", "a2", "c2", "a3"};
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.clients(), 0u);
}

TEST(FairQueue, LaneDrainsAndReappears) {
  FairQueue<int> q;
  q.push("x", 1);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
  q.push("x", 2);  // a drained lane was removed; re-pushing recreates it
  EXPECT_EQ(q.pop().value(), 2);
}

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "sttgpu_robust_XXXXXX");
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

struct FaultEnv {
  explicit FaultEnv(const char* spec) { ::setenv("STTGPU_SANDBOX_FAULT", spec, 1); }
  ~FaultEnv() { ::unsetenv("STTGPU_SANDBOX_FAULT"); }
};

/// Raw unix-socket connection, for speaking *broken* protocol on purpose.
struct RawConn {
  int fd = -1;
  explicit RawConn(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  void send(const void* buf, std::size_t n) { write_all(fd, buf, n); }
};

class RobustServeTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions so) {
    so.socket_path = dir_.path + "/s.sock";
    so.cache_path = dir_.path + "/c.csv";
    server_ = std::make_unique<SweepServer>(std::move(so));
    server_->start();
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  Client connect() { return Client::connect(server_->socket_path()); }

  static std::string submit_request(const std::string& archs,
                                    const std::string& benchmarks,
                                    const char* scale = "0.05") {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("protocol_version").value(kProtocolVersion);
    w.key("verb").value("submit");
    w.key("options").begin_object();
    w.key("archs").value(archs);
    w.key("benchmarks").value(benchmarks);
    w.key("scale").value(scale);
    w.end_object();
    w.end_object();
    return os.str();
  }

  static std::string verb_request(const std::string& verb, std::int64_t id = 0) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("protocol_version").value(kProtocolVersion);
    w.key("verb").value(verb);
    if (id > 0) w.key("id").value(id);
    w.end_object();
    return os.str();
  }

  /// The server must still answer ordinary requests — the liveness probe
  /// after every abuse case.
  void ExpectServerAlive() {
    const JsonValue resp = connect().request(verb_request("health"));
    EXPECT_TRUE(resp.at("ok").as_bool());
  }

  TempDir dir_;
  std::unique_ptr<SweepServer> server_;
};

TEST_F(RobustServeTest, GarbageBytesGetAProtocolErrorNotAHang) {
  StartServer(ServerOptions{});
  RawConn conn(server_->socket_path());
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  conn.send(garbage, sizeof garbage - 1);
  // The server answers with a well-formed "protocol" error frame.
  const std::optional<std::string> reply = read_frame(conn.fd);
  ASSERT_TRUE(reply.has_value());
  const JsonValue resp = parse_json(*reply);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("kind").as_string(), "protocol");
  ExpectServerAlive();
}

TEST_F(RobustServeTest, OversizedLengthIsRefusedWithoutAllocating) {
  StartServer(ServerOptions{});
  RawConn conn(server_->socket_path());
  std::string header(kFrameMagic, sizeof kFrameMagic);
  const std::uint32_t huge = kMaxFramePayload + 1;
  header.append(reinterpret_cast<const char*>(&huge), sizeof huge);
  conn.send(header.data(), header.size());
  const std::optional<std::string> reply = read_frame(conn.fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(parse_json(*reply).at("kind").as_string(), "protocol");
  ExpectServerAlive();
}

TEST_F(RobustServeTest, ZeroLengthFrameIsAProtocolError) {
  StartServer(ServerOptions{});
  RawConn conn(server_->socket_path());
  std::string header(kFrameMagic, sizeof kFrameMagic);
  const std::uint32_t zero = 0;
  header.append(reinterpret_cast<const char*>(&zero), sizeof zero);
  conn.send(header.data(), header.size());
  const std::optional<std::string> reply = read_frame(conn.fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(parse_json(*reply).at("kind").as_string(), "protocol");
  ExpectServerAlive();
}

TEST_F(RobustServeTest, TruncatedMagicThenHangupDoesNotWedgeTheServer) {
  StartServer(ServerOptions{});
  {
    RawConn conn(server_->socket_path());
    conn.send("SW", 2);  // half a magic, then close
  }
  ExpectServerAlive();
}

TEST_F(RobustServeTest, SilentClientIsDroppedAtTheReadDeadline) {
  ServerOptions so;
  so.read_deadline_s = 0.2;
  StartServer(std::move(so));
  RawConn conn(server_->socket_path());
  // Say nothing. The server must hang up on us, not wait forever.
  char byte = 0;
  const bool readable = wait_readable(conn.fd, /*timeout_ms=*/5000);
  ASSERT_TRUE(readable);
  EXPECT_EQ(::read(conn.fd, &byte, 1), 0);  // clean EOF: we were dropped
  // Poll the counter: the handler increments it after closing our fd.
  for (int i = 0; i < 100 && server_->stats().read_deadline_drops == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->stats().read_deadline_drops, 1u);
  ExpectServerAlive();
}

TEST_F(RobustServeTest, OverflowingSubmissionIsShedWithRetryHint) {
  const FaultEnv env("C1/bfs=hang");  // pin the single worker on a wedge
  ServerOptions so;
  so.jobs = 1;
  so.max_queue = 2;
  StartServer(std::move(so));

  // Occupies the worker (C1/bfs hangs in its sandbox child) and one queue
  // slot (C2/bfs waits behind it).
  const JsonValue busy = connect().request(submit_request("C1,C2", "bfs"));
  const std::int64_t busy_id = busy.at("id").as_int();
  // Wait for the worker to pick up C1/bfs, leaving exactly C2/bfs queued —
  // the admission arithmetic below assumes a settled queue.
  for (int i = 0; i < 500 && server_->stats().queued > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server_->stats().queued, 1u);

  // 3 more fresh tasks cannot fit a queue capped at 2 with 1 already waiting.
  try {
    connect().request(submit_request("C1,C2,C3", "nw"));
    FAIL() << "expected Overloaded";
  } catch (const Overloaded& e) {
    EXPECT_GT(e.retry_after_ms(), 0);
    EXPECT_NE(std::string(e.what()).find("max_queue"), std::string::npos);
  }
  EXPECT_EQ(server_->stats().shed, 1u);

  // A submission that fits (1 new task) is still admitted: shedding is
  // per-submission, not a global lockout.
  const JsonValue small = connect().request(submit_request("C3", "bfs"));
  EXPECT_EQ(small.at("scheduled").as_int(), 1);

  // Unwedge: cancelling the hung submission SIGKILLs the sandbox child.
  connect().request(verb_request("cancel", busy_id));
  const JsonValue final_event = connect().stream(
      verb_request("watch", busy_id), [](const std::string&, const JsonValue&) {});
  EXPECT_EQ(final_event.at("state").as_string(), "cancelled");
}

TEST_F(RobustServeTest, HealthVerbReportsTheRobustnessCounters) {
  StartServer(ServerOptions{});
  const JsonValue resp = connect().request(verb_request("health"));
  ASSERT_TRUE(resp.at("ok").as_bool());
  const JsonValue& h = resp.at("health");
  EXPECT_GE(h.at("uptime_s").as_double(), 0.0);
  EXPECT_TRUE(h.at("sandbox").as_bool());
  EXPECT_EQ(h.at("queued").as_int(), 0);
  EXPECT_EQ(h.at("inflight").as_int(), 0);
  EXPECT_EQ(h.at("shed").as_int(), 0);
  EXPECT_EQ(h.at("child_kills").as_int(), 0);
  EXPECT_EQ(h.at("child_crashes").as_int(), 0);
  EXPECT_EQ(h.at("journal_pending").as_int(), 0);
  EXPECT_EQ(h.at("replayed").as_int(), 0);
  EXPECT_GE(h.at("connections").as_int(), 1);  // ours
}

TEST_F(RobustServeTest, CrashingChildIsQuarantinedOthersUnaffected) {
  const FaultEnv env("C1/bfs=abort");
  StartServer(ServerOptions{});
  const JsonValue resp = connect().request(submit_request("C1,C2", "bfs"));
  const JsonValue final_event =
      connect().stream(verb_request("watch", resp.at("id").as_int()),
                       [](const std::string&, const JsonValue&) {});
  EXPECT_EQ(final_event.at("state").as_string(), "failed");
  EXPECT_EQ(final_event.at("failed").as_int(), 1);    // C1/bfs crashed
  EXPECT_EQ(final_event.at("simulated").as_int(), 1);  // C2/bfs finished
  const ServerStats s = server_->stats();
  EXPECT_EQ(s.child_crashes, 1u);
  EXPECT_EQ(s.tasks_failed, 1u);
  EXPECT_EQ(s.tasks_simulated, 1u);
  ExpectServerAlive();
}

TEST_F(RobustServeTest, JournaledSubmissionIsReplayedOnRestart) {
  // A dead server's journal: submission 7, acknowledged but never run.
  const std::string journal_path = Journal::derive_path(dir_.path + "/c.csv");
  {
    Journal j(journal_path);
    j.record_submission(7, R"({"archs":"C1","benchmarks":"bfs","scale":"0.05"})");
  }

  StartServer(ServerOptions{});  // replays before accepting connections
  // Drain: the replayed submission finishes and retires its record.
  for (int i = 0; i < 600 && server_->stats().journal_pending > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const ServerStats s = server_->stats();
  EXPECT_EQ(s.replayed, 1u);
  EXPECT_EQ(s.journal_pending, 0u);
  EXPECT_EQ(s.tasks_simulated, 1u);

  // The replayed row is served; new ids never collide with journaled ones.
  const JsonValue row = connect().request(verb_request("result", 7));
  EXPECT_EQ(row.at("rows").size(), 1u);
  const JsonValue fresh = connect().request(submit_request("C1", "bfs"));
  EXPECT_GE(fresh.at("id").as_int(), 8);
  EXPECT_EQ(fresh.at("hits").as_int(), 1);  // pure store hit from the replay
}

TEST_F(RobustServeTest, JournaledSubmissionWithARemovedKnobIsRetired) {
  // A journal written by an older build that still had the hotpath= knob.
  // Replay fails knob validation, so the record must be retired instead of
  // replayed on every restart, and the server must keep serving.
  const std::string journal_path = Journal::derive_path(dir_.path + "/c.csv");
  {
    Journal j(journal_path);
    j.record_submission(
        7, R"({"archs":"C1","benchmarks":"bfs","scale":"0.05","hotpath":2})");
  }

  StartServer(ServerOptions{});  // replays before accepting connections
  const ServerStats s = server_->stats();
  EXPECT_EQ(s.replayed, 0u);
  EXPECT_EQ(s.journal_pending, 0u);
  EXPECT_EQ(s.tasks_simulated, 0u);

  const JsonValue fresh = connect().request(submit_request("C1", "bfs"));
  EXPECT_TRUE(fresh.at("ok").as_bool());
  EXPECT_GE(fresh.at("id").as_int(), 8);  // the retired id is not reused
  connect().stream(verb_request("watch", fresh.at("id").as_int()),
                   [](const std::string&, const JsonValue&) {});
  EXPECT_EQ(server_->stats().tasks_simulated, 1u);
}

TEST_F(RobustServeTest, CompletedSubmissionRetiresItsJournalRecord) {
  StartServer(ServerOptions{});
  const JsonValue resp = connect().request(submit_request("C1", "bfs"));
  connect().stream(verb_request("watch", resp.at("id").as_int()),
                   [](const std::string&, const JsonValue&) {});
  // sub + done both recorded; nothing left pending.
  const ServerStats s = server_->stats();
  EXPECT_EQ(s.journal_pending, 0u);
  EXPECT_GE(s.journal_records, 2u);
}

}  // namespace
}  // namespace sttgpu::serve
