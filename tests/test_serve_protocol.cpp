#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include <sys/socket.h>
#include <unistd.h>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "sim/knobs.hpp"

namespace sttgpu::serve {
namespace {

/// A connected unix socket pair; [0] and [1] are the two ends.
struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~SocketPair() {
    if (fd[0] >= 0) ::close(fd[0]);
    if (fd[1] >= 0) ::close(fd[1]);
  }
  void close_writer() {
    ::close(fd[0]);
    fd[0] = -1;
  }
};

TEST(Framing, RoundTripsPayloads) {
  SocketPair s;
  write_frame(s.fd[0], R"({"verb":"status"})");
  write_frame(s.fd[0], "");  // empty payload is a valid frame
  EXPECT_EQ(read_frame(s.fd[1]).value(), R"({"verb":"status"})");
  EXPECT_EQ(read_frame(s.fd[1]).value(), "");
}

TEST(Framing, CleanEofAtBoundaryIsNullopt) {
  SocketPair s;
  write_frame(s.fd[0], "x");
  s.close_writer();
  EXPECT_EQ(read_frame(s.fd[1]).value(), "x");
  EXPECT_FALSE(read_frame(s.fd[1]).has_value());
}

TEST(Framing, RejectsBadMagic) {
  SocketPair s;
  // An HTTP request must not parse as a frame.
  const char junk[] = "GET / HTTP/1.1\r\n";
  write_all(s.fd[0], junk, sizeof junk - 1);
  EXPECT_THROW(read_frame(s.fd[1]), SimError);
}

TEST(Framing, RejectsOversizedLength) {
  SocketPair s;
  char header[8];
  std::memcpy(header, kFrameMagic, 4);
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(header + 4, &huge, 4);
  write_all(s.fd[0], header, sizeof header);
  EXPECT_THROW(read_frame(s.fd[1]), SimError);
}

TEST(Framing, RejectsTornFrame) {
  SocketPair s;
  char header[8];
  std::memcpy(header, kFrameMagic, 4);
  const std::uint32_t len = 10;
  std::memcpy(header + 4, &len, 4);
  write_all(s.fd[0], header, sizeof header);
  write_all(s.fd[0], "abc", 3);  // 3 of the promised 10 bytes
  s.close_writer();
  EXPECT_THROW(read_frame(s.fd[1]), SimError);
}

TEST(Envelope, RequireVersionAcceptsCurrentOnly) {
  require_version(parse_json(R"({"protocol_version":1,"verb":"status"})"));
  EXPECT_THROW(require_version(parse_json(R"({"verb":"status"})")), ProtocolMismatch);
  EXPECT_THROW(require_version(parse_json(R"({"protocol_version":99})")),
               ProtocolMismatch);
}

TEST(Envelope, CheckResponseMapsErrorKinds) {
  check_response(parse_json(R"({"protocol_version":1,"ok":true})"));
  // A generic server error surfaces as SimError with the server's message.
  try {
    check_response(parse_json(error_response("boom")));
    FAIL() << "expected SimError";
  } catch (const ProtocolMismatch&) {
    FAIL() << "generic errors must not map to ProtocolMismatch";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  // kind=="protocol" maps to ProtocolMismatch (CLI exit code 7).
  EXPECT_THROW(check_response(parse_json(error_response("bad version", true))),
               ProtocolMismatch);
}

// --- the RunOptions <-> JSON satellite (sim/knobs.hpp) ----------------------

TEST(OptionsJson, ConfigFromJsonPreservesRawNumberText) {
  const JsonValue obj =
      parse_json(R"({"scale":0.05,"faults":true,"ecc":false,"arch":"C1"})");
  const Config cfg = sim::config_from_json(obj);
  // The number's source text survives verbatim — the server-side strtod
  // sees exactly what the CLI would have seen on argv.
  EXPECT_EQ(cfg.get_string("scale", ""), "0.05");
  EXPECT_EQ(cfg.get_string("faults", ""), "1");
  EXPECT_EQ(cfg.get_string("ecc", ""), "0");
  EXPECT_EQ(cfg.get_string("arch", ""), "C1");
}

TEST(OptionsJson, RejectsNonScalarKnobValues) {
  EXPECT_THROW(sim::config_from_json(parse_json(R"({"scale":[1,2]})")), SimError);
  EXPECT_THROW(sim::config_from_json(parse_json(R"({"scale":null})")), SimError);
  EXPECT_THROW(sim::config_from_json(parse_json(R"([1])")), SimError);
}

TEST(OptionsJson, RunOptionsRoundTripIsExact) {
  sim::RunOptions opts;
  opts.scale = 0.05;
  opts.fast_forward = false;
  opts.faults.enabled = true;
  opts.faults.seed = 7;
  opts.faults.accel = 2.5;
  opts.faults.ecc = false;

  std::ostringstream os;
  JsonWriter w(os);
  sim::run_options_to_json(w, opts);
  const Config cfg = sim::config_from_json(parse_json(os.str()));
  sim::validate_knobs(cfg, sim::kKnobSubmit, "submit");
  const sim::RunOptions back = sim::run_options_from_knobs(cfg, sim::kKnobSubmit);

  EXPECT_EQ(back.scale, opts.scale);
  EXPECT_EQ(back.fast_forward, opts.fast_forward);
  EXPECT_EQ(back.faults.enabled, opts.faults.enabled);
  EXPECT_EQ(back.faults.seed, opts.faults.seed);
  EXPECT_EQ(back.faults.accel, opts.faults.accel);
  EXPECT_EQ(back.faults.ecc, opts.faults.ecc);
}

TEST(OptionsJson, UnknownKnobRejectedWithValidList) {
  Config cfg;
  cfg.set("scail", "0.5");  // typo
  try {
    sim::validate_knobs(cfg, sim::kKnobSubmit, "submit");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("scail"), std::string::npos);
    // The error teaches the valid spelling.
    EXPECT_NE(msg.find("scale"), std::string::npos);
  }
}

TEST(OptionsJson, WireDefaultsMatchCliDefaults) {
  // An empty submit options object resolves to exactly what the CLI
  // resolves from an empty argv — the registry is the single source.
  const Config empty;
  const sim::RunOptions opts = sim::run_options_from_knobs(empty, sim::kKnobSubmit);
  EXPECT_EQ(opts.scale, 0.5);
  EXPECT_TRUE(opts.fast_forward);
  EXPECT_FALSE(opts.faults.enabled);
  EXPECT_EQ(opts.faults.seed, 42u);
  EXPECT_EQ(opts.faults.accel, 1.0);
  EXPECT_TRUE(opts.faults.ecc);
}

}  // namespace
}  // namespace sttgpu::serve
