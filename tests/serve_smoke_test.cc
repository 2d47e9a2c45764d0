// End-to-end smoke for the lafp_serve query service: concurrent requests
// against real sockets, admission control over capacity, cancellation on
// client disconnect, clean error statuses, and a well-formed /metrics
// scrape. The ServeOptions::run_started_hook test seam holds admitted
// requests in flight deterministically, so "N requests occupying slots"
// is a controlled state, not a race.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "serve/http.h"
#include "serve/server.h"

namespace lafp::serve {
namespace {

constexpr const char* kCsvBody = "a,b\n1,2\n3,4\n5,6\n";

/// Minimal blocking HTTP client for the loopback service.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() { Close(); }

  bool connected() const { return connected_; }

  void Send(const std::string& method, const std::string& target,
            const std::string& body) {
    std::string req = method + " " + target + " HTTP/1.1\r\n";
    req += "Host: localhost\r\n";
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    req += body;
    SendRaw(req);
  }

  void SendRaw(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t r = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (r <= 0) return;
      sent += static_cast<size_t>(r);
    }
  }

  /// Read until the server closes; returns the raw response.
  std::string ReadAll() {
    std::string out;
    char buf[4096];
    while (true) {
      ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r == 0) eof_ = true;
      if (r <= 0) break;
      out.append(buf, static_cast<size_t>(r));
    }
    return out;
  }

  /// Bounds each read, so a connection the server never closes ends
  /// ReadAll without eof().
  void set_receive_timeout(int seconds) {
    timeval tv{seconds, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  bool eof() const { return eof_; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  bool eof_ = false;
};

int StatusOf(const std::string& response) {
  // "HTTP/1.1 NNN ..."
  if (response.size() < 12) return -1;
  return std::atoi(response.substr(9, 3).c_str());
}

std::string BodyOf(const std::string& response) {
  auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

std::string RoundTrip(int port, const std::string& method,
                      const std::string& target, const std::string& body) {
  Client client(port);
  EXPECT_TRUE(client.connected());
  client.Send(method, target, body);
  return client.ReadAll();
}

class ServeSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "serve_smoke_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    csv_path_ = dir_ + "/t.csv";
    std::ofstream out(csv_path_);
    out << kCsvBody;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Program() const {
    return "import lazyfatpandas.pandas as pd\n"
           "df = pd.read_csv(\"" + csv_path_ + "\")\n"
           "print(len(df))\n";
  }

  /// Spin until `cond` or ~5 s.
  template <typename Cond>
  bool WaitFor(Cond cond) {
    for (int i = 0; i < 250; ++i) {
      if (cond()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return cond();
  }

  std::string dir_, csv_path_;
};

TEST_F(ServeSmokeTest, HealthzAndUnknownPathsAnswerCleanly) {
  ServeOptions options;
  options.port = 0;
  QueryService service(options);
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(StatusOf(RoundTrip(service.port(), "GET", "/healthz", "")), 200);
  EXPECT_EQ(StatusOf(RoundTrip(service.port(), "GET", "/nope", "")), 404);
  EXPECT_EQ(StatusOf(RoundTrip(service.port(), "GET", "/run", "")), 405);
  service.Stop();
}

TEST_F(ServeSmokeTest, ConcurrentRunsReturnCorrectOutputs) {
  ServeOptions options;
  options.port = 0;
  options.max_sessions = 8;
  QueryService service(options);
  ASSERT_TRUE(service.Start().ok());
  constexpr int kRequests = 8;
  std::vector<std::string> responses(kRequests);
  std::vector<std::thread> threads;
  for (int i = 0; i < kRequests; ++i) {
    threads.emplace_back([&, i] {
      // Mix modes and backends across the concurrent batch.
      std::string target = "/run";
      if (i % 3 == 1) target += "?mode=eager";
      if (i % 3 == 2) target += "?backend=modin";
      responses[i] =
          RoundTrip(service.port(), "POST", target, Program());
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(StatusOf(responses[i]), 200) << responses[i];
    EXPECT_EQ(BodyOf(responses[i]), "3\n") << responses[i];
  }
  service.Stop();
}

TEST_F(ServeSmokeTest, OverAdmissionGetsCleanTooManyRequests) {
  std::atomic<bool> release{false};
  ServeOptions options;
  options.port = 0;
  options.max_sessions = 1;
  // Hold admitted requests until the test releases them.
  options.run_started_hook = [&](CancellationToken*) {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  QueryService service(options);
  ASSERT_TRUE(service.Start().ok());

  // Occupy the single admission slot.
  Client blocked(service.port());
  ASSERT_TRUE(blocked.connected());
  blocked.Send("POST", "/run", Program());
  ASSERT_TRUE(WaitFor([&] { return service.in_flight() == 1; }));

  // The slot is held: the next /run is rejected immediately with a clean
  // 429 — it never queues behind the running query.
  std::string rejected =
      RoundTrip(service.port(), "POST", "/run", Program());
  EXPECT_EQ(StatusOf(rejected), 429) << rejected;

  // Control endpoints are not subject to /run admission.
  EXPECT_EQ(StatusOf(RoundTrip(service.port(), "GET", "/healthz", "")), 200);

  // Release the held query; it completes normally.
  release.store(true, std::memory_order_release);
  std::string response = blocked.ReadAll();
  EXPECT_EQ(StatusOf(response), 200) << response;
  EXPECT_EQ(BodyOf(response), "3\n");
  ASSERT_TRUE(WaitFor([&] { return service.in_flight() == 0; }));

  // The freed slot admits again.
  std::string after = RoundTrip(service.port(), "POST", "/run", Program());
  EXPECT_EQ(StatusOf(after), 200) << after;
  service.Stop();
}

TEST_F(ServeSmokeTest, DisconnectCancelsInFlightQuery) {
  std::atomic<bool> release{false};
  ServeOptions options;
  options.port = 0;
  options.max_sessions = 1;
  // Hold the request until the disconnect monitor trips its token (the
  // release flag is a hang safeguard only).
  options.run_started_hook = [&](CancellationToken* token) {
    while (!token->cancelled() &&
           !release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  QueryService service(options);
  ASSERT_TRUE(service.Start().ok());

  {
    Client doomed(service.port());
    ASSERT_TRUE(doomed.connected());
    doomed.Send("POST", "/run", Program());
    ASSERT_TRUE(WaitFor([&] { return service.in_flight() == 1; }));
    doomed.Close();  // client walks away mid-query
  }
  // The monitor notices the dead socket and trips the session's token;
  // the scheduler then abandons the round at its first node boundary and
  // the admission slot frees.
  ASSERT_TRUE(WaitFor([&] { return service.in_flight() == 0; }));
  release.store(true, std::memory_order_release);

  std::string metrics =
      BodyOf(RoundTrip(service.port(), "GET", "/metrics", ""));
  EXPECT_NE(metrics.find("serve.cancelled"), std::string::npos) << metrics;
  service.Stop();
}

TEST_F(ServeSmokeTest, ErrorsMapToCleanStatuses) {
  ServeOptions options;
  options.port = 0;
  // Tiny process budget: a real query OOMs cleanly via the tracker chain.
  options.memory_budget_bytes = 1;
  QueryService service(options);
  ASSERT_TRUE(service.Start().ok());

  // Parse error -> 400.
  std::string bad = RoundTrip(service.port(), "POST", "/run",
                              "this is not pdscript (");
  EXPECT_EQ(StatusOf(bad), 400) << bad;
  // Unknown knobs -> 400.
  EXPECT_EQ(StatusOf(RoundTrip(service.port(), "POST", "/run?backend=spark",
                               Program())),
            400);
  EXPECT_EQ(StatusOf(RoundTrip(service.port(), "POST", "/run?mode=warp",
                               Program())),
            400);
  // Budget denial -> 507, not a dropped connection.
  std::string oom = RoundTrip(service.port(), "POST", "/run", Program());
  EXPECT_EQ(StatusOf(oom), 507) << oom;
  // Malformed HTTP framing -> 400.
  {
    Client raw(service.port());
    ASSERT_TRUE(raw.connected());
    raw.SendRaw("not an http request line\r\n\r\n");
    EXPECT_EQ(StatusOf(raw.ReadAll()), 400);
  }
  service.Stop();
}

TEST_F(ServeSmokeTest, MetricsScrapeIsWellFormed) {
  ServeOptions options;
  options.port = 0;
  QueryService service(options);
  ASSERT_TRUE(service.Start().ok());
  // Generate some traffic first.
  EXPECT_EQ(
      StatusOf(RoundTrip(service.port(), "POST", "/run", Program())), 200);
  std::string response = RoundTrip(service.port(), "GET", "/metrics", "");
  EXPECT_EQ(StatusOf(response), 200);
  std::string body = BodyOf(response);
  // Serve-level instruments are present, and every line is "name value".
  EXPECT_NE(body.find("serve.requests"), std::string::npos) << body;
  EXPECT_NE(body.find("serve.in_flight"), std::string::npos) << body;
  EXPECT_NE(body.find("serve.cache.effective_capacity"), std::string::npos)
      << body;
  size_t lines = 0;
  std::istringstream stream(body);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_NE(line.find(' '), std::string::npos) << "bare line: " << line;
  }
  EXPECT_GT(lines, 0u);
  service.Stop();
}

TEST_F(ServeSmokeTest, TraceParameterAppendsReport) {
  ServeOptions options;
  options.port = 0;
  QueryService service(options);
  ASSERT_TRUE(service.Start().ok());
  std::string response =
      RoundTrip(service.port(), "POST", "/run?trace=1", Program());
  EXPECT_EQ(StatusOf(response), 200) << response;
  EXPECT_NE(BodyOf(response).find("--- trace ---"), std::string::npos)
      << response;
  service.Stop();
}

// A traced request switches the process tracer on for its own session
// only: an untraced request after it records no events.
TEST_F(ServeSmokeTest, UntracedRequestAfterTracedOneRecordsNoEvents) {
  trace::Tracer* tracer = trace::Tracer::Global();
  ASSERT_FALSE(tracer->enabled()) << "run without LAFP_TRACE";
  ServeOptions options;
  options.cache_bytes = 0;  // the second request executes in full
  QueryService service(options);
  HttpRequest traced{"POST", "/run", {{"trace", "1"}}, {}, Program()};
  HttpResponse first = service.Dispatch(traced, -1);
  EXPECT_EQ(first.status, 200) << first.body;
  EXPECT_NE(first.body.find("--- trace ---"), std::string::npos)
      << first.body;

  const size_t events = tracer->Snapshot().size();
  HttpRequest plain{"POST", "/run", {}, {}, Program()};
  EXPECT_EQ(service.Dispatch(plain, -1).status, 200);
  EXPECT_EQ(tracer->Snapshot().size(), events);
  EXPECT_FALSE(tracer->enabled());
}

// A traced request's events go once its report is rendered: four of
// them leave the tracer as they found it, where a long-running server
// used to keep every traced request's events for good.
TEST_F(ServeSmokeTest, TracedRequestsLeaveNoEventsBehind) {
  trace::Tracer* tracer = trace::Tracer::Global();
  ASSERT_FALSE(tracer->enabled()) << "run without LAFP_TRACE";
  ServeOptions options;
  options.cache_bytes = 0;  // every request executes in full
  QueryService service(options);
  const size_t before = tracer->Snapshot().size();
  HttpRequest traced{"POST", "/run", {{"trace", "1"}}, {}, Program()};
  for (int i = 1; i <= 4; ++i) {
    HttpResponse response = service.Dispatch(traced, -1);
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_NE(response.body.find("--- trace ---"), std::string::npos)
        << response.body;
    EXPECT_EQ(tracer->Snapshot().size(), before) << "after request " << i;
  }
}

// A Shard request over a real socket ends with its connection closed:
// the workers its session forked, pooled after it, keep no copy of the
// client's socket, so the client reads the response and then EOF.
TEST_F(ServeSmokeTest, ShardRequestClosesItsConnection) {
  ServeOptions options;
  options.port = 0;
  QueryService service(options);
  ASSERT_TRUE(service.Start().ok());
  for (int i = 0; i < 2; ++i) {
    Client client(service.port());
    ASSERT_TRUE(client.connected());
    client.set_receive_timeout(10);
    client.Send("POST", "/run?backend=shard", Program());
    const std::string response = client.ReadAll();
    EXPECT_EQ(StatusOf(response), 200) << response;
    EXPECT_TRUE(client.eof()) << "request " << i;
  }
  service.Stop();
}

// The request reader must be segmentation-independent: a request split
// into arbitrary write bursts (slow client, small MTU) parses exactly
// like the same bytes in one burst. The old reader 400ed when the body's
// trailing bytes or a leading keep-alive CRLF landed in the header recv.
TEST_F(ServeSmokeTest, SplitWritesParseIdentically) {
  ServeOptions options;
  options.port = 0;
  QueryService service(options);
  ASSERT_TRUE(service.Start().ok());
  const std::string body = Program();
  std::string req = "POST /run HTTP/1.1\r\nHost: localhost\r\n";
  req += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  req += body;
  // Dribble the request a few bytes at a time, pausing so each write
  // lands in its own recv on the server side.
  for (size_t chunk : {1u, 3u, 7u, 16u}) {
    Client client(service.port());
    ASSERT_TRUE(client.connected());
    for (size_t i = 0; i < req.size(); i += chunk) {
      client.SendRaw(req.substr(i, chunk));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::string response = client.ReadAll();
    EXPECT_EQ(StatusOf(response), 200)
        << "chunk=" << chunk << ": " << response;
  }
  service.Stop();
}

TEST_F(ServeSmokeTest, LeadingAndTrailingCrlfTolerated) {
  ServeOptions options;
  options.port = 0;
  QueryService service(options);
  ASSERT_TRUE(service.Start().ok());
  const std::string body = Program();
  std::string req = "POST /run HTTP/1.1\r\nHost: localhost\r\n";
  req += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  req += body;
  {
    // RFC 9112 §2.2: CRLFs before the request line are ignored.
    Client client(service.port());
    ASSERT_TRUE(client.connected());
    client.SendRaw("\r\n\r\n" + req);
    EXPECT_EQ(StatusOf(client.ReadAll()), 200);
  }
  {
    // A sloppy client's CRLF after the body is outside the message and
    // must not poison it — even when it arrives in the same burst.
    Client client(service.port());
    ASSERT_TRUE(client.connected());
    client.SendRaw(req + "\r\n");
    EXPECT_EQ(StatusOf(client.ReadAll()), 200);
  }
  service.Stop();
}

TEST_F(ServeSmokeTest, TargetParsingDecodesQueries) {
  std::string path;
  std::map<std::string, std::string> params;
  ParseTarget("/run?mode=lazy&trace=1&q=a%20b+c", &path, &params);
  EXPECT_EQ(path, "/run");
  EXPECT_EQ(params["mode"], "lazy");
  EXPECT_EQ(params["trace"], "1");
  EXPECT_EQ(params["q"], "a b c");
  ParseTarget("/metrics", &path, &params);
  EXPECT_EQ(path, "/metrics");
  EXPECT_TRUE(params.empty());
}

}  // namespace
}  // namespace lafp::serve
