// Query-service throughput/latency bench: an in-process QueryService on
// a loopback port, hammered by concurrent HTTP clients running the same
// PdScript workload. Reports per-request latency at client counts 1..C
// (the shared-pool multiplexing cost), warm-vs-cold cache effect, and
// admission-rejection behavior when offered load exceeds max_sessions,
// one printed line per scenario.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/timer.h"
#include "serve/server.h"

namespace lafp::bench {
namespace {

constexpr int kRows = 20000;

std::string WriteDataset(const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::string path = dir + "/serve_bench_" + std::to_string(kRows) + ".csv";
  if (std::filesystem::exists(path)) return path;
  std::ofstream out(path);
  out << "fare,day,passengers\n";
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < kRows; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    out << static_cast<int>((state >> 33) % 100) << ","
        << static_cast<int>((state >> 17) % 7) << ","
        << static_cast<int>((state >> 7) % 6) + 1 << "\n";
  }
  return path;
}

std::string Program(const std::string& csv_path) {
  return "import lazyfatpandas.pandas as pd\n"
         "df = pd.read_csv(\"" + csv_path + "\")\n"
         "df = df[df.fare > 10]\n"
         "g = df.groupby([\"day\"])[\"passengers\"].sum()\n"
         "print(g)\n";
}

/// One blocking request; returns the HTTP status (-1 on socket failure).
int Request(int port, const std::string& body) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  std::string req = "POST /run HTTP/1.1\r\nHost: localhost\r\n";
  req += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  req += body;
  size_t sent = 0;
  while (sent < req.size()) {
    ssize_t r = ::send(fd, req.data() + sent, req.size() - sent,
                       MSG_NOSIGNAL);
    if (r <= 0) break;
    sent += static_cast<size_t>(r);
  }
  std::string head;
  char buf[4096];
  while (true) {
    ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) break;
    head.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  if (head.size() < 12) return -1;
  return std::atoi(head.substr(9, 3).c_str());
}

struct LoadResult {
  int clients = 0;
  int requests = 0;
  int ok = 0;
  int rejected = 0;
  int failed = 0;
  double seconds = 0.0;
  double requests_per_second() const {
    return seconds > 0 ? ok / seconds : 0.0;
  }
  double avg_latency_ms() const {
    return ok > 0 ? seconds * 1000.0 * clients / ok : 0.0;
  }
};

/// `clients` threads each issue `per_client` sequential requests.
LoadResult RunLoad(int port, const std::string& body, int clients,
                   int per_client) {
  LoadResult result;
  result.clients = clients;
  result.requests = clients * per_client;
  std::atomic<int> ok{0}, rejected{0}, failed{0};
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (int i = 0; i < per_client; ++i) {
        int status = Request(port, body);
        if (status == 200) {
          ok.fetch_add(1);
        } else if (status == 429) {
          rejected.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  result.seconds = timer.ElapsedSeconds();
  result.ok = ok.load();
  result.rejected = rejected.load();
  result.failed = failed.load();
  return result;
}

void PrintRecord(const char* scenario, const LoadResult& r) {
  std::printf("  %-24s clients=%d ok=%d rejected=%d failed=%d "
              "rps=%.1f avg=%.2f ms\n",
              scenario, r.clients, r.ok, r.rejected, r.failed,
              r.requests_per_second(), r.avg_latency_ms());
}

int Main() {
  const bool quick = std::getenv("LAFP_BENCH_QUICK") != nullptr;
  const int per_client = quick ? 4 : 16;
  std::string csv_path = WriteDataset(BenchScratchDir());
  std::string body = Program(csv_path);

  serve::ServeOptions options;
  options.port = 0;
  options.worker_threads = 16;
  options.max_sessions = 8;
  options.session_threads = 2;
  serve::QueryService service(options);
  Status started = service.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "bench_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("bench_serve: %d rows, %d requests/client, max_sessions=%d\n",
              kRows, per_client, options.max_sessions);

  bool correct = true;

  // Cold single client first (fills the shared result cache), then the
  // same serial load warm: the delta is the cross-request cache win.
  LoadResult cold = RunLoad(service.port(), body, 1, per_client);
  PrintRecord("serial_cold", cold);
  LoadResult warm = RunLoad(service.port(), body, 1, per_client);
  PrintRecord("serial_warm", warm);
  correct = correct && cold.failed == 0 && warm.failed == 0;

  // Concurrency within admission capacity: every request must succeed.
  for (int clients : {2, 4, 8}) {
    LoadResult r = RunLoad(service.port(), body, clients, per_client);
    PrintRecord("concurrent", r);
    correct = correct && r.failed == 0 && r.rejected == 0;
  }

  // Offered load over max_sessions: overflow is rejected with 429, never
  // an error; admitted requests still all succeed.
  LoadResult over = RunLoad(service.port(), body, 16, per_client);
  PrintRecord("over_admission", over);
  correct = correct && over.failed == 0 && over.ok > 0;

  service.Stop();
  std::printf("(failed=0 everywhere gates the exit code; rejected>0 "
              "expected only over capacity)\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lafp::bench

int main() { return lafp::bench::Main(); }
