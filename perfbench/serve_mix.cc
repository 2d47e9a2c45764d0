// serve_mix: serve::QueryService on a loopback port under an open-loop
// request mix. One generator thread schedules POST /run requests at a
// fixed rate over at most Threads() connections; each request is timed
// from its scheduled send, so a stalled server also delays the requests
// queued behind it. A seeded mix repeats a hot set of queries (result
// cache hits) beside fresh parameterisations (misses, which also
// insert). Every response body is checked against an in-process
// QueryService::Dispatch of the same body on a cache-less service.
// The rest of the run times the hot queries in-process on every engine
// configuration: small inputs, so per-query fixed costs dominate.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "perfbench/bench.h"
#include "serve/server.h"

namespace lafp::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// The traffic shape below (rate, hot share, hot-set size, the three
// query templates, table scale) is an assumption, not taken from a
// measured deployment: it puts both cache hits and misses (with their
// inserts) on the request path at a load the service absorbs.

/// Input scale of the served tables: a few thousand rows each.
constexpr double kServeScale = 0.05;
/// Requests per second. Leaves the service mostly idle on a 4-CPU
/// machine, so latency reflects per-request cost, not a backlog.
constexpr double kRate = 300.0;
/// Share of the run spent in the HTTP window; the rest times the hot
/// queries on each configuration.
constexpr double kHttpShare = 0.6;
constexpr int kHotQueries = 8;
constexpr double kHotShare = 0.7;
constexpr int kSetups = 3;

/// A query template instance: (template, threshold).
using QueryKey = std::pair<int, int>;

std::string QueryBody(const QueryKey& key,
                      const std::map<std::string, std::string>& paths) {
  char filter[64];
  std::string body = "import lazyfatpandas.pandas as pd\n";
  switch (key.first) {
    case 0:
      body += "df = pd.read_csv(\"" + paths.at("sales") + "\")\n";
      std::snprintf(filter, sizeof(filter), "df[df.amount > %d]", key.second);
      body += std::string("big = ") + filter + "\n";
      body += "g = big.groupby([\"region\"])[\"amount\"].sum()\n";
      break;
    case 1:
      body += "r = pd.read_csv(\"" + paths.at("ratings") + "\")\n";
      body += "m = pd.read_csv(\"" + paths.at("movies") + "\")\n";
      std::snprintf(filter, sizeof(filter), "r[r.rating >= %.3f]",
                    key.second / 1000.0);
      body += std::string("good = ") + filter + "\n";
      body += "j = good.merge(m, on=[\"movieId\"], how=\"inner\")\n";
      body += "g = j.groupby([\"genre\"])[\"rating\"].mean()\n";
      break;
    default:
      body += "df = pd.read_csv(\"" + paths.at("sales") + "\")\n";
      std::snprintf(filter, sizeof(filter), "df[df.discount < %.4f]",
                    key.second / 10000.0);
      body += std::string("low = ") + filter + "\n";
      body += "g = low.groupby([\"rep\"])[\"amount\"].mean()\n";
      break;
  }
  body += "print(g)\nchecksum(g)\n";
  return body;
}

/// A (template, threshold) pair not drawn before. Fresh queries draw the
/// template and a threshold over each column's whole range. The hot set
/// takes the templates in turn and thresholds near mid-range, so its cost
/// (and its memory peak) hardly depends on the seed.
QueryKey DrawQuery(std::mt19937_64* rng, std::set<QueryKey>* used,
                   int hot_index = -1) {
  static constexpr int kLo[] = {1000, 500, 100};
  static constexpr int kHi[] = {89000, 4500, 3000};
  while (true) {
    const int kind = hot_index >= 0 ? hot_index % 3
                                    : static_cast<int>((*rng)() % 3);
    int lo = kLo[kind], hi = kHi[kind];
    if (hot_index >= 0) {
      const int mid = (lo + hi) / 2, band = (hi - lo) / 20;
      lo = mid - band;
      hi = mid + band;
    }
    const int t = lo + static_cast<int>((*rng)() % (hi - lo));
    if (used->insert({kind, t}).second) return {kind, t};
  }
}

struct Response {
  int status = -1;  // -1: connection failed
  std::string body;
  double latency_ms = 0.0;
};

/// One request over a fresh connection (the service closes each one).
Response Exchange(int port, const std::string& request) {
  Response response;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return response;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return response;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t r = ::send(fd, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (r <= 0) break;
    sent += static_cast<size_t>(r);
  }
  std::string raw;
  char buf[8192];
  while (true) {
    ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) break;
    raw.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  const size_t body_at = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || body_at == std::string::npos) {
    return response;
  }
  response.status = std::atoi(raw.c_str() + 9);
  response.body = raw.substr(body_at + 4);
  return response;
}

std::string PostRun(const std::string& body) {
  return "POST /run HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Sends request i at start + i / kRate from this (the generator) thread;
/// `connections` client threads carry them. Returns responses by index.
std::vector<Response> RunOpenLoop(int port,
                                  const std::vector<std::string>& bodies,
                                  int connections, double* max_lag_ms) {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, Clock::time_point>> queue;  // guarded by mu
  bool done = false;                                       // guarded by mu
  std::vector<Response> responses(bodies.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&] {
      while (true) {
        std::pair<size_t, Clock::time_point> item;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) return;
          item = queue.front();
          queue.pop_front();
        }
        Response response = Exchange(port, PostRun(bodies[item.first]));
        response.latency_ms = Millis(Clock::now() - item.second);
        responses[item.first] = std::move(response);
      }
    });
  }
  const Clock::time_point start = Clock::now();
  *max_lag_ms = 0.0;
  for (size_t i = 0; i < bodies.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(i / kRate));
    std::this_thread::sleep_until(due);
    *max_lag_ms = std::max(*max_lag_ms, Millis(Clock::now() - due));
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.emplace_back(i, due);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  for (auto& client : clients) client.join();
  return responses;
}

/// The median, over consecutive windows of requests, of the q-th latency
/// percentile within each window: a burst of outside interference moves
/// one window, not the reported value.
double WindowedPercentile(const std::vector<double>& latency_ms, double q) {
  constexpr size_t kWindow = 1000;  // a p99 keeps 10 samples beyond it
  std::vector<double> per_window;
  for (size_t begin = 0; begin < latency_ms.size(); begin += kWindow) {
    const size_t end = std::min(latency_ms.size(), begin + kWindow);
    if (end - begin < kWindow && !per_window.empty()) break;  // short tail
    per_window.push_back(Percentile(
        {latency_ms.begin() + begin, latency_ms.begin() + end}, q));
  }
  return Median(per_window);
}

serve::ServeOptions ServiceOptions() {
  serve::ServeOptions options;
  options.port = 0;
  options.worker_threads = Threads();
  options.max_sessions = Threads();
  options.session_threads = Threads();
  return options;
}

struct Served {
  std::map<std::string, std::string> paths;
  std::vector<QueryKey> hot;
  std::unique_ptr<serve::QueryService> service;
};

/// One set-up: generate the tables, start the service, and send each hot
/// query once so the measured window starts from a warm cache.
Result<Served> SetUp(const Options& options, const std::string& dir,
                     std::mt19937_64* rng, std::set<QueryKey>* used) {
  Served served;
  LAFP_ASSIGN_OR_RETURN(
      served.paths,
      GenerateInputs({"movies", "ratings", "sales"},
                     options.smoke ? kServeScale / 4 : kServeScale,
                     options.seed, dir));
  for (int i = 0; i < kHotQueries; ++i) {
    served.hot.push_back(DrawQuery(rng, used, i));
  }
  served.service = std::make_unique<serve::QueryService>(ServiceOptions());
  LAFP_RETURN_NOT_OK(served.service->Start());
  for (const QueryKey& key : served.hot) {
    Response r = Exchange(served.service->port(),
                          PostRun(QueryBody(key, served.paths)));
    if (r.status != 200) {
      return Status::ExecutionError("warm-up request failed with status " +
                                    std::to_string(r.status) + ": " + r.body);
    }
  }
  return served;
}

}  // namespace

Status RunServeMix(const Options& options, Report* report) {
  std::vector<double> setup_s;
  Served served;
  std::set<QueryKey> used;
  for (int i = 0; i < kSetups; ++i) {
    // Every set-up draws the same hot set.
    std::mt19937_64 rng(options.seed);
    used.clear();
    const std::string dir = options.work_dir + "/setup" + std::to_string(i);
    served.service.reset();
    // Flush earlier writes, so disk writeback lands neither in a timed
    // set-up nor in the measured window.
    ::sync();
    Timer timer;
    LAFP_ASSIGN_OR_RETURN(served, SetUp(options, dir, &rng, &used));
    setup_s.push_back(timer.ElapsedSeconds());
  }
  ::sync();

  // The request schedule: hot queries beside fresh ones, all from the seed.
  std::mt19937_64 rng(options.seed ^ 0x5e17e5e17ull);
  const double http_seconds = options.seconds * kHttpShare;
  const size_t requests = std::max<size_t>(1, static_cast<size_t>(http_seconds * kRate));
  std::vector<std::string> bodies;
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (size_t i = 0; i < requests; ++i) {
    const QueryKey key = coin(rng) < kHotShare
                             ? served.hot[rng() % served.hot.size()]
                             : DrawQuery(&rng, &used);
    bodies.push_back(QueryBody(key, served.paths));
  }

  metrics::Registry* registry = metrics::Registry::Global();
  const auto before = registry->Scrape();
  double gen_lag_ms = 0.0;
  const std::vector<Response> responses = RunOpenLoop(
      served.service->port(), bodies, Threads(), &gen_lag_ms);
  auto after = registry->Scrape();
  std::vector<double> healthz_ms;
  if (options.trace) {
    for (int i = 0; i < 20; ++i) {
      Timer timer;
      Response r = Exchange(served.service->port(),
                            "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n");
      healthz_ms.push_back(timer.ElapsedSeconds() * 1000.0);
      if (r.status != 200) report->Fail("healthz: status " + std::to_string(r.status));
    }
  }
  served.service->Stop();

  // Output check against a cache-less in-process service.
  std::vector<double> latency_ms, dispatch_ms;
  {
    serve::ServeOptions reference_options = ServiceOptions();
    reference_options.cache_bytes = 0;
    serve::QueryService reference(reference_options);
    std::map<std::string, std::string> expected;
    for (size_t i = 0; i < responses.size(); ++i) {
      const Response& r = responses[i];
      ++report->attempted;
      latency_ms.push_back(r.latency_ms);
      auto it = expected.find(bodies[i]);
      if (it == expected.end()) {
        serve::HttpRequest request;
        request.method = "POST";
        request.path = "/run";
        request.body = bodies[i];
        Timer timer;
        serve::HttpResponse want = reference.Dispatch(request, -1);
        dispatch_ms.push_back(timer.ElapsedSeconds() * 1000.0);
        it = expected.emplace(bodies[i], want.status == 200 ? want.body : "")
                 .first;
      }
      if (r.status == 429) {
        report->Fail("request " + std::to_string(i) + " refused (429)");
      } else if (r.status != 200) {
        report->Fail("request " + std::to_string(i) + ": status " +
                     std::to_string(r.status) + ": " + r.body);
      } else if (it->second.empty() || r.body != it->second) {
        report->Fail("request " + std::to_string(i) +
                     ": body differs from in-process Dispatch");
      }
    }
  }

  // The hot queries, in-process on every configuration.
  const std::string metastore_dir = options.work_dir + "/metastore";
  std::vector<Job> jobs;
  std::map<std::string, std::string> reference;
  for (size_t i = 0; i < served.hot.size(); ++i) {
    Job job{"q" + std::to_string(i), QueryBody(served.hot[i], served.paths)};
    LAFP_ASSIGN_OR_RETURN(reference[job.name],
                          ReferenceChecksums(job, metastore_dir));
    jobs.push_back(std::move(job));
  }
  RoundRunner rounds(jobs, std::move(reference), metastore_dir,
                     options.corrupt_reference, report);
  rounds.RunFor(options.seconds - http_seconds, options.trace);

  report->Set("req_p50_ms", WindowedPercentile(latency_ms, 0.50));
  report->Set("req_p99_ms", WindowedPercentile(latency_ms, 0.99));
  if (!options.trace) {
    report->Set("setup_s", Median(setup_s));
    rounds.ReportConfigTimes(report);
    return Status::OK();
  }

  std::vector<std::string> read_paths;
  for (const auto& [name, path] : served.paths) read_paths.push_back(path);
  ReportInputReads(read_paths, false, report);
  ReportKernelReplays(served.paths.at("ratings"), served.paths.at("movies"),
                      false, report);
  rounds.ReportLayers(report);

  auto delta = [&](const std::string& name) {
    auto a = after.find(name);
    auto b = before.find(name);
    return static_cast<double>((a == after.end() ? 0 : a->second) -
                               (b == before.end() ? 0 : b->second));
  };
  // Per lookup, not per request: a repeated request hits at the top of
  // each printed plan, a fresh one misses at every node from there down
  // to its reads, so the ratio sits far below the share of hot requests.
  const double lookups = delta("cache.hits") + delta("cache.misses");
  report->Set("lazy.cache_hit_ratio",
              lookups > 0 ? delta("cache.hits") / lookups : 0.0);
  report->Set("lazy.cache_hits", delta("cache.hits"));
  report->Set("lazy.cache_inserts", delta("cache.inserts"));
  report->Set("lazy.cache_evictions", delta("cache.evictions"));
  report->Set("serve.rejected", delta("serve.rejected"));
  report->Set("serve.errors", delta("serve.errors"));
  report->Set("serve.dispatch_ms", Median(dispatch_ms));
  report->Set("serve.healthz_ms", Median(healthz_ms));
  report->Set("bench.gen_lag_ms", gen_lag_ms);
  report->Set("bench.requests", static_cast<double>(latency_ms.size()));
  return Status::OK();
}

}  // namespace lafp::perfbench
