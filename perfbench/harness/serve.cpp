// serve_mix: the agingd daemon, driven over its socket protocol in a closed
// loop from one client connection that keeps a fixed window of requests
// outstanding (it sends the next request each time a reply arrives). One
// job = one round of a fixed, seeded mix of requests:
//
//   hit       query on one of a few warm corners (the aged-state cache
//             answers; netlist build + STA + variable-latency replay)
//   miss      query on a fresh arch/years/operand-seed corner (stress
//             extraction, aging overlay and an op trace refill the cache)
//   campaign  a small fault-injection campaign
//
// Set-up = daemon start until it answers `health`.

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>

#include "perfbench/harness/harness.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/json.hpp"
#include "src/serve/protocol.hpp"
#include "src/workload/rng.hpp"

extern char** environ;

namespace perfbench {
namespace {

using agingsim::Rng;
namespace serve = agingsim::serve;

struct Sizes {
  int warm_corners;
  int hits, misses, campaigns;  ///< per round
  int query_ops;                ///< ops per query corner trace
  int campaign_trials, campaign_ops;
  std::size_t window;           ///< requests outstanding on the connection
};

// Three misses a round, so every round refills one corner of each
// architecture and rounds cost the same.
Sizes sizes(bool tiny) {
  if (tiny) return {3, 6, 3, 1, 200, 2, 100, 4};
  return {6, 603, 3, 2, 2000, 2, 400, 24};
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One client connection: framed requests and replies.
class Client {
 public:
  explicit Client(const std::string& path) : fd_(connect_unix(path)) {
    if (fd_ < 0) throw std::runtime_error("cannot connect to " + path);
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool send(const std::string& request) {
    return serve::write_frame_fd(fd_, request);
  }
  std::optional<std::string> receive() { return serve::read_frame_fd(fd_); }
  std::optional<std::string> call(const std::string& request) {
    if (!send(request)) return std::nullopt;
    return receive();
  }

 private:
  int fd_;
};

/// A spawned agingd. The destructor stops it if stop() was not called.
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& socket, int workers,
         const std::string& trace_path)
      : socket_(socket) {
    ::unlink(socket.c_str());
    // A small aged-state cache: the misses fill it within seconds and then
    // evict each other (the warm corners stay hot), so the cache's size,
    // not the run's throughput, bounds the daemon's memory.
    std::vector<std::string> args = {opt.agingd, "--socket", socket,
                                     "--workers", std::to_string(workers),
                                     "--cache-mb", "2", "--quiet"};
    if (!trace_path.empty()) {
      args.push_back("--trace");
      args.push_back(trace_path);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const double t0 = now_s();
    if (posix_spawn(&pid_, opt.agingd.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + opt.agingd);
    }
    // Ready = the daemon answers a health request.
    while (true) {
      const int fd = connect_unix(socket);
      if (fd >= 0) {
        const bool ok =
            serve::write_frame_fd(fd, R"({"id": 0, "method": "health"})") &&
            serve::read_frame_fd(fd).has_value();
        ::close(fd);
        if (ok) break;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("agingd exited during start-up");
      }
      if (now_s() - t0 > 60.0) {
        stop();
        throw std::runtime_error("agingd not ready after 60 s");
      }
      ::usleep(200);
    }
    ready_s_ = now_s() - t0;
  }
  ~Daemon() {
    if (pid_ > 0) stop();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  double ready_s() const { return ready_s_; }

  /// SIGTERM, wait for the drain; returns true on a clean exit and the
  /// daemon's peak RSS in MiB through `rss_mb`.
  bool stop(double* rss_mb = nullptr) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    rusage ru{};
    while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
    if (rss_mb != nullptr) *rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  double ready_s_ = 0.0;
};

enum class Kind { kHit, kMiss, kCampaign };

struct Planned {
  Kind kind;
  std::string method;
  std::string params;  ///< JSON object; misses get their seed per round
  std::uint64_t miss_slot = 0;  ///< misses: rank among the round's misses
};

struct Corner {
  const char* arch;
  int years;
  std::uint64_t seed;
};

const char* const kArchNames[3] = {"am", "cb", "rb"};

std::string query_params(const char* arch, double years, int ops,
                         std::uint64_t seed, double period_frac, int skip) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"arch\": \"%s\", \"width\": 16, \"years\": %.2f, "
                "\"ops\": %d, \"seed\": %llu, \"period_frac\": %.2f, "
                "\"skip\": %d}",
                arch, years, ops, static_cast<unsigned long long>(seed),
                period_frac, skip);
  return buf;
}

/// The seeded request mix, in a seeded order. Hits and campaigns are
/// identical in every round (so their replies must be byte-identical round
/// to round); misses get a fresh operand seed per round, so each one refills
/// the cache, and cycle through the architectures.
class Mix {
 public:
  Mix(const Sizes& z, std::uint64_t seed) : z_(z), seed_(seed) {
    Rng rng(derive_seed(seed, 10));
    for (int c = 0; c < z.warm_corners; ++c) {
      // The operand seed alone makes every corner a distinct cache key.
      corners_.push_back({kArchNames[c % 3],
                          static_cast<int>(rng.next_below(8)),
                          derive_seed(seed, 20 + static_cast<std::uint64_t>(c))});
    }
    for (int i = 0; i < z.hits; ++i) {
      // The hits cycle through the corners, so no seed makes one
      // architecture's hits dominate.
      const Corner& c = corners_[static_cast<std::size_t>(i) % corners_.size()];
      const double frac = 0.55 + 0.05 * static_cast<double>(rng.next_below(7));
      const int skip = 6 + static_cast<int>(rng.next_below(4));
      plan_.push_back({Kind::kHit, "query",
                       query_params(c.arch, c.years, z.query_ops, c.seed, frac,
                                    skip)});
    }
    for (int i = 0; i < z.misses; ++i) plan_.push_back({Kind::kMiss, "query", ""});
    for (int i = 0; i < z.campaigns; ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"arch\": \"%s\", \"width\": 8, \"trials\": %d, "
                    "\"ops\": %d, \"sites\": 2, \"kind\": \"delay\", "
                    "\"seed\": %llu}",
                    kArchNames[1 + i % 2], z.campaign_trials, z.campaign_ops,
                    static_cast<unsigned long long>(
                        derive_seed(seed, 30 + static_cast<std::uint64_t>(i))));
      plan_.push_back({Kind::kCampaign, "campaign", buf});
    }
    for (std::size_t i = plan_.size(); i > 1; --i) {  // seeded shuffle
      std::swap(plan_[i - 1], plan_[rng.next_below(i)]);
    }
    for (Planned& p : plan_) {
      if (p.kind == Kind::kMiss) p.miss_slot = misses_per_round_++;
    }
  }

  std::size_t size() const { return plan_.size(); }
  const std::vector<Corner>& corners() const { return corners_; }
  const Planned& at(std::size_t i) const { return plan_[i]; }

  /// Request text for position i of round r, envelope id `id`.
  std::string request(std::uint64_t round, std::size_t i,
                      std::uint64_t id) const {
    const Planned& p = plan_[i];
    std::string params = p.params;
    if (p.kind == Kind::kMiss) {
      const std::uint64_t n = round * misses_per_round_ + p.miss_slot;
      Rng rng(derive_seed(seed_, 1'000'000 + n));
      const double years = 0.5 + 0.01 * static_cast<double>(rng.next_below(650));
      params = query_params(kArchNames[n % 3], years, z_.query_ops, rng.next(),
                            0.6, 7);
    }
    return "{\"id\": " + std::to_string(id) + ", \"method\": \"" + p.method +
           "\", \"client_id\": \"pb\", \"params\": " + params + "}";
  }

 private:
  const Sizes& z_;
  std::uint64_t seed_;
  std::vector<Corner> corners_;
  std::vector<Planned> plan_;
  std::uint64_t misses_per_round_ = 0;
};

struct Reply {
  double ms = 0.0;
  std::string text;  ///< empty: transport failure
};

/// Latency populations per request kind.
struct Latencies {
  std::vector<double> hit, miss, campaign;
};

/// The reply minus its envelope id, for round-to-round comparison.
std::string_view body(const std::string& reply) {
  const std::size_t at = reply.find(", \"ok\"");
  return at == std::string::npos ? std::string_view(reply)
                                 : std::string_view(reply).substr(at);
}

class Driver {
 public:
  Driver(const Mix& mix, std::size_t window, Outcome& out)
      : mix_(mix), window_(window), out_(out) {}

  /// Runs timed rounds for `seconds` against the daemon at `socket`, after
  /// one untimed round if `warm_up`. Every round is checked; the first
  /// round of the run sets the reference replies and the digest.
  void run(const std::string& socket, double seconds, bool warm_up,
           std::vector<double>& round_s, Latencies& lat,
           const std::function<void()>& after_round = {}) {
    Client client(socket);
    if (warm_up) {
      Latencies ignored;
      play_round(client, ignored);
    }
    const double start = now_s();
    do {
      const double t0 = now_s();
      play_round(client, lat);
      round_s.push_back(now_s() - t0);
      if (after_round) after_round();
    } while (now_s() - start < seconds);
  }

  std::uint64_t digest() const { return digest_; }

 private:
  /// Sends the round's requests in order, keeping `window_` of them
  /// outstanding, and files each reply under the position its id names.
  /// A campaign goes out alone: the daemon serves queries before batch
  /// work, so one queued behind a full window would wait for the end of
  /// the round and its latency would measure the round, not the campaign.
  void play_round(Client& client, Latencies& lat) {
    const std::size_t n = mix_.size();
    const std::uint64_t first_id = round_ * n + 1;
    std::vector<Reply> replies(n);
    std::vector<double> sent_s(n, 0.0);
    {
      agingsim::obs::TraceSpan span("bench.job", round_);
      std::size_t sent = 0, received = 0;
      std::size_t alone = n;  // position of the outstanding campaign, if any
      while (received < n) {
        while (sent < n && sent - received < window_ && alone == n) {
          if (mix_.at(sent).kind == Kind::kCampaign) {
            if (sent != received) break;  // drain the window first
            alone = sent;
          }
          sent_s[sent] = now_s();
          if (!client.send(mix_.request(round_, sent, first_id + sent))) break;
          ++sent;
        }
        if (sent == received) break;  // the send failed: the rest stay empty
        const std::optional<std::string> reply = client.receive();
        if (!reply) break;  // transport failure: the rest stay empty
        ++received;
        const std::uint64_t id =
            std::strtoull(reply->c_str() + std::min<std::size_t>(
                                               reply->size(), 7), nullptr, 10);
        if (reply->rfind("{\"id\": ", 0) != 0 || id < first_id ||
            id - first_id >= sent || !replies[id - first_id].text.empty()) {
          out_.fail("round " + std::to_string(round_) +
                    ": reply with an unexpected id: " + reply->substr(0, 80));
          continue;
        }
        const std::size_t i = id - first_id;
        replies[i] = {(now_s() - sent_s[i]) * 1e3, *reply};
        if (i == alone) alone = n;
      }
    }
    check_round(replies, lat);
    ++round_;
  }

  void check_round(const std::vector<Reply>& replies, Latencies& lat) {
    const bool reference = reference_.empty();
    Digest d;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const Reply& r = replies[i];
      const Planned& p = mix_.at(i);
      ++out_.attempted;
      const std::string where =
          "round " + std::to_string(round_) + " request " + std::to_string(i);
      const auto doc = serve::parse_json(r.text);
      const serve::JsonValue* ok = doc ? doc->find("ok") : nullptr;
      const serve::JsonValue* result = doc ? doc->find("result") : nullptr;
      if (ok == nullptr || !ok->is_bool() || !ok->as_bool() ||
          result == nullptr) {
        out_.fail(where + ": failed: " + r.text.substr(0, 200));
        continue;
      }
      if (p.kind == Kind::kCampaign) {
        const serve::JsonValue* stats = result->find("stats");
        const serve::JsonValue* q =
            stats != nullptr ? stats->find("trials_quarantined") : nullptr;
        if (q == nullptr || q->as_double() != 0.0) {
          out_.fail(where + ": campaign quarantined trials");
          continue;
        }
        lat.campaign.push_back(r.ms);
      } else {
        const serve::JsonValue* hit = result->find("cache_hit");
        const bool want = p.kind == Kind::kHit;
        if (hit == nullptr || !hit->is_bool() || hit->as_bool() != want) {
          out_.fail(where + (want ? ": expected a cache hit"
                                  : ": expected a cache miss"));
          continue;
        }
        (want ? lat.hit : lat.miss).push_back(r.ms);
      }
      if (reference) {
        d.mix(body(r.text));
      } else if (p.kind != Kind::kMiss && body(r.text) != reference_[i]) {
        out_.fail(where + ": reply differs from round 0");
      }
    }
    if (reference) {
      digest_ = d.value();
      for (const Reply& r : replies) reference_.emplace_back(body(r.text));
    }
  }

  const Mix& mix_;
  std::size_t window_;
  Outcome& out_;
  std::uint64_t round_ = 0;
  std::uint64_t digest_ = 0;
  std::vector<std::string> reference_;
};

std::string metrics_snapshot(const std::string& socket) {
  Client client(socket);
  return client.call(R"({"id": 1, "method": "metrics"})").value_or("");
}

}  // namespace

Outcome run_serve(const Options& opt) {
  const Sizes z = sizes(opt.tiny);
  Outcome out;
  if (opt.agingd.empty()) throw std::runtime_error("--agingd is required");
  // One worker fed by one connection that keeps a window of requests
  // queued: the worker never waits for a client to wake up, so a round's
  // time is the daemon's work, not thread wake-up latency (which on a
  // shared host swings by tens of percent). The window stays below the
  // admission queue's shedding threshold, so nothing is turned away.
  const int workers = 1;
  const std::string socket = opt.out_dir + "/agingd.sock";
  const Mix mix(z, opt.seed);

  // Set-up = daemon start until ready, timed on throw-away daemons four
  // times before the first round and once after every untraced round, so
  // its median samples the whole run, not one moment of the machine.
  const auto probe = [&] {
    Daemon d(opt, opt.out_dir + "/probe.sock", workers, "");
    out.setup_s.push_back(d.ready_s());
    if (!d.stop()) out.fail("agingd did not exit cleanly");
  };
  for (int rep = 0; rep < 4; ++rep) probe();
  Daemon daemon(opt, socket, workers, "");
  out.setup_s.push_back(daemon.ready_s());
  Latencies lat;
  Driver driver(mix, z.window, out);
  const auto warm_corners = [&](const std::string& sock) {
    Client client(sock);
    std::uint64_t id = 1u << 30;
    for (const Corner& c : mix.corners()) {
      const auto reply = client.call(
          "{\"id\": " + std::to_string(id++) +
          ", \"method\": \"query\", \"client_id\": \"pb-warm\", \"params\": " +
          query_params(c.arch, c.years, z.query_ops, c.seed, 0.6, 7) + "}");
      if (!reply || reply->find("\"ok\": true") == std::string::npos) {
        out.fail("warm-up query failed");
      }
    }
  };
  warm_corners(socket);
  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  driver.run(socket, phase_s, /*warm_up=*/true, out.job_s, lat, probe);
  double rss = 0.0;
  if (!daemon.stop(&rss)) out.fail("agingd did not exit cleanly");
  out.peak_rss_mb = rss;
  out.sim_digest = driver.digest();

  if (opt.trace) {
    const std::string trace_path = opt.out_dir + "/spans_agingd.json";
    Daemon traced(opt, socket, workers, trace_path);
    warm_corners(socket);
    write_file(opt.out_dir + "/metrics_before.json", metrics_snapshot(socket));
    agingsim::obs::set_trace_enabled(true);
    Latencies traced_lat;
    // No warm-up round here: the metric deltas and daemon spans are
    // divided by the traced rounds, so every traced request must be in one.
    driver.run(socket, std::min(opt.seconds / 2, 5.0), /*warm_up=*/false,
               out.traced_job_s, traced_lat);
    agingsim::obs::set_trace_enabled(false);
    write_file(opt.out_dir + "/metrics_after.json", metrics_snapshot(socket));
    if (!traced.stop()) out.fail("traced agingd did not exit cleanly");
    agingsim::obs::write_trace_json(opt.out_dir + "/spans_harness.json");
    out.trace_files = {{"harness", "spans_harness.json"},
                       {"daemon", "spans_agingd.json"},
                       {"metrics_before", "metrics_before.json"},
                       {"metrics_after", "metrics_after.json"}};
    out.trace_info = {
        {"traced_jobs", static_cast<double>(out.traced_job_s.size())},
        {"gate_steps_per_job", 0.0},
        {"gate_words_per_job", 0.0},
        {"query_hit_p50_ms", quantile(lat.hit, 0.5)},
        {"query_hit_p99_ms", quantile(lat.hit, 0.99)},
        {"query_miss_p50_ms", quantile(lat.miss, 0.5)},
        {"campaign_p50_ms", quantile(lat.campaign, 0.5)}};
  }

  double round_s = 0.0;
  for (const double t : out.job_s) round_s += t;
  out.context = {
      {"requests_per_s", static_cast<double>(out.job_s.size()) *
                             static_cast<double>(mix.size()) / round_s},
      {"query_hit_p50_ms", quantile(lat.hit, 0.5)},
      {"query_hit_p90_ms", quantile(lat.hit, 0.90)},
      {"query_hit_p99_ms", quantile(lat.hit, 0.99)},
      {"query_hit_p999_ms", quantile(lat.hit, 0.999)},
      {"query_miss_p50_ms", quantile(lat.miss, 0.5)},
      {"campaign_p50_ms", quantile(lat.campaign, 0.5)},
      {"hits", static_cast<double>(lat.hit.size())},
      {"misses", static_cast<double>(lat.miss.size())},
      {"campaigns", static_cast<double>(lat.campaign.size())},
      {"requests_per_round", static_cast<double>(mix.size())},
      {"daemon_workers", static_cast<double>(workers)},
      {"requests_outstanding", static_cast<double>(z.window)}};
  return out;
}

}  // namespace perfbench
