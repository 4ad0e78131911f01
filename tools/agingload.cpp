// agingload — load generator and SLO harness for agingd (docs/SERVING.md).
//
// Two drive modes:
//   closed  N connections, each firing the next request the moment the
//           previous response lands — measures the daemon's sustainable
//           throughput (the achieved_rps in the report);
//   open    requests launched on a fixed wall-clock schedule at --rate
//           req/s split across the connections, regardless of response
//           latency — offered load stays fixed even as the daemon slows,
//           which is what pushes it into admission-control territory.
//
// The overload drill in CI runs closed-loop first to find the sustainable
// rate, then open-loop at 2x that rate and asserts the daemon sheds load
// explicitly (nonzero rejected counts, bounded p99) instead of melting.
//
// Reports p50/p90/p99/p99.9 latency over the post-warmup window, outcome
// counts by error code, and SLO compliance (fraction of accepted requests
// answering under --slo-ms). --json writes the report atomically.
//
// Exit codes: 0 = run complete (even with rejections: shedding is the
// daemon behaving), 1 = SLO violated (--slo-ms given and compliance <
// --slo-target), 2 = usage error, 3 = cannot connect.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/quantile.hpp"
#include "src/report/json.hpp"
#include "src/serve/json.hpp"
#include "src/serve/protocol.hpp"
#include "src/workload/rng.hpp"
#include "tools/flags.hpp"

namespace {

using namespace agingsim;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string socket_path = "./agingd.sock";
  std::string mode = "closed";  // closed | open
  std::string method = "work";  // work | query | campaign
  double rate = 100.0;          // open-loop offered req/s (total)
  int conns = 4;
  double duration_s = 10.0;
  double warmup_s = 1.0;
  long spin_us = 2000;       // method=work service time
  int width = 16;            // method=query/campaign
  double years = 7.0;        // method=query
  long deadline_ms = 0;      // 0 = server default
  double slo_ms = 0.0;       // 0 = no SLO check
  double slo_target = 0.99;  // required compliance when slo_ms > 0
  std::string json_path;
  /// Fairness identity stamped on every request ("" = none: the daemon
  /// then buckets by connection). Quota drills run several agingload
  /// processes with distinct ids against one daemon.
  std::string client_id;
  /// Closed loop honours retry_after_ms hints with capped, jittered
  /// exponential backoff; --no-backoff turns a closed-loop client greedy
  /// (the misbehaving client in fairness drills). Open loop never backs
  /// off — its entire point is holding the offered rate fixed.
  bool backoff = true;
  std::uint64_t seed = 1;  ///< backoff jitter PRNG seed (deterministic)
};

/// Ceiling on one backoff sleep. 2^n growth hits this after a few
/// consecutive rejections; the cap keeps a long overload from parking
/// clients for the rest of the run.
constexpr double kBackoffCapMs = 5000.0;

/// Outcome tally of one worker thread, merged after the run.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t shed_refill = 0;
  std::uint64_t shed_batch = 0;
  std::uint64_t draining = 0;
  std::uint64_t timeout = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t bad_request = 0;
  std::uint64_t internal = 0;
  std::uint64_t quota_exceeded = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t missed_ticks = 0;  ///< open loop: schedule slots skipped
  std::uint64_t retries = 0;       ///< backoff sleeps taken (closed loop)
  double backoff_ms_total = 0.0;   ///< wall time spent in backoff sleeps
  std::vector<double> ok_latency_us;  ///< accepted requests, post-warmup

  void merge(const Tally& other) {
    sent += other.sent;
    ok += other.ok;
    overloaded += other.overloaded;
    shed_refill += other.shed_refill;
    shed_batch += other.shed_batch;
    draining += other.draining;
    timeout += other.timeout;
    cancelled += other.cancelled;
    bad_request += other.bad_request;
    internal += other.internal;
    quota_exceeded += other.quota_exceeded;
    transport_errors += other.transport_errors;
    missed_ticks += other.missed_ticks;
    retries += other.retries;
    backoff_ms_total += other.backoff_ms_total;
    ok_latency_us.insert(ok_latency_us.end(), other.ok_latency_us.begin(),
                         other.ok_latency_us.end());
  }
};

void print_usage(std::ostream& os) {
  os << "usage: agingload [options]\n"
        "  --socket PATH     agingd socket [./agingd.sock]\n"
        "  --mode M          closed (latency-limited) or open (fixed offered"
        " rate) [closed]\n"
        "  --method M        work|query|campaign [work]\n"
        "  --rate R          open-loop offered req/s across all connections"
        " [100]\n"
        "  --conns N         concurrent connections [4]\n"
        "  --duration-s S    measured run length [10]\n"
        "  --warmup-s S      discarded leading window [1]\n"
        "  --spin-us N       method=work service time [2000]\n"
        "  --width N         method=query/campaign multiplier width [16]\n"
        "  --years Y         method=query aging point [7]\n"
        "  --deadline-ms N   per-request deadline, 0 = server default [0]\n"
        "  --slo-ms X        latency SLO for accepted requests, 0 = off [0]\n"
        "  --slo-target F    required compliance fraction [0.99]\n"
        "  --client-id NAME  fairness identity sent with every request"
        " (1..64 of [A-Za-z0-9._-])\n"
        "  --no-backoff      ignore retry_after_ms hints in closed-loop"
        " mode (greedy client)\n"
        "  --seed N          backoff jitter PRNG seed [1]\n"
        "  --json PATH       write the report JSON to PATH (atomic)\n"
        "  --help            this text\n";
}

std::optional<Options> parse_args(int argc, char** argv, int& exit_code) {
  Options opt;
  cli::Flags flags;
  flags.switches = {{"--no-backoff", [&] { opt.backoff = false; }}};
  flags.values = {
      {"--socket", cli::text(opt.socket_path)},
      {"--mode", cli::choice("closed|open", opt.mode)},
      {"--method", cli::choice("work|query|campaign", opt.method)},
      {"--rate", cli::number(0.001, opt.rate)},
      {"--conns", cli::integer(1, opt.conns)},
      {"--duration-s", cli::number(0.1, opt.duration_s)},
      {"--warmup-s", cli::number(0.0, opt.warmup_s)},
      {"--spin-us", cli::integer(0, opt.spin_us)},
      {"--width", cli::integer(2, opt.width, 32)},
      {"--years", cli::number(0.0, opt.years)},
      {"--deadline-ms", cli::integer(0, opt.deadline_ms)},
      {"--slo-ms", cli::number(0.0, opt.slo_ms)},
      {"--slo-target", cli::number(0.0, opt.slo_target)},
      {"--client-id",
       [&](const std::string& v) -> std::string {
         if (!serve::valid_client_id(v)) {
           return "wants 1..64 chars of [A-Za-z0-9._-]";
         }
         opt.client_id = v;
         return {};
       }},
      {"--seed", cli::integer(0, opt.seed)},
      {"--json", cli::text(opt.json_path)},
  };
  if (const auto code =
          cli::parse_flags("agingload", argc, argv, flags, print_usage)) {
    exit_code = *code;
    return std::nullopt;
  }
  return opt;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string build_request(const Options& opt, std::uint64_t id) {
  JsonWriter json;
  json.begin_object();
  json.key("id").value(id);
  json.key("method").value(opt.method);
  if (!opt.client_id.empty()) json.key("client_id").value(opt.client_id);
  if (opt.deadline_ms > 0) {
    json.key("deadline_ms").value(static_cast<std::int64_t>(opt.deadline_ms));
  }
  json.key("params").begin_object();
  if (opt.method == "work") {
    json.key("spin_us").value(static_cast<std::int64_t>(opt.spin_us));
  } else if (opt.method == "query") {
    json.key("width").value(opt.width);
    json.key("years").value(opt.years);
    // Varying the seed across requests defeats the aged-state cache on
    // purpose in some drills; here every request shares the default seed
    // so steady state exercises the cache-hit fast path.
  } else {  // campaign
    json.key("width").value(opt.width);
    json.key("trials").value(std::int64_t{8});
    json.key("ops").value(std::int64_t{200});
  }
  json.end_object();
  json.end_object();
  return json.str();
}

/// Sends one request and classifies the response into the tally. Returns
/// false on a transport error (caller reconnects). `rejected` /
/// `retry_after_ms` report an admission rejection and its hint, which the
/// closed loop turns into backoff.
bool do_request(int fd, const Options& opt, std::uint64_t id, bool measured,
                Tally& tally, bool& rejected, long& retry_after_ms) {
  rejected = false;
  retry_after_ms = 0;
  const std::string request = build_request(opt, id);
  ++tally.sent;
  const Clock::time_point t0 = Clock::now();
  if (!serve::write_frame_fd(fd, request)) {
    ++tally.transport_errors;
    return false;
  }
  const std::optional<std::string> reply = serve::read_frame_fd(fd);
  if (!reply.has_value()) {
    ++tally.transport_errors;
    return false;
  }
  const double latency_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  serve::JsonError parse_error;
  const auto doc = serve::parse_json(*reply, &parse_error);
  if (!doc.has_value() || doc->kind() != serve::JsonValue::Kind::kObject) {
    ++tally.transport_errors;
    return true;  // stream still framed; count and continue
  }
  if (doc->bool_or("ok", false)) {
    ++tally.ok;
    if (measured) tally.ok_latency_us.push_back(latency_us);
    return true;
  }
  const serve::JsonValue* error = doc->find("error");
  const std::string code =
      error != nullptr ? error->str_or("code", "internal") : "internal";
  if (code == "overloaded") ++tally.overloaded;
  else if (code == "shed_refill") ++tally.shed_refill;
  else if (code == "shed_batch") ++tally.shed_batch;
  else if (code == "quota_exceeded") ++tally.quota_exceeded;
  else if (code == "draining") ++tally.draining;
  else if (code == "timeout") ++tally.timeout;
  else if (code == "cancelled") ++tally.cancelled;
  else if (code == "bad_request") ++tally.bad_request;
  else ++tally.internal;
  if (code == "overloaded" || code == "shed_refill" ||
      code == "shed_batch" || code == "quota_exceeded") {
    rejected = true;
    if (error != nullptr) {
      retry_after_ms = static_cast<long>(error->i64_or("retry_after_ms", 0));
    }
  }
  return true;
}

// Shared repo-wide convention (src/core/quantile.hpp): latency percentiles
// stay interpolated (numpy/R type 7), campaign quantiles are nearest-rank.
double percentile(const std::vector<double>& sorted, double q) {
  return quantile::interpolated(sorted, q);
}

int run_load(const Options& opt) {
  // Fail fast if the daemon is not there at all.
  {
    const int probe = connect_unix(opt.socket_path);
    if (probe < 0) {
      std::cerr << "agingload: cannot connect to " << opt.socket_path << ": "
                << std::strerror(errno) << "\n";
      return 3;
    }
    ::close(probe);
  }
  std::signal(SIGPIPE, SIG_IGN);

  const Clock::time_point start = Clock::now();
  const Clock::time_point warmup_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.warmup_s));
  const Clock::time_point end =
      warmup_end + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(opt.duration_s));

  std::vector<Tally> tallies(static_cast<std::size_t>(opt.conns));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(opt.conns));
  const bool open_loop = opt.mode == "open";
  const double per_conn_rate = opt.rate / static_cast<double>(opt.conns);

  for (int c = 0; c < opt.conns; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[static_cast<std::size_t>(c)];
      int fd = connect_unix(opt.socket_path);
      std::uint64_t id = static_cast<std::uint64_t>(c) << 32;
      const auto interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / per_conn_rate));
      Clock::time_point next = Clock::now();
      // Jitter stream: splitmix64 over rng, rng + gamma, ... Deterministic
      // per (seed, draw index), so a fairness drill replays its exact
      // backoff schedule.
      std::uint64_t rng =
          opt.seed ^ (static_cast<std::uint64_t>(c) * 0xD1B54A32D192ED03ull);
      int consecutive_rejections = 0;
      while (Clock::now() < end) {
        if (open_loop) {
          // Absolute scheduling: intervals are anchored to the original
          // grid, so offered rate does not sag when a response is slow —
          // slots that passed while blocked are counted as missed.
          const Clock::time_point now = Clock::now();
          if (now < next) {
            std::this_thread::sleep_until(next);
          } else {
            const auto behind = now - next;
            const auto skipped = behind / interval;
            tally.missed_ticks += static_cast<std::uint64_t>(skipped);
            next += skipped * interval;
          }
          next += interval;
        }
        if (fd < 0) {
          fd = connect_unix(opt.socket_path);
          if (fd < 0) {
            ++tally.transport_errors;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
          }
        }
        const bool measured = Clock::now() >= warmup_end;
        bool was_rejected = false;
        long hint_ms = 0;
        if (!do_request(fd, opt, ++id, measured, tally, was_rejected,
                        hint_ms)) {
          ::close(fd);
          fd = -1;
          continue;
        }
        if (open_loop || !opt.backoff) continue;
        // Closed loop honours the daemon's hint: exponential growth over
        // consecutive rejections, capped, with ±25% jitter so a fleet of
        // clients rejected together does not retry in lockstep.
        if (!was_rejected) {
          consecutive_rejections = 0;
          continue;
        }
        consecutive_rejections = std::min(consecutive_rejections + 1, 16);
        const double base_ms = hint_ms > 0 ? static_cast<double>(hint_ms)
                                           : 10.0;
        const double exp_ms = std::min(
            kBackoffCapMs,
            base_ms * static_cast<double>(1u << std::min(
                          consecutive_rejections - 1, 10)));
        const double jitter =
            0.75 + 0.5 * (static_cast<double>(splitmix64(rng) >> 11) *
                          0x1.0p-53);
        rng += 0x9E3779B97F4A7C15ull;
        double sleep_ms = std::min(kBackoffCapMs, exp_ms * jitter);
        // Never sleep past the end of the run.
        const double left_ms = std::chrono::duration<double, std::milli>(
                                   end - Clock::now())
                                   .count();
        if (left_ms <= 0.0) continue;
        sleep_ms = std::min(sleep_ms, left_ms);
        ++tally.retries;
        tally.backoff_ms_total += sleep_ms;
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep_ms));
      }
      if (fd >= 0) ::close(fd);
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  Tally total;
  for (const Tally& t : tallies) total.merge(t);
  std::sort(total.ok_latency_us.begin(), total.ok_latency_us.end());
  const auto& lat = total.ok_latency_us;
  double mean_us = 0.0;
  for (const double v : lat) mean_us += v;
  if (!lat.empty()) mean_us /= static_cast<double>(lat.size());

  const std::uint64_t rejected = total.overloaded + total.shed_refill +
                                 total.shed_batch + total.quota_exceeded +
                                 total.draining;
  double slo_compliance = 1.0;
  if (opt.slo_ms > 0.0 && !lat.empty()) {
    const auto under = std::upper_bound(lat.begin(), lat.end(),
                                        opt.slo_ms * 1000.0);
    slo_compliance = static_cast<double>(under - lat.begin()) /
                     static_cast<double>(lat.size());
  }

  JsonWriter json;
  json.begin_object();
  json.key("tool").value("agingload");
  json.key("mode").value(opt.mode);
  json.key("method").value(opt.method);
  if (!opt.client_id.empty()) json.key("client_id").value(opt.client_id);
  json.key("conns").value(opt.conns);
  if (opt.mode == "open") json.key("offered_rps").value(opt.rate);
  json.key("duration_s").value(opt.duration_s);
  json.key("warmup_s").value(opt.warmup_s);
  json.key("sent").value(total.sent);
  json.key("ok").value(total.ok);
  json.key("rejected").begin_object();
  json.key("overloaded").value(total.overloaded);
  json.key("shed_refill").value(total.shed_refill);
  json.key("shed_batch").value(total.shed_batch);
  json.key("quota_exceeded").value(total.quota_exceeded);
  json.key("draining").value(total.draining);
  json.end_object();
  json.key("timeout").value(total.timeout);
  json.key("cancelled").value(total.cancelled);
  json.key("bad_request").value(total.bad_request);
  json.key("internal").value(total.internal);
  json.key("transport_errors").value(total.transport_errors);
  json.key("missed_ticks").value(total.missed_ticks);
  json.key("retries").value(total.retries);
  json.key("backoff_ms_total").value(total.backoff_ms_total);
  json.key("achieved_rps")
      .value(static_cast<double>(total.sent) / elapsed_s);
  json.key("ok_rps").value(static_cast<double>(total.ok) / elapsed_s);
  json.key("latency_us").begin_object();
  json.key("samples").value(static_cast<std::uint64_t>(lat.size()));
  json.key("mean").value(mean_us);
  json.key("p50").value(percentile(lat, 0.50));
  json.key("p90").value(percentile(lat, 0.90));
  json.key("p99").value(percentile(lat, 0.99));
  json.key("p999").value(percentile(lat, 0.999));
  json.key("max").value(lat.empty() ? 0.0 : lat.back());
  json.end_object();
  if (opt.slo_ms > 0.0) {
    json.key("slo_ms").value(opt.slo_ms);
    json.key("slo_target").value(opt.slo_target);
    json.key("slo_compliance").value(slo_compliance);
  }
  json.end_object();

  if (opt.json_path.empty()) {
    std::cout << json.str() << "\n";
  } else {
    const std::string tmp = opt.json_path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (!out) {
        std::cerr << "agingload: cannot write " << tmp << "\n";
        return 2;
      }
      out << json.str() << "\n";
    }
    if (std::rename(tmp.c_str(), opt.json_path.c_str()) != 0) {
      std::cerr << "agingload: cannot rename " << tmp << "\n";
      return 2;
    }
  }
  std::fprintf(stderr,
               "agingload: %llu sent, %llu ok, %llu rejected, p99 %.1f ms\n",
               static_cast<unsigned long long>(total.sent),
               static_cast<unsigned long long>(total.ok),
               static_cast<unsigned long long>(rejected),
               percentile(lat, 0.99) / 1000.0);
  if (opt.slo_ms > 0.0 && slo_compliance < opt.slo_target) {
    std::fprintf(stderr, "agingload: SLO violated: %.4f < %.4f\n",
                 slo_compliance, opt.slo_target);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int exit_code = 0;
  const auto opt = parse_args(argc, argv, exit_code);
  if (!opt) return exit_code;
  try {
    return run_load(*opt);
  } catch (const std::exception& e) {
    std::cerr << "agingload: fatal: " << e.what() << "\n";
    return 70;
  }
}
