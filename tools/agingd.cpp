// agingd — the aging-simulation serving daemon (docs/SERVING.md).
//
// Long-lived front-end of src/serve/: accepts query/campaign/work requests
// as length-prefixed JSON over a Unix-domain socket, schedules them on a
// bounded admission queue with explicit overload rejection and graceful
// degradation tiers, caches aged-netlist state, and checkpoints campaigns
// so a daemon killed mid-campaign resumes byte-identically after restart.
//
// Shutdown: SIGTERM or SIGINT (or a `shutdown` request) starts a graceful
// drain — stop accepting, finish or checkpoint in-flight work, flush
// observability artifacts — then exits 0.
//
// Exit codes: 0 = clean (including signal-initiated drain), 2 = usage
// error, 3 = cannot bind the socket.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include <unistd.h>

#include "src/core/env.hpp"
#include "src/obs/artifacts.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/server.hpp"
#include "tools/flags.hpp"

namespace {

using namespace agingsim;

// Self-pipe shared with the signal handlers: the only async-signal-safe
// way to get from a signal to the drain sequence is write(2) on a
// pre-opened fd; a watcher thread does the actual draining.
int g_signal_pipe[2] = {-1, -1};
volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) {
  g_signal = sig;
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

struct Options {
  serve::ServerConfig server;
  std::string trace_path;
  std::string metrics_path;
  bool quiet = false;
};

void print_usage(std::ostream& os) {
  os << "usage: agingd [options]\n"
        "  --socket PATH        Unix socket path"
        " [$AGINGSIM_SERVE_SOCKET or ./agingd.sock]\n"
        "  --workers N          worker threads [$AGINGSIM_SERVE_WORKERS or"
        " 4]\n"
        "  --queue N            admission queue capacity"
        " [$AGINGSIM_SERVE_QUEUE or 64]\n"
        "  --deadline-ms N      default per-request deadline, 0 = none"
        " [$AGINGSIM_SERVE_DEADLINE_MS or 30000]\n"
        "  --drain-grace-ms N   drain grace before cancelling in-flight"
        " work [5000]\n"
        "  --cache-mb N         aged-state cache budget in MiB"
        " [$AGINGSIM_SERVE_CACHE_MB or 64]\n"
        "  --quota-rate R       per-client token-bucket refill req/s, 0 ="
        " quotas off [$AGINGSIM_SERVE_QUOTA_RATE or 0]\n"
        "  --quota-burst B      per-client token-bucket capacity"
        " [$AGINGSIM_SERVE_QUOTA_BURST or 32]\n"
        "  --read-deadline-ms N close a connection whose frame stays"
        " incomplete this long, 0 = off\n"
        "                       [$AGINGSIM_SERVE_READ_DEADLINE_MS or 10000]\n"
        "  --idle-timeout-ms N  close connections idle this long (no partial"
        " frame, nothing in\n"
        "                       flight), 0 = never"
        " [$AGINGSIM_SERVE_IDLE_TIMEOUT_MS or 0]\n"
        "  --max-inflight N     per-connection cap on queued+running"
        " requests, 0 = off\n"
        "                       [$AGINGSIM_SERVE_MAX_INFLIGHT or 32]\n"
        "  --checkpoint-dir D   campaign checkpoint root"
        " [$AGINGSIM_SERVE_CHECKPOINT_DIR or none]\n"
        "  --trace PATH         write a Chrome trace-event file on exit\n"
        "  --metrics PATH       write a metrics JSON snapshot on exit\n"
        "  --quiet              suppress startup/drain notes on stderr\n"
        "  --help               this text\n";
}

std::optional<Options> parse_args(int argc, char** argv, int& exit_code) {
  Options opt;
  // Env defaults first; flags override below.
  opt.server.socket_path =
      env::str_var("AGINGSIM_SERVE_SOCKET").value_or("./agingd.sock");
  opt.server.workers =
      static_cast<int>(env::long_or("AGINGSIM_SERVE_WORKERS", 4, 1, 256));
  opt.server.admission.capacity = static_cast<std::size_t>(
      env::long_or("AGINGSIM_SERVE_QUEUE", 64, 1, 1 << 20));
  opt.server.default_deadline_ms =
      env::long_or("AGINGSIM_SERVE_DEADLINE_MS", 30'000, 0);
  opt.server.cache_budget_bytes =
      static_cast<std::size_t>(
          env::long_or("AGINGSIM_SERVE_CACHE_MB", 64, 0, 1 << 20))
      << 20;
  opt.server.service.checkpoint_root =
      env::str_var("AGINGSIM_SERVE_CHECKPOINT_DIR").value_or("");
  opt.server.admission.fairness.quota_rate_per_s =
      env::double_or("AGINGSIM_SERVE_QUOTA_RATE", 0.0, 0.0);
  opt.server.admission.fairness.quota_burst =
      env::double_or("AGINGSIM_SERVE_QUOTA_BURST", 32.0, 1.0);
  opt.server.read_deadline_ms =
      env::long_or("AGINGSIM_SERVE_READ_DEADLINE_MS", 10'000, 0);
  opt.server.idle_timeout_ms =
      env::long_or("AGINGSIM_SERVE_IDLE_TIMEOUT_MS", 0, 0);
  opt.server.max_inflight_per_conn = static_cast<std::uint32_t>(
      env::long_or("AGINGSIM_SERVE_MAX_INFLIGHT", 32, 0, 1 << 20));

  serve::ServerConfig& server = opt.server;
  cli::Flags flags;
  flags.switches = {{"--quiet", [&] { opt.quiet = true; }}};
  flags.values = {
      {"--socket", cli::text(server.socket_path)},
      {"--workers", cli::integer(1, server.workers)},
      {"--queue", cli::integer(1, server.admission.capacity)},
      {"--deadline-ms", cli::integer(0, server.default_deadline_ms)},
      {"--drain-grace-ms", cli::integer(0, server.drain_grace_ms)},
      {"--cache-mb",
       [&](const std::string& v) {
         std::size_t mb = 0;
         std::string error = cli::integer(0, mb)(v);
         if (error.empty()) server.cache_budget_bytes = mb << 20;
         return error;
       }},
      {"--quota-rate",
       cli::number(0.0, server.admission.fairness.quota_rate_per_s)},
      {"--quota-burst",
       cli::number(1.0, server.admission.fairness.quota_burst)},
      {"--read-deadline-ms", cli::integer(0, server.read_deadline_ms)},
      {"--idle-timeout-ms", cli::integer(0, server.idle_timeout_ms)},
      {"--max-inflight", cli::integer(0, server.max_inflight_per_conn)},
      {"--checkpoint-dir", cli::text(server.service.checkpoint_root)},
      {"--trace", cli::text(opt.trace_path)},
      {"--metrics", cli::text(opt.metrics_path)},
  };
  if (const auto code =
          cli::parse_flags("agingd", argc, argv, flags, print_usage)) {
    exit_code = *code;
    return std::nullopt;
  }
  return opt;
}

int run_daemon(const Options& opt) {
  // The metrics endpoint and the serve.* counters are part of the daemon's
  // contract, so metrics are always on; tracing stays opt-in (flag or
  // AGINGSIM_TRACE).
  obs::set_metrics_enabled(true);
  if (!opt.trace_path.empty()) obs::set_trace_enabled(true);

  if (pipe(g_signal_pipe) != 0) {
    std::cerr << "agingd: pipe: " << std::strerror(errno) << "\n";
    return 3;
  }
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  // One-shot: the first signal drains gracefully, a second one gets the
  // default disposition — a stuck drain can always be killed.
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  // A client vanishing mid-reply must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  serve::Server server(opt.server);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "agingd: " << error << "\n";
    return 3;
  }
  if (!opt.quiet) {
    std::fprintf(stderr,
                 "agingd: listening on %s (%d workers, queue %zu, cache %zu"
                 " MiB)\n",
                 opt.server.socket_path.c_str(), opt.server.workers,
                 opt.server.admission.capacity,
                 opt.server.cache_budget_bytes >> 20);
  }

  // Watcher: turns a signal byte into drain(). Released at the end either
  // by the signal itself or by the main thread (shutdown-request path).
  std::thread watcher([&server] {
    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    server.drain();
  });

  server.wait();  // returns once drained (signal or `shutdown` request)
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
  watcher.join();
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);

  if (!opt.quiet) {
    if (g_signal != 0) {
      std::fprintf(stderr, "agingd: drained after signal %d\n",
                   static_cast<int>(g_signal));
    } else {
      std::fprintf(stderr, "agingd: drained\n");
    }
  }
  if (!opt.trace_path.empty()) (void)obs::write_trace_json(opt.trace_path);
  if (!opt.metrics_path.empty()) {
    (void)obs::write_metrics_json(opt.metrics_path);
  }
  obs::flush_env_artifacts();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int exit_code = 0;
  const auto opt = parse_args(argc, argv, exit_code);
  if (!opt) return exit_code;
  try {
    return run_daemon(*opt);
  } catch (const std::exception& e) {
    std::cerr << "agingd: fatal: " << e.what() << "\n";
    return 70;
  }
}
