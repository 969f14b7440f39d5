// psgad — the long-lived solver daemon: serves RunSpec jobs over a
// Unix-domain socket (newline-delimited JSON, see docs/service.md).
//
//   $ psgad [options]
//
//   --socket PATH          listen here (default /tmp/psgad.sock, or
//                          $PSGAD_SOCKET)
//   --workers N            concurrent running jobs (default 2)
//   --max-queued N         admission limit on queued jobs (default 64)
//   --max-generations N    per-job generation cap (0 = uncapped)
//   --max-seconds S        per-job wall-clock cap
//   --max-evals N          per-job evaluation-budget cap
//   --every N              telemetry generation stride (0 = final only)
//   --config FILE          token config file (key=value; the flags' keys
//                          socket= workers= max_queued=
//                          telemetry_every= max_generations= max_seconds=
//                          max_evaluations=, plus session_workers=, the
//                          session solves run at once, default 2); flags
//                          given after --config override it
//
// Signals: SIGTERM/SIGINT drain gracefully (stop admission, cancel the
// queue, finish running jobs, exit 0); SIGHUP re-reads --config and
// swaps in the reloadable limits (admission + budget caps + stride).
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/svc/server.h"

namespace {

// Self-pipe: the async-signal-safe handler writes one byte; the signal
// thread in main() turns it into drain()/reload() calls.
int signal_pipe[2] = {-1, -1};

void on_signal(int sig) {
  const char byte = sig == SIGHUP ? 'h' : 't';
  // write() is async-signal-safe; a full pipe just drops the byte (a
  // pending drain/reload is already on its way).
  [[maybe_unused]] const ssize_t n = write(signal_pipe[1], &byte, 1);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--socket PATH] [--workers N] [--max-queued N]\n"
               "       %*s [--max-generations N] [--max-seconds S] "
               "[--max-evals N]\n"
               "       %*s [--every N] [--config FILE]\n",
               argv0, static_cast<int>(std::strlen(argv0)), "",
               static_cast<int>(std::strlen(argv0)), "");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using psga::svc::Server;
  using psga::svc::ServerConfig;

  ServerConfig config;
  if (const char* env_socket = std::getenv("PSGAD_SOCKET")) {
    config.socket_path = env_socket;
  }
  std::string config_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "psgad: %s needs a value\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    try {
      if (arg == "--socket") {
        config.socket_path = next_value();
      } else if (arg == "--workers") {
        config.workers = std::atoi(next_value());
      } else if (arg == "--max-queued") {
        config.max_queued = std::atoi(next_value());
      } else if (arg == "--max-generations") {
        config.max_generations = std::atoi(next_value());
      } else if (arg == "--max-seconds") {
        config.max_seconds = std::atof(next_value());
      } else if (arg == "--max-evals") {
        config.max_evaluations = std::atoll(next_value());
      } else if (arg == "--every") {
        config.telemetry_every = std::atoi(next_value());
      } else if (arg == "--config") {
        config_path = next_value();
        config.apply_file(config_path);
      } else if (arg == "--help" || arg == "-h") {
        return usage(argv[0]);
      } else {
        std::fprintf(stderr, "psgad: unknown option %s\n", arg.c_str());
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "psgad: %s\n", e.what());
      return 1;
    }
  }

  if (pipe(signal_pipe) != 0) {
    std::perror("psgad: pipe");
    return 1;
  }
  struct sigaction action{};
  action.sa_handler = on_signal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGHUP, &action, nullptr);

  Server server(config);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psgad: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "psgad: listening on %s (%d workers)\n",
               server.socket_path().c_str(), config.workers);

  // Signal loop: runs until a drain lands (SIGTERM/SIGINT or a client's
  // `drain` op). Reload failures keep the current limits — a bad config
  // edit must not take the daemon down.
  std::thread signal_thread([&] {
    char byte;
    while (read(signal_pipe[0], &byte, 1) == 1) {
      if (byte == 'h') {
        if (config_path.empty()) {
          std::fprintf(stderr, "psgad: SIGHUP but no --config file\n");
          continue;
        }
        try {
          ServerConfig fresh = config;
          fresh.apply_file(config_path);
          server.reload(fresh);
          std::fprintf(stderr, "psgad: reloaded %s\n", config_path.c_str());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "psgad: reload failed: %s\n", e.what());
        }
        continue;
      }
      std::fprintf(stderr, "psgad: draining\n");
      server.drain();
      return;
    }
  });

  server.wait();  // returns once drained (by signal or client) + stopped
  // Unblock the signal thread if the drain came from a client.
  close(signal_pipe[1]);
  signal_thread.join();
  close(signal_pipe[0]);
  std::fprintf(stderr, "psgad: drained, exiting\n");
  return 0;
}
