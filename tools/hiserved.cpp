// hiserved — the hidisc experiment service daemon.
//
// Listens on a Unix-domain socket (or TCP), accepts experiment plans
// from `hilab --connect` clients over the hiserve wire protocol, dedups
// overlapping cells across all connected clients by content identity,
// and shards the resulting jobs across a pool of forked worker
// processes sharing one on-disk result cache.  Worker crashes and
// timeouts are retried with exponential backoff; SIGTERM drains
// gracefully.  The shared result cache is the only recovery log: a
// SIGKILLed daemon's successor on the same cache serves every finished
// cell from disk, so a client's resubmission re-simulates only the
// cells that never finished.
//
//   hiserved --socket /tmp/hiserve.sock [--workers N]
//            [--cache-dir DIR | --no-cache] [--job-timeout SEC]
//            [--max-retries N] [--backoff-ms N] [--stats-file FILE]
//            [--client-queue-max BYTES] [--chaos-kill-assign N] [--quiet]
//   hiserved --tcp HOST:PORT ...
//
// Exit codes: 0 = drained cleanly, 1 = runtime error, 2 = usage.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "parse_int.hpp"
#include "serve/service.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH | --tcp HOST:PORT [options]\n"
      "options:\n"
      "  --socket PATH        listen on a Unix-domain socket\n"
      "  --tcp HOST:PORT      listen on TCP instead\n"
      "  --workers N          forked worker processes (default 2)\n"
      "  --cache-dir DIR      shared result cache (default .hilab-cache)\n"
      "  --no-cache           disable the shared on-disk cache\n"
      "  --job-timeout SEC    per-job wall-clock budget (default 600, 0=off)\n"
      "  --max-retries N      crash/timeout re-dispatches per job (default 2)\n"
      "  --backoff-ms N       base retry backoff, doubled per attempt "
      "(default 200)\n"
      "  --stats-file FILE    write service stats JSON on exit\n"
      "  --client-queue-max BYTES   drop clients whose outbound queue\n"
      "                       exceeds this (default 8388608)\n"
      "  --chaos-kill-assign N  SIGKILL the worker handling the Nth job\n"
      "                       assignment (test hook for the retry path)\n"
      "  --quiet              suppress the stderr event log\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hidisc::serve::ServeOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    const auto int_value = [&](int min) {
      return hidisc::cli::parse_int<int>(arg, value(), min);
    };
    try {
      if (arg == "--socket") opt.endpoint = value();
      else if (arg == "--tcp") opt.endpoint = "tcp:" + value();
      else if (arg == "--workers") opt.workers = int_value(1);
      else if (arg == "--cache-dir") opt.cache_dir = value();
      else if (arg == "--no-cache") opt.cache_dir.clear();
      else if (arg == "--job-timeout") opt.job_timeout_s = int_value(0);
      else if (arg == "--max-retries") opt.max_retries = int_value(0);
      else if (arg == "--backoff-ms") opt.backoff_ms = int_value(1);
      else if (arg == "--stats-file") opt.stats_file = value();
      else if (arg == "--client-queue-max")
        opt.client_queue_max =
            hidisc::cli::parse_int<std::size_t>(arg, value(), 1);
      else if (arg == "--chaos-kill-assign")
        opt.chaos_kill_at_assign =
            hidisc::cli::parse_int<std::uint64_t>(arg, value(), 1);
      else if (arg == "--quiet") opt.quiet = true;
      else if (arg == "--help" || arg == "-h") return usage(argv[0]);
      else throw std::runtime_error("unknown option: " + arg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hiserved: %s\n", e.what());
      return usage(argv[0]);
    }
  }
  if (opt.endpoint.empty()) return usage(argv[0]);

  try {
    return hidisc::serve::serve_main(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hiserved: %s\n", e.what());
    return 1;
  }
}
