// End-to-end hiserve test: a real hiserved daemon (forked + exec'd from
// HISERVED_PATH), two concurrent clients submitting the same plan, a
// worker SIGKILLed mid-run via the daemon's chaos hook, and a warm
// re-submission — asserting the acceptance criteria directly:
//
//   * both clients' merged Results are bit-identical to a local
//     lab::run_plan of the same plan,
//   * the chaos kill shows up as a retry (and a worker restart), not a
//     failure,
//   * the overlapping submissions are deduplicated across clients
//     (dedup_hits > 0, and strictly fewer jobs ran than cells were
//     requested),
//   * a warm re-submission simulates zero cells,
//
// all read from the service stats JSON endpoint over the wire.  A second
// scenario SIGKILLs the daemon mid-plan and restarts it on the same
// cache: the client reconnects and resubmits, and the successor
// re-simulates only the cells with no result on disk.
#include <gtest/gtest.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "lab/plan.hpp"
#include "lab/runner.hpp"
#include "lab/serialize.hpp"
#include "serve/client.hpp"
#include "serve/worker.hpp"

namespace fs = std::filesystem;

namespace {

using namespace hidisc;

#ifndef HISERVED_PATH
#error "HISERVED_PATH must be defined by the build"
#endif

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/hiserve-e2e-XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// A running daemon, SIGTERMed and reaped on destruction.
class Daemon {
 public:
  Daemon(const std::string& sock, const std::string& cache_dir,
         const std::vector<std::string>& extra_args = {}) {
    std::vector<std::string> args = {HISERVED_PATH, "--socket", sock,
                                     "--workers",   "2",        "--quiet"};
    if (!cache_dir.empty()) {
      args.push_back("--cache-dir");
      args.push_back(cache_dir);
    } else {
      args.push_back("--no-cache");
    }
    for (const auto& a : extra_args) args.push_back(a);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, HISERVED_PATH, nullptr, nullptr,
                                 argv.data(), nullptr);
    EXPECT_EQ(rc, 0) << "posix_spawn " << HISERVED_PATH;
    if (rc != 0) pid_ = -1;
  }

  // SIGTERM drain; returns the daemon's exit status (wait result).
  int stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

  // Simulated crash: SIGKILL with no drain, reaped immediately.
  void kill9() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

serve::PlanRequest test_request() {
  serve::PlanRequest req;
  req.plan = "fig10";
  req.scale = "test";
  return req;
}

// Pulls one stats counter out of the service stats JSON without a JSON
// parser: the emitter writes flat `"name": value` pairs.
std::uint64_t stat(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\": ";
  const auto pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing stat " << name << "\n" << json;
  if (pos == std::string::npos) return ~0ull;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

void expect_identical_to_local(const lab::PlanRun& remote,
                               const lab::PlanRun& local) {
  ASSERT_EQ(remote.cells.size(), local.cells.size());
  for (std::size_t i = 0; i < local.cells.size(); ++i) {
    ASSERT_TRUE(remote.cells[i].ok()) << "cell " << i << ": "
                                      << remote.cells[i].error;
    EXPECT_TRUE(lab::results_identical(remote.cells[i].result,
                                       local.cells[i].result))
        << "cell " << i << " diverged from local run";
    EXPECT_EQ(remote.cells[i].key, local.cells[i].key) << "cell " << i;
  }
}

TEST(ServeE2E, TwoClientsChaosKillAndWarmRerun) {
  TempDir dir;
  const std::string sock = dir.path + "/s.sock";
  const std::string cache = dir.path + "/cache";

  // The ground truth: the same plan run locally, no cache.
  const serve::PlanRequest req = test_request();
  const lab::ExperimentPlan plan = serve::materialize_plan(req);
  lab::RunOptions lopt;
  lopt.threads = 2;
  lopt.cache_dir.clear();
  const lab::PlanRun local = lab::run_plan(plan, lopt);
  ASSERT_TRUE(local.ok());

  // Daemon with the chaos hook armed: the worker holding the 3rd job
  // assignment is SIGKILLed mid-run, forcing the crash -> retry path.
  Daemon daemon(sock, cache, {"--chaos-kill-assign", "3"});

  // Two clients submit the same plan concurrently from separate threads
  // (each opens its own connection, like two hilab processes would).
  serve::ConnectedRun runs[2];
  std::string errors[2];
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i)
    clients.emplace_back([&, i] {
      try {
        serve::ClientOptions copt;
        copt.endpoint = sock;
        runs[i] = serve::run_plan_connected(req, plan, copt);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  for (auto& t : clients) t.join();
  ASSERT_TRUE(errors[0].empty()) << errors[0];
  ASSERT_TRUE(errors[1].empty()) << errors[1];

  // Bit-identical merged results for both clients, despite the kill.
  expect_identical_to_local(runs[0].run, local);
  expect_identical_to_local(runs[1].run, local);

  const std::string stats1 = serve::fetch_service_stats(sock);
  // The chaos kill surfaced as a retry and a worker restart, not a
  // failure...
  EXPECT_GE(stat(stats1, "retries"), 1u) << stats1;
  EXPECT_GE(stat(stats1, "worker_restarts"), 1u) << stats1;
  EXPECT_EQ(stat(stats1, "jobs_failed"), 0u) << stats1;
  EXPECT_EQ(stat(stats1, "cells_failed"), 0u) << stats1;
  // ...and the overlapping submissions shared jobs across clients: the
  // daemon ran one job per distinct cell, not one per requested cell.
  EXPECT_GE(stat(stats1, "dedup_hits"), 1u) << stats1;
  EXPECT_GE(stat(stats1, "cross_client_shared_jobs"), 1u) << stats1;
  EXPECT_EQ(stat(stats1, "jobs_done"), plan.cells.size()) << stats1;
  EXPECT_EQ(stat(stats1, "cells_total"), 2 * plan.cells.size()) << stats1;

  // Warm re-submission: everything is served from the daemon's completed
  // memo (or the shared disk cache) — zero new simulations.
  {
    serve::ClientOptions copt;
    copt.endpoint = sock;
    const serve::ConnectedRun warm = serve::run_plan_connected(req, plan, copt);
    expect_identical_to_local(warm.run, local);
    EXPECT_EQ(warm.run.simulated, 0u);
    EXPECT_EQ(warm.run.cache_hits, plan.cells.size());
  }
  const std::string stats2 = serve::fetch_service_stats(sock);
  EXPECT_EQ(stat(stats2, "jobs_done"), plan.cells.size()) << stats2;
  EXPECT_EQ(stat(stats2, "plans_completed"), 3u) << stats2;

  // Orderly drain on SIGTERM.
  const int status = daemon.stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// A second daemon against the same cache directory serves the whole plan
// from disk: the multi-process-safe ResultCache is the cross-daemon
// layer of the result store.
TEST(ServeE2E, FreshDaemonServesFromSharedDiskCache) {
  TempDir dir;
  const std::string cache = dir.path + "/cache";
  const serve::PlanRequest req = test_request();
  const lab::ExperimentPlan plan = serve::materialize_plan(req);

  {
    const std::string sock = dir.path + "/s1.sock";
    Daemon d1(sock, cache);
    serve::ClientOptions copt;
    copt.endpoint = sock;
    const auto cold = serve::run_plan_connected(req, plan, copt);
    EXPECT_EQ(cold.run.simulated, plan.cells.size());
    d1.stop();
  }
  {
    const std::string sock = dir.path + "/s2.sock";
    Daemon d2(sock, cache);
    serve::ClientOptions copt;
    copt.endpoint = sock;
    const auto warm = serve::run_plan_connected(req, plan, copt);
    EXPECT_EQ(warm.run.simulated, 0u);
    EXPECT_EQ(warm.run.cache_hits, plan.cells.size());
    const std::string stats = serve::fetch_service_stats(sock);
    EXPECT_EQ(stat(stats, "disk_cache_hits"), plan.cells.size()) << stats;
    d2.stop();
  }
}

// Submitting an unknown plan name is a per-request error: the daemon
// answers with an Error frame naming the known plans and stays up.
TEST(ServeE2E, UnknownPlanIsAnErrorFrameNotACrash) {
  TempDir dir;
  const std::string sock = dir.path + "/s.sock";
  Daemon daemon(sock, "");

  serve::PlanRequest bad;
  bad.plan = "no-such-plan";
  lab::ExperimentPlan empty;
  serve::ClientOptions copt;
  copt.endpoint = sock;
  try {
    (void)serve::run_plan_connected(bad, empty, copt);
    FAIL() << "unknown plan should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown plan"), std::string::npos)
        << e.what();
  }

  // The daemon survived and still serves good plans.
  const serve::PlanRequest req = test_request();
  const lab::ExperimentPlan plan = serve::materialize_plan(req);
  const auto run = serve::run_plan_connected(req, plan, copt);
  EXPECT_TRUE(run.run.ok());
  const int status = daemon.stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// Crash recovery is the shared result cache: SIGKILL the daemon mid-plan,
// start a fresh daemon on the same socket + cache (exercising stale-socket
// replacement), and let the same client ride through it.  The client must
// reconnect and resubmit; the successor must serve every cell whose
// result reached the disk before the kill from the cache instead of
// re-simulating it; the merged results must be bit-identical to a local
// run.
TEST(ServeE2E, KillRestartResubmit) {
  TempDir dir;
  const std::string sock = dir.path + "/s.sock";
  const std::string cache = dir.path + "/cache";
  const serve::PlanRequest req = test_request();
  const lab::ExperimentPlan plan = serve::materialize_plan(req);
  lab::RunOptions lopt;
  lopt.threads = 2;
  lopt.cache_dir.clear();
  const lab::PlanRun local = lab::run_plan(plan, lopt);
  ASSERT_TRUE(local.ok());

  // One worker, so the plan is still in flight when the axe falls.
  Daemon first(sock, cache, {"--workers", "1"});

  serve::ConnectedRun run;
  std::string error;
  std::thread client([&] {
    try {
      serve::ClientOptions copt;
      copt.endpoint = sock;
      copt.max_reconnects = 25;
      run = serve::run_plan_connected(req, plan, copt);
    } catch (const std::exception& e) {
      error = e.what();
    }
  });

  // Wait until at least 3 results are on disk, then SIGKILL.
  const auto results_on_disk = [&] {
    std::size_t n = 0;
    std::error_code ec;
    for (fs::directory_iterator it(cache, ec), end; !ec && it != end;
         it.increment(ec))
      if (it->path().extension() == ".result") ++n;
    return n;
  };
  for (int waited = 0; results_on_disk() < 3 && waited < 60000; waited += 50)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  first.kill9();
  const std::size_t on_disk = results_on_disk();
  ASSERT_GE(on_disk, 3u) << "plan never reached the cache";
  ASSERT_LT(on_disk, plan.cells.size()) << "plan finished before the kill";

  // A fresh daemon on the same socket path (stale file, no live
  // listener -> replaced) and the same cache.
  Daemon second(sock, cache);
  client.join();
  ASSERT_TRUE(error.empty()) << error;

  expect_identical_to_local(run.run, local);
  EXPECT_EQ(run.run.failed, 0u);
  EXPECT_GE(run.reconnects, 1u);

  // The successor simulated only the cells with no result on disk at
  // the kill; every result that was on disk came back as a cache hit.
  const std::string stats = serve::fetch_service_stats(sock);
  const std::string lat = "\"cell_latency_ms\": {\"count\": ";
  const auto pos = stats.find(lat);
  ASSERT_NE(pos, std::string::npos) << stats;
  const std::uint64_t simulated =
      std::strtoull(stats.c_str() + pos + lat.size(), nullptr, 10);
  EXPECT_LE(simulated, plan.cells.size() - on_disk) << stats;
  EXPECT_GE(stat(stats, "disk_cache_hits"), on_disk) << stats;
  EXPECT_EQ(stat(stats, "jobs_failed"), 0u) << stats;
  EXPECT_EQ(stat(stats, "cells_failed"), 0u) << stats;

  const int status = second.stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
