#include "fuzz/campaign.hpp"

#include <algorithm>
#include <cctype>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <mutex>
#include <ostream>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "fuzz/corpus.hpp"
#include "fuzz/shrink.hpp"
#include "isa/assembler.hpp"

namespace hidisc::fuzz {
namespace {

// Strips characters that do not belong in a filename.
std::string sanitize(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_')
      out.push_back(c);
    else
      out.push_back('-');
  }
  return out;
}

std::size_t assembled_size(const std::string& source) {
  try {
    return isa::assemble(source).code.size();
  } catch (...) {
    return 0;
  }
}

// One generated and checked kernel, as a worker hands it to the commit.
struct Run {
  std::uint64_t kernel_seed = 0;
  Kernel kernel;
  OracleReport report;
  std::exception_ptr error;  // thrown by generate or run_oracles
  bool ready = false;
};

// Generates and checks runs [0, opt.runs) on `workers` threads, in claim
// order, at most 4 x workers runs ahead of the commit cursor.  take(i)
// waits for run i and hands it over; runs must be taken in index order.
// The destructor stops the workers once their current run is done, so work
// past a stop is dropped.
class RunAhead {
 public:
  RunAhead(const CampaignOptions& opt, int workers)
      : opt_(opt),
        window_(static_cast<int>(
            std::min<long long>(4LL * workers, opt.runs))),
        slots_(static_cast<std::size_t>(window_)) {
    try {
      for (int w = 0; w < workers; ++w)
        threads_.emplace_back([this] { work(); });
    } catch (...) {
      stop();
      throw;
    }
  }
  RunAhead(const RunAhead&) = delete;
  RunAhead& operator=(const RunAhead&) = delete;
  ~RunAhead() { stop(); }

  Run take(int i) {
    Run run;
    {
      std::unique_lock lk(mu_);
      Run& slot = slots_[static_cast<std::size_t>(i % window_)];
      ready_.wait(lk, [&] { return slot.ready; });
      run = std::exchange(slot, Run{});
      committed_ = i + 1;
    }
    claimable_.notify_one();
    return run;
  }

 private:
  void work() {
    std::unique_lock lk(mu_);
    for (;;) {
      claimable_.wait(lk, [&] {
        return stopping_ || next_ >= opt_.runs || next_ - committed_ < window_;
      });
      if (stopping_ || next_ >= opt_.runs) return;
      const int i = next_++;
      lk.unlock();
      Run run;
      run.kernel_seed = derive_seed(opt_.seed, static_cast<std::uint64_t>(i));
      try {
        KernelGen gen(run.kernel_seed);
        run.kernel = gen.generate_random(opt_.limits);
        run.report = run_oracles(to_source(run.kernel), opt_.oracle);
      } catch (...) {
        run.error = std::current_exception();
      }
      run.ready = true;
      lk.lock();
      slots_[static_cast<std::size_t>(i % window_)] = std::move(run);
      ready_.notify_one();
    }
  }

  void stop() {
    {
      const std::lock_guard lk(mu_);
      stopping_ = true;
    }
    claimable_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  const CampaignOptions& opt_;
  const int window_;
  std::mutex mu_;
  std::condition_variable claimable_;  // workers: next_ may be claimed
  std::condition_variable ready_;      // commit: a slot was filled
  std::vector<Run> slots_;             // run i lives in slot i % window_
  int next_ = 0;                       // next index to claim
  int committed_ = 0;                  // runs below this were taken; <= next_
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

int worker_count(const CampaignOptions& opt) {
  if (opt.threads < 0)
    throw std::invalid_argument("CampaignOptions::threads must be >= 0");
  int n = opt.threads;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::min(n, opt.runs);
}

// Counts, deduplicates, narrates, shrinks and records run i.  Returns true
// when the campaign stops here.
bool commit(const CampaignOptions& opt, int i, const Run& run,
            CampaignResult& res, std::set<std::string>& seen) {
  const OracleReport& rep = run.report;
  ++res.runs_done;
  res.dynamic_instructions += rep.dynamic_instructions;
  if (rep.ok()) {
    if (opt.log && (i + 1) % 200 == 0)
      *opt.log << "[hifuzz] " << (i + 1) << "/" << opt.runs
               << " runs clean\n";
    return false;
  }

  if (seen.count(rep.signature)) {
    ++res.duplicate_failures;
    return false;
  }
  seen.insert(rep.signature);

  CampaignFailure f;
  f.kernel_seed = run.kernel_seed;
  f.report = rep;
  if (opt.log)
    *opt.log << "[hifuzz] FAILURE run " << i << " seed " << run.kernel_seed
             << " stage " << stage_name(rep.stage) << " sig "
             << rep.signature << ": " << rep.detail << "\n";

  Kernel minimized = run.kernel;
  if (opt.shrink) {
    ShrinkOptions so;
    so.max_evals = opt.shrink_max_evals;
    const auto outcome =
        shrink_kernel(run.kernel, opt.oracle, rep.signature, so);
    if (outcome.reproduced) minimized = outcome.kernel;
    if (opt.log)
      *opt.log << "[hifuzz]   shrunk in " << outcome.evals
               << " oracle runs\n";
  }
  f.minimized_source = to_source(minimized);
  f.minimized_instructions = assembled_size(f.minimized_source);

  if (!opt.corpus_out.empty()) {
    Repro r;
    r.name = sanitize(rep.signature) + "-" + std::to_string(run.kernel_seed);
    r.seed = run.kernel_seed;
    r.expect = rep.signature;  // flip to "ok" once the bug is fixed
    r.note = std::string("found by hifuzz; stage ") +
             stage_name(rep.stage) + "; " + rep.detail;
    r.source = f.minimized_source;
    const auto path =
        std::filesystem::path(opt.corpus_out) / (r.name + ".s");
    write_repro(path, r);
    f.repro_path = path.string();
    if (opt.log)
      *opt.log << "[hifuzz]   minimized reproducer ("
               << f.minimized_instructions << " instructions) -> "
               << f.repro_path << "\n";
  }

  res.failures.push_back(std::move(f));
  if (static_cast<int>(res.failures.size()) < opt.max_distinct_failures)
    return false;
  if (opt.log)
    *opt.log << "[hifuzz] stopping after " << res.failures.size()
             << " distinct failures\n";
  return true;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t campaign_seed,
                          std::uint64_t run_index) {
  std::uint64_t z = campaign_seed + 0x9e3779b97f4a7c15ull * (run_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

CampaignResult run_campaign(const CampaignOptions& opt) {
  CampaignResult res;
  const int workers = worker_count(opt);
  if (workers <= 0) return res;  // no runs
  std::set<std::string> seen;
  RunAhead ahead(opt, workers);
  for (int i = 0; i < opt.runs; ++i) {
    const Run run = ahead.take(i);
    if (run.error) std::rethrow_exception(run.error);
    if (commit(opt, i, run, res, seen)) break;
  }
  return res;
}

}  // namespace hidisc::fuzz
