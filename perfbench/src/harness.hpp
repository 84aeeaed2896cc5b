// The measurement harness shared by the four workloads.
//
// One process runs one workload once:
//
//   1. repetitions until the next one would end past --seconds. Each is a
//      set-up sample -- the mean over a fixed batch of consecutive set-ups
//      (a batch keeps millisecond and microsecond set-ups above the clock
//      and scheduler granularity; the batch size is a constant of the
//      workload, so both sides of an A/B time the same span) -- followed by
//      the workload's timed solution on the state the set-up built. The
//      set-up samples thus span the same stretch of time as the solutions.
//      In a traced run the repetitions alternate untraced / traced, so the
//      tracing overhead is measured in the same process. The host probe
//      (probe.hpp) runs before the first repetition and after each one, and
//      every time is also kept divided by the host's slowdown over it;
//   2. replays (traced run only): calls repeated through a lower public API
//      to split a layer's time, labelled as replays.
//
// Every output check is a counted operation. The process writes one JSON
// document to stdout; perfbench/run.py turns it into the benchmark result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "probe.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t jobs = 2;      ///< hunt's SweepRunner workers
  std::string spec;          ///< hunt spec file
};

class Harness {
 public:
  explicit Harness(Options options);

  const Options& options() const { return options_; }

  /// Records one checked operation; returns `ok`. The first few failure
  /// messages are kept for the report.
  bool check(bool ok, const std::string& what);

  /// Per-layer values the program reports (counts, residuals, sizes).
  /// Setting a key twice keeps the last value; `expect_same` additionally
  /// counts a checked operation asserting the value repeats.
  void value(const std::string& name, double v);
  void expect_same(const std::string& name, double v);

  /// Folds `bits` into the repetition's fingerprint: a digest of the
  /// outputs that must repeat exactly in every repetition, for the same
  /// seed in every process, and for hunt at any --jobs.
  void fingerprint(std::uint64_t bits);
  void fingerprint(double v);

  /// Runs the repetitions: `batch` calls of `setup_once()`, recorded as
  /// one set-up sample in seconds per set-up, then `rep(traced)`, which
  /// returns the seconds of its timed section, measured with timed().
  /// The host probe runs before the first repetition and after each one;
  /// `part` is the probe part the timed sections are normalized by.
  template <typename S, typename R>
  void measure(std::size_t batch, HostProbe::Part part, S&& setup_once,
               R&& rep) {
    setup_batch_ = batch;
    probe_part_ = part;
    const double start = now_s();
    std::vector<double> rep_lengths;
    probes_.push_back(probe_.run());
    for (std::size_t k = 0;; ++k) {
      const double t0 = now_s();
      begin_run("setup", options_.trace);
      for (std::size_t b = 0; b < batch; ++b) setup_once();
      const double setup = (now_s() - t0) / double(batch);
      const bool traced = options_.trace && k % 2 == 1;
      begin_run("rep", traced);
      const double t = rep(traced);
      rep_lengths.push_back(now_s() - t0);
      end_fingerprint(k);
      Tracer::instance().set_enabled(false);
      probes_.push_back(probe_.run());
      // The first repetition warms up: the process faults in its heap and
      // the caches fill. Its outputs are checked; its times are not kept.
      if (k > 0) record(setup, t, traced);
      if (k + 1 == kMinReps) peak_rss_mb_ = peak_rss_mb();
      const bool enough =
          options_.trace ? !wall_s_.empty() && !wall_traced_s_.empty()
                         : wall_s_.size() >= kMinReps;
      if (enough && now_s() - start + median(rep_lengths) > options_.seconds) {
        break;
      }
    }
  }

  /// Runs `f` as the timed section of a repetition, inside a root
  /// "solve" span, and returns its wall time.
  template <typename F>
  double timed(F&& f) {
    const double t0 = now_s();
    {
      Span solve("solve");
      f();
    }
    return now_s() - t0;
  }

  /// Runs `f` with tracing on under a run labelled "replay".
  template <typename F>
  void replay(F&& f) {
    begin_run("replay", true);
    f();
    Tracer::instance().set_enabled(false);
  }

  bool failed() const { return failed_ > 0; }

  /// Writes the JSON document (CPU time read at this point). Its peak RSS
  /// is read after the first kMinReps repetitions: the allocator's heap
  /// keeps growing a little over each rebuild, and how many rebuilds fit
  /// in a run depends on the host's speed.
  void write(std::ostream& os) const;

  static double median(std::vector<double> v);
  /// Peak resident memory of the process (VmHWM), less the host probe's
  /// buffers.
  double peak_rss_mb() const;

 private:
  static constexpr std::size_t kMinReps = 3;

  void begin_run(const char* label, bool traced);
  /// Keeps one repetition's raw and normalized times; the probes before
  /// and after it are the last two.
  void record(double setup, double wall, bool traced);
  /// Closes repetition k's digest: the first is kept, every later one must
  /// equal it (a checked operation).
  void end_fingerprint(std::size_t k);

  Options options_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, double> values_;
  static constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
  std::uint64_t digest_ = kFnvBasis;       // current repetition
  std::uint64_t fingerprint_ = kFnvBasis;  // first repetition
  std::size_t setup_batch_ = 1;
  std::vector<double> setup_s_;
  std::vector<double> wall_s_;
  std::vector<double> wall_traced_s_;
  HostProbe probe_;
  HostProbe::Part probe_part_ = HostProbe::kWhole;
  std::vector<HostProbe::Sample> probes_;  // one more than repetitions
  std::vector<double> setup_norm_s_;       // every repetition's set-up
  std::vector<double> wall_norm_s_;        // untraced repetitions only
  std::vector<double> slowdown_;           // of wall_norm_s_
  double peak_rss_mb_ = 0.0;  // after kMinReps repetitions
  std::vector<std::string> run_labels_{""};  // run 0 is unused
};

/// A workload: runs everything through the harness.
using Workload = void (*)(Harness&);

void run_certify(Harness& h);
void run_des_fairshare(Harness& h);
void run_closed_loop(Harness& h);
void run_hunt(Harness& h);

}  // namespace perfbench
