// Correctness checks of the benchmark's workloads. Each check compares a
// program output with a value the benchmark computes on its own, or with a
// property the method must have, and returns an empty string when the
// output passes or a one-line reason when it does not. run_self_test()
// feeds every check a forged wrong value and confirms that it fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench/stream.hpp"
#include "coll/harness.hpp"
#include "model/params.hpp"
#include "model/tree_opt.hpp"
#include "serve/json.hpp"
#include "sim/config.hpp"

namespace capbench {

using capmem::bench::StreamOp;
using capmem::sim::MachineConfig;
using capmem::sim::MemKind;

/// Aggregate STREAM bandwidth of one timed iteration against the channel
/// peak of `cfg` (DDR: channels x rate; MCDRAM: EDCs x rate; cache mode:
/// both pools), allowing only the bytes the per-channel queues
/// (channel_queue_lines) can take ahead of the iteration's start.
std::string check_channel_peak(const MachineConfig& cfg, StreamOp op,
                               MemKind kind, int nthreads,
                               std::uint64_t buffer_bytes, double gbps);

/// Single-thread STREAM bandwidth against 64 B x mlp / latency per read
/// stream (each memory-sourced line occupies the thread for latency/mlp).
/// Pure store streams have no latency term and are not bounded here.
std::string check_single_thread(const MachineConfig& cfg, StreamOp op,
                                MemKind kind, double gbps);

/// Fitted cache/memory latencies against the simulator's configured
/// ground truth, with the tolerances of Fit.RecoversConfiguredGroundTruth.
std::string check_fit(const MachineConfig& cfg,
                      const capmem::model::CapabilityModel& m);

/// optimize_tree against an exhaustive search over fanouts with balanced
/// splits, and against tree_cost of the tree it returned.
std::string check_tree(const capmem::model::CapabilityModel& m, int tiles,
                       capmem::model::TreeKind kind, MemKind buffer,
                       const capmem::model::TunedTree& tuned);

/// optimize_dissemination against an exhaustive search over m in [1, n-1].
std::string check_dissemination(const capmem::model::CapabilityModel& m,
                                int n, MemKind buffer, int rounds, int peers,
                                double predicted_ns);

/// A collective run: no data errors, and a tuned median inside the
/// min-max band (0.5 x best to 2 x worst).
std::string check_collective(const capmem::coll::CollResult& r, bool tuned);

/// A sort: in order, a permutation of its input (the key checksum), and no
/// faster than reading and writing every key once per merge level (log2 of
/// the line count) at the channel peak.
std::string check_sort(bool sorted_ok, bool checksum_ok, double total_ns,
                       std::uint64_t bytes, double peak_gbps);

/// Ordinary least squares computed here, against a `fit` reply's result.
std::string check_fit_reply(const std::vector<double>& xs,
                            const std::vector<double>& ys,
                            const capmem::serve::Json& result);

/// A `predict` reply's result against the *_band functions evaluated on
/// `m` in this process.
std::string check_predict_reply(const capmem::model::CapabilityModel& m,
                                const MachineConfig& cfg,
                                const std::string& collective, int threads,
                                bool scatter, MemKind buffer,
                                const capmem::serve::Json& result);

/// One request's reply lines: exactly one, `ok`, with a result object.
std::string check_one_reply(const std::string& replies);

/// A cache-hit reply against the cold reply of the same request line.
std::string check_hit_identical(const std::string& cold,
                                const std::string& hit);

/// Runs every check on a genuine and on a forged value; prints one line per
/// check and returns 0 when each accepts the genuine and rejects the forged.
int run_self_test();

}  // namespace capbench
