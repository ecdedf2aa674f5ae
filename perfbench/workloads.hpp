// The four workloads. Each fills the report with every end-to-end metric
// (untraced run) or the per-layer metrics it exercises (traced run), runs
// its output checks and counts attempted / failed operations.
#pragma once

#include "core/pipeline.hpp"
#include "harness.hpp"

namespace perfbench {

void run_batch_freeboard(const Options& opt, Report& report);
void run_serve_cold(const Options& opt, Report& report);
void run_serve_zipf(const Options& opt, Report& report);
void run_train_dist(const Options& opt, Report& report);

/// Bit-for-bit equality of two freeboard job results (points, mean
/// freeboard, histogram): the batch workload's output check.
bool same_job_result(const is2::core::FreeboardJobStats& a, const is2::core::FreeboardJobStats& b);

}  // namespace perfbench
