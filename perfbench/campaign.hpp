// Workload inputs derived from the simulated Table I campaign, cached on
// disk by scale and campaign seed. Simulating the campaign is workload
// generation, not set-up: it runs once per data directory and is excluded
// from every timed section.
//
// What lives in a campaign directory:
//  * the 96 shard files of the standard 8-pair campaign (8 granules x 3
//    strong beams x 4 along-track chunks) and the segmented S2 rasters,
//  * MANIFEST: shard list with pair index, per-pair true drift,
//  * labels.h5l: auto-labeled, standardized training windows (capped), the
//    feature scaler and raw feature rows for the decision-tree backend,
//  * serve_model.h5l: LSTM weights trained on those windows, the classifier
//    every serving workload runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/config.hpp"
#include "nn/model.hpp"
#include "resample/segmenter.hpp"

namespace perfbench {

struct CampaignData {
  is2::core::PipelineConfig config;
  is2::geo::GeoCorrections corrections;
  is2::core::ShardSet shards;
  std::vector<is2::s2::ClassRaster> rasters;  ///< segmented S2 labels per pair
  std::vector<is2::geo::Xy> drifts;           ///< true drift per pair
  std::uint64_t photons = 0;                  ///< photons over every shard
  std::string dir;
};

/// Labeled windows assembled from the campaign's auto-label output.
struct LabeledWindows {
  is2::nn::Dataset windows;                 ///< standardized [n, window, kDim]
  is2::resample::FeatureScaler scaler;
  std::vector<float> tree_x;                ///< raw centre feature rows [m * kDim]
  std::vector<std::uint8_t> tree_y;
};

/// Seed of the simulated campaign every workload and every run seed shares
/// (simulating it takes ~40 s, too long to redo per run).
inline constexpr std::uint64_t kCampaignSeed = 20191101;

/// Pipeline configuration every workload uses: the bench scale (~50 km
/// tracks, 4 chunks per beam) with kCampaignSeed swapped in.
is2::core::PipelineConfig campaign_config();

/// Load the campaign from `data_dir`, generating and persisting it first
/// when absent. Throws on unreadable or inconsistent cache contents.
CampaignData load_or_generate_campaign(const std::string& data_dir);

/// Auto-label every shard of the campaign on `engine`-sized parallelism and
/// return capped, standardized windows (cached in the campaign directory).
LabeledWindows load_or_build_windows(const CampaignData& campaign);

/// The LSTM every serving workload classifies with: trained once on the
/// campaign's windows and cached as weights.
is2::nn::Sequential load_or_train_serve_model(const CampaignData& campaign,
                                              const LabeledWindows& labeled);

/// Fresh model with the serving architecture (deterministic init).
is2::nn::Sequential make_model(const is2::core::PipelineConfig& config);

/// Forward multiply-accumulates per window, from the parameter shapes:
/// every dense weight once, the LSTM input and recurrent weights once per
/// time step.
double macs_per_window(is2::nn::Sequential& model, std::size_t time_steps);

}  // namespace perfbench
