#include "campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "h5lite/granule_io.hpp"
#include "label/autolabel.hpp"
#include "mapred/engine.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "pipeline/product_builder.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace is2;

namespace {

/// Windows kept for training and serving-model fits: enough for the
/// trainer to reach its accuracy bound, small enough to train in seconds.
constexpr std::size_t kWindowCap = 40'000;
/// Raw feature rows the decision-tree backend is fitted on.
constexpr std::size_t kTreeRows = 20'000;

void save_raster(const s2::ClassRaster& raster, const std::string& path) {
  h5::File f;
  f.put<std::uint8_t>("/raster/labels", raster.data(), {raster.rows(), raster.cols()});
  f.set_attr("/raster/x0", raster.transform().x0);
  f.set_attr("/raster/y0", raster.transform().y0);
  f.set_attr("/raster/pixel", raster.transform().pixel);
  f.save(path);
}

s2::ClassRaster load_raster(const std::string& path) {
  const h5::File f = h5::File::load(path);
  const auto shape = f.shape("/raster/labels");
  s2::GeoTransform gt{f.attr_double("/raster/x0"), f.attr_double("/raster/y0"),
                      f.attr_double("/raster/pixel")};
  s2::ClassRaster raster(shape[0], shape[1], gt);
  raster.data() = f.get<std::uint8_t>("/raster/labels");
  return raster;
}

std::string raster_path(const fs::path& dir, std::size_t k) {
  return (dir / ("raster" + std::to_string(k) + ".h5l")).string();
}

void generate(const core::PipelineConfig& config, const fs::path& dir) {
  std::fprintf(stderr, "[perfbench] simulating campaign into %s ...\n", dir.c_str());
  fs::create_directories(dir);
  const core::Campaign campaign(config);
  core::ShardSet shards;
  std::vector<geo::Xy> drifts;
  for (std::size_t k = 0; k < campaign.pairs().size(); ++k) {
    const core::PairDataset pair = campaign.generate(k);
    core::write_shards(pair.granule, k, config.chunks_per_beam, dir.string(), shards);
    save_raster(pair.s2_labels, raster_path(dir, k));
    drifts.push_back(pair.pair.true_drift());
  }
  const fs::path manifest = dir / "MANIFEST";
  {
    std::ofstream out(manifest.string() + ".tmp");
    out << shards.files.size() << "\n";
    for (std::size_t i = 0; i < shards.files.size(); ++i)
      out << fs::path(shards.files[i]).filename().string() << " " << shards.pair_of_file[i]
          << "\n";
    for (const auto& d : drifts) out << std::setprecision(17) << d.x << " " << d.y << "\n";
    if (!out) throw std::runtime_error("perfbench: cannot write " + manifest.string());
  }
  fs::rename(manifest.string() + ".tmp", manifest);
}

/// Auto-label one shard exactly as the Table II job's reduce step does.
label::LabeledBeam label_shard(const CampaignData& c, const pipeline::ProductBuilder& builder,
                               std::size_t i) {
  const atl03::Granule shard = h5::load_granule(c.shards.files[i]);
  pipeline::Artifacts art = pipeline::Artifacts::from_beam(shard, shard.beams.at(0));
  builder.run_until(art, pipeline::StageId::fpb);
  const std::size_t pair = c.shards.pair_of_file[i];
  label::AutoLabelConfig al = c.config.autolabel;
  if (al.feature_gap_m < 0.0) al.feature_gap_m = c.config.segmenter.window_m * 1.5;
  al.seed = c.config.seed ^ util::hash64(i * 31 + 5);
  al.overlay.shift = c.drifts[pair];
  return label::auto_label(c.rasters[pair], art.take_segments(), al);
}

/// Deterministic evenly strided subset of [0, n) of size min(n, cap).
std::vector<std::size_t> strided(std::size_t n, std::size_t cap) {
  const std::size_t m = std::min(n, cap);
  std::vector<std::size_t> idx(m);
  for (std::size_t i = 0; i < m; ++i) idx[i] = i * n / m;
  return idx;
}

}  // namespace

core::PipelineConfig campaign_config() {
  core::PipelineConfig config = core::PipelineConfig::standard();
  config.seed = kCampaignSeed;
  return config;
}

nn::Sequential make_model(const core::PipelineConfig& config) {
  util::Rng rng(config.seed ^ 0x5EEDull);
  return nn::make_lstm_model(config.sequence_window, resample::FeatureRow::kDim, rng);
}

double macs_per_window(nn::Sequential& model, std::size_t time_steps) {
  double macs = 0.0;
  for (const auto& p : model.params()) {
    const auto n = static_cast<double>(p.value->size());
    if (p.name == "w") macs += n;
    if (p.name == "wx" || p.name == "wh") macs += n * static_cast<double>(time_steps);
  }
  return macs;
}

CampaignData load_or_generate_campaign(const std::string& data_dir) {
  CampaignData data;
  data.config = campaign_config();
  const core::Campaign campaign(data.config);
  data.corrections = campaign.corrections();

  char name[96];
  std::snprintf(name, sizeof name, "campaign_L%.0f_c%zu_s%llu", data.config.track_length_m,
                data.config.chunks_per_beam, static_cast<unsigned long long>(kCampaignSeed));
  const fs::path dir = fs::path(data_dir) / name;
  data.dir = dir.string();
  if (!fs::exists(dir / "MANIFEST")) generate(data.config, dir);

  std::ifstream in(dir / "MANIFEST");
  std::size_t n_files = 0;
  in >> n_files;
  for (std::size_t i = 0; i < n_files; ++i) {
    std::string file;
    std::size_t pair = 0;
    in >> file >> pair;
    data.shards.files.push_back((dir / file).string());
    data.shards.pair_of_file.push_back(pair);
  }
  for (std::size_t k = 0; k < campaign.pairs().size(); ++k) {
    double dx = 0.0, dy = 0.0;
    in >> dx >> dy;
    data.drifts.push_back({dx, dy});
    data.rasters.push_back(load_raster(raster_path(dir, k)));
  }
  if (!in || n_files == 0) throw std::runtime_error("perfbench: corrupt manifest in " + data.dir);
  for (const auto& f : data.shards.files)
    for (const auto& b : h5::read_granule_meta(f).beams) data.photons += b.n_photons;
  return data;
}

LabeledWindows load_or_build_windows(const CampaignData& c) {
  const fs::path path = fs::path(c.dir) / "labels.h5l";
  constexpr std::size_t kDim = resample::FeatureRow::kDim;
  LabeledWindows out;
  if (!fs::exists(path)) {
    std::fprintf(stderr, "[perfbench] labeling campaign windows ...\n");
    const pipeline::ProductBuilder builder(c.config, c.corrections);
    mapred::Engine engine({1, 4});
    const std::vector<label::LabeledBeam> beams = engine.run_stage<label::LabeledBeam>(
        c.shards.files.size(), [&](std::size_t i) { return label_shard(c, builder, i); });

    std::vector<resample::FeatureRow> all_rows;
    for (const auto& lb : beams) all_rows.insert(all_rows.end(), lb.features.begin(),
                                                 lb.features.end());
    const resample::FeatureScaler scaler = resample::FeatureScaler::fit(all_rows);

    std::vector<std::vector<float>> feat;
    std::vector<std::vector<std::uint8_t>> labels;
    std::vector<float> raw_x;
    std::vector<std::uint8_t> raw_y;
    for (const auto& lb : beams) {
      std::vector<float> f;
      std::vector<std::uint8_t> y;
      for (std::size_t i = 0; i < lb.features.size(); ++i) {
        for (std::size_t d = 0; d < kDim; ++d) {
          f.push_back((lb.features[i].v[d] - scaler.mean[d]) / scaler.std[d]);
          if (lb.labels[i] != atl03::SurfaceClass::Unknown) raw_x.push_back(lb.features[i].v[d]);
        }
        y.push_back(static_cast<std::uint8_t>(lb.labels[i]));
        if (lb.labels[i] != atl03::SurfaceClass::Unknown)
          raw_y.push_back(static_cast<std::uint8_t>(lb.labels[i]));
      }
      feat.push_back(std::move(f));
      labels.push_back(std::move(y));
    }
    nn::WindowedData windows =
        nn::make_windows(feat, labels, kDim, c.config.sequence_window, /*keep_unknown=*/false);
    // Shuffle once (fixed seed) so any prefix is a fair sample, then cap.
    std::vector<std::size_t> order(windows.data.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    util::Rng rng(c.config.seed ^ 0x1ABE1ull);
    rng.shuffle(order);
    order.resize(std::min(order.size(), kWindowCap));
    const nn::Dataset capped = windows.data.subset(order);

    std::vector<float> tree_x;
    std::vector<std::uint8_t> tree_y;
    for (const std::size_t r : strided(raw_y.size(), kTreeRows)) {
      tree_x.insert(tree_x.end(), raw_x.begin() + static_cast<std::ptrdiff_t>(r * kDim),
                    raw_x.begin() + static_cast<std::ptrdiff_t>((r + 1) * kDim));
      tree_y.push_back(raw_y[r]);
    }

    h5::File f;
    f.put<float>("/windows/x", capped.x.v, {capped.x.n, capped.x.t, capped.x.d});
    f.put<std::uint8_t>("/windows/y", capped.y);
    f.put<float>("/scaler/mean", std::span<const float>(scaler.mean, kDim));
    f.put<float>("/scaler/std", std::span<const float>(scaler.std, kDim));
    f.put<float>("/tree/x", tree_x);
    f.put<std::uint8_t>("/tree/y", tree_y);
    f.save(path.string());
  }

  const h5::File f = h5::File::load(path.string());
  const auto shape = f.shape("/windows/x");
  out.windows.x = nn::Tensor3(shape.at(0), shape.at(1), shape.at(2));
  out.windows.x.v = f.get<float>("/windows/x");
  out.windows.y = f.get<std::uint8_t>("/windows/y");
  const auto mean = f.get<float>("/scaler/mean");
  const auto stdv = f.get<float>("/scaler/std");
  if (mean.size() != kDim || stdv.size() != kDim || out.windows.y.size() != shape.at(0))
    throw std::runtime_error("perfbench: corrupt " + path.string());
  std::copy(mean.begin(), mean.end(), out.scaler.mean);
  std::copy(stdv.begin(), stdv.end(), out.scaler.std);
  out.tree_x = f.get<float>("/tree/x");
  out.tree_y = f.get<std::uint8_t>("/tree/y");
  return out;
}

nn::Sequential load_or_train_serve_model(const CampaignData& c, const LabeledWindows& labeled) {
  const fs::path path = fs::path(c.dir) / "serve_model.h5l";
  nn::Sequential model = make_model(c.config);
  if (fs::exists(path)) {
    nn::load_weights(model, path.string());
    return model;
  }
  std::fprintf(stderr, "[perfbench] training the serving model ...\n");
  const nn::Dataset train = labeled.windows.subset(strided(labeled.windows.size(), 16'000));
  nn::Adam adam(0.003);
  nn::FocalLoss loss(2.0, nn::FocalLoss::balanced_alpha(train.y));
  nn::FitConfig fit;
  fit.epochs = 4;
  fit.batch_size = 32;
  model.fit(train, loss, adam, fit);
  nn::save_weights(model, path.string());  // h5lite saves atomically
  return model;
}

}  // namespace perfbench
