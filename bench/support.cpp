#include "support.h"

#include <cstdio>
#include <stdexcept>

#include "common/stats.h"
#include "data/synthetic.h"

namespace bench {

const std::vector<Field>& paper_fields() {
  // Paper originals (SDRBench):            here (scaled stand-ins):
  //   Miranda double 384^2 x 256       ->    96^2 x 64
  //   S3D double 500^3                 ->    80^3
  //   Nyx single 512^3                 ->    96^3
  //   QMCPACK single 69^2 x 115 (x288) ->    48^2 x 40 (stack handled by callers)
  // QMCPACK is a stack of 8 orbital volumes of 48^2 x 40 (standing in for
  // the paper's 288 x 69^2 x 115): SPERR chunks per orbital; the other
  // compressors receive the whole 48^2 x 320 volume, mirroring §VI-B.
  static const std::vector<Field> fields = {
      {"CH4", "s3d_ch4", Dims{80, 80, 80}, false, {}},
      {"Temp", "s3d_temperature", Dims{80, 80, 80}, false, {}},
      {"VX1", "s3d_velocity_x", Dims{80, 80, 80}, false, {}},
      {"Press", "miranda_pressure", Dims{96, 96, 64}, false, {}},
      {"Visc", "miranda_viscosity", Dims{96, 96, 64}, false, {}},
      {"VX2", "miranda_velocity_x", Dims{96, 96, 64}, false, {}},
      {"QMC", "qmcpack_orbitals", Dims{48, 48, 320}, true, Dims{48, 48, 40}},
      {"Nyx", "nyx_dark_matter_density", Dims{96, 96, 96}, true, {}},
      {"VX3", "nyx_velocity_x", Dims{96, 96, 96}, true, {}},
  };
  return fields;
}

const Field& field_by_label(const std::string& label) {
  for (const auto& f : paper_fields())
    if (f.label == label) return f;
  throw std::invalid_argument("unknown bench field: " + label);
}

std::vector<double> load_field(const Field& f) {
  if (f.generator == "qmcpack_orbitals") {
    // A stack of per-orbital volumes along z.
    const size_t per = f.sperr_chunk.z ? f.sperr_chunk.z : f.dims.z;
    const Dims orbital_dims{f.dims.x, f.dims.y, per};
    std::vector<double> stack;
    stack.reserve(f.dims.total());
    for (size_t k = 0; k * per < f.dims.z; ++k) {
      const auto orb = sperr::data::qmcpack_orbital(orbital_dims, int(k));
      stack.insert(stack.end(), orb.begin(), orb.end());
    }
    return stack;
  }
  return sperr::data::make_field(f.generator, f.dims);
}

sperr::Config sperr_config_for(const Field& f) {
  sperr::Config cfg;
  // Dims{} default-constructs to 1x1x1, so "no preference" is total() <= 1.
  if (f.sperr_chunk.total() > 1) cfg.chunk_dims = f.sperr_chunk;
  return cfg;
}

sperr::pipeline::ChunkStream encode_field(const std::vector<double>& data, Dims dims,
                                          const sperr::Config& cfg,
                                          std::vector<sperr::outlier::Outlier>* outliers) {
  sperr::pipeline::ChunkStream cs;
  if (sperr::pipeline::encode_chunk(data.data(), dims, sperr::Chunk{{0, 0, 0}, dims}, cfg,
                                    cs, nullptr, 1, false, outliers) != sperr::Status::ok)
    throw std::invalid_argument("encode_field: input contains NaN or Inf");
  return cs;
}

const std::vector<Case>& table2_cases() {
  static const std::vector<Case> cases = {
      {"CH4-20", "CH4", 20},     {"CH4-40", "CH4", 40},
      {"Temp-20", "Temp", 20},   {"Temp-40", "Temp", 40},
      {"VX1-20", "VX1", 20},     {"VX1-40", "VX1", 40},
      {"Press-20", "Press", 20}, {"Press-40", "Press", 40},
      {"Visc-20", "Visc", 20},   {"Visc-40", "Visc", 40},
      {"VX2-20", "VX2", 20},     {"VX2-40", "VX2", 40},
      {"QMC-20", "QMC", 20},     {"Nyx-20", "Nyx", 20},
      {"VX3-20", "VX3", 20},
  };
  return cases;
}

RdPoint evaluate(const std::vector<double>& orig, const std::vector<double>& recon,
                 size_t compressed_bytes) {
  const auto q = sperr::metrics::compare(orig.data(), recon.data(), orig.size());
  RdPoint p;
  p.bpp = double(compressed_bytes) * 8.0 / double(orig.size());
  p.psnr = q.psnr;
  p.max_pwe = q.max_pwe;
  p.gain = sperr::metrics::accuracy_gain(q.sigma, q.rmse, p.bpp);
  return p;
}

void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

void print_title(const std::string& title) {
  std::printf("\n");
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

}  // namespace bench
