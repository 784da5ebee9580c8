// PWE property campaign over every in-library decode entry point: each value
// a caller gets back — from decompress, decompress_tolerant under every
// policy, decompress_lowres at drop 0, outofcore::decompress_file and the
// server's DECOMPRESS replies — lies within t of the original, in the
// precision asked for (floats only for f32 containers, where the bound is
// promised for them). The inputs are the edge cases of the coder: a constant
// field, an isolated spike, a dynamic range above 2^50 (more than 50 SPECK
// bitplanes), a single voxel, a 1-D line, chunking that does not divide the
// field, f32 fields whose t is below the float spacing, and a subnormal
// field and tolerance.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "common/byteio.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sperr/outofcore.h"
#include "sperr/sperr.h"

namespace sperr {
namespace {

struct Case {
  const char* name;
  Dims dims;
  Dims chunk;
  std::vector<double> field;  ///< float-representable when `f32`
  double t;
  bool f32;
};

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  {
    Case c{"constant", {24, 20, 16}, {16, 16, 16}, {}, 1e-3, false};
    c.field.assign(c.dims.total(), 3.75);
    cases.push_back(std::move(c));
  }
  {
    Case c{"spike", {32, 32, 32}, {16, 16, 16}, {}, 1e-2, false};
    c.field.assign(c.dims.total(), 0.0);
    c.field[c.dims.index(21, 9, 14)] = 1e6;
    cases.push_back(std::move(c));
  }
  {
    // A smooth field of amplitude ~1 under a spike of 2^44, at t = 2^-8:
    // range / t is about 2^52, and t is one ulp of the spike.
    Case c{"range_2e52", {24, 24, 24}, {24, 24, 24}, {}, std::ldexp(1.0, -8), false};
    c.field = data::miranda_pressure(c.dims);
    const auto [lo, hi] = std::minmax_element(c.field.begin(), c.field.end());
    const double base = *lo, span = *hi - *lo;
    for (double& v : c.field) v = (v - base) / span;
    c.field[c.dims.index(5, 17, 11)] = std::ldexp(1.0, 44);
    cases.push_back(std::move(c));
  }
  {
    Case c{"one_voxel", {1, 1, 1}, {128, 128, 128}, {42.5}, 1e-3, false};
    cases.push_back(std::move(c));
  }
  {
    // Default chunks cut the line 7 x 128 + 104.
    Case c{"line_1d", {1000, 1, 1}, {128, 128, 128}, {}, 0.0, false};
    Rng rng(7);
    c.field.resize(c.dims.total());
    for (size_t i = 0; i < c.field.size(); ++i)
      c.field[i] = std::sin(double(i) * 0.05) * 100.0 + rng.gaussian();
    c.t = tolerance_from_idx(c.field.data(), c.field.size(), 20);
    cases.push_back(std::move(c));
  }
  {
    Case c{"nondivisible", {37, 53, 9}, {16, 16, 16}, {}, 0.0, false};
    c.field = data::miranda_pressure(c.dims);
    c.t = tolerance_from_idx(c.field.data(), c.field.size(), 30);
    cases.push_back(std::move(c));
  }
  // f32 fields of values 8e5 to 1.6e6 at idx 24: t ~ 0.049 lies between half
  // the float spacing below 2^20 (0.0625) and the spacing itself, so a
  // reconstruction within t can round to the neighbouring float.
  for (const auto& [name, dims, chunk] :
       {std::tuple{"f32_below_spacing", Dims{24, 24, 24}, Dims{24, 24, 24}},
        std::tuple{"f32_below_spacing_chunked", Dims{37, 29, 18}, Dims{16, 16, 16}}}) {
    Case c{name, dims, chunk, {}, 0.0, true};
    c.field = data::miranda_pressure(c.dims);
    for (double& v : c.field) v = double(float(v));
    c.t = tolerance_from_idx(c.field.data(), c.field.size(), 24);
    cases.push_back(std::move(c));
  }
  {
    // Every value and t subnormal (below 2.2e-308): a smooth field of range
    // 1e-309 at t = 1e-312.
    Case c{"subnormal", {24, 24, 24}, {24, 24, 24}, {}, 1e-312, false};
    c.field = data::miranda_pressure(c.dims);
    const auto [lo, hi] = std::minmax_element(c.field.begin(), c.field.end());
    const double base = *lo, span = *hi - *lo;
    for (double& v : c.field) v = (v - base) / span * 1e-309;
    cases.push_back(std::move(c));
  }
  return cases;
}

const std::vector<Case>& cases() {
  static const std::vector<Case> all = make_cases();
  return all;
}

/// Largest |decoded - original| in units of t; NaN if any decoded value is.
template <typename T>
double max_err_over_t(const Case& c, const T* decoded, size_t n) {
  EXPECT_EQ(n, c.field.size());
  double m = 0.0;
  for (size_t i = 0; i < std::min(n, c.field.size()); ++i) {
    const double e = std::fabs(double(decoded[i]) - c.field[i]);
    if (!(e <= m)) m = e;
  }
  return m / c.t;
}

std::vector<uint8_t> compress_case(const Case& c) {
  Config cfg;
  cfg.mode = Mode::pwe;
  cfg.tolerance = c.t;
  cfg.chunk_dims = c.chunk;
  if (!c.f32) return compress(c.field.data(), c.dims, cfg);
  const std::vector<float> narrow(c.field.begin(), c.field.end());
  return compress(narrow.data(), c.dims, cfg);
}

/// The entry points under test, for one output type.
template <typename T>
void check_in_memory(const Case& c, const std::vector<uint8_t>& blob, const char* type) {
  const uint8_t* p = blob.data();
  const size_t n = blob.size();
  std::vector<T> out;
  Dims d;
  ASSERT_EQ(decompress(p, n, out, d), Status::ok) << type;
  EXPECT_EQ(d.total(), c.dims.total());
  EXPECT_LE(max_err_over_t(c, out.data(), out.size()), 1.0) << "decompress " << type;

  for (const Recovery policy :
       {Recovery::fail_fast, Recovery::zero_fill, Recovery::coarse_fill}) {
    std::vector<T> tol;
    ASSERT_EQ(decompress_tolerant(p, n, policy, tol, d), Status::ok);
    EXPECT_LE(max_err_over_t(c, tol.data(), tol.size()), 1.0)
        << "decompress_tolerant " << type << " policy " << int(policy);
  }

  std::vector<T> low;
  ASSERT_EQ(decompress_lowres(p, n, 0, low, d), Status::ok) << type;
  EXPECT_LE(max_err_over_t(c, low.data(), low.size()), 1.0)
      << "decompress_lowres drop 0 " << type;
}

template <typename T>
void check_out_of_core(const Case& c, const std::string& container_path) {
  const std::string raw_path = container_path + ".raw" + std::to_string(sizeof(T));
  ASSERT_EQ(outofcore::decompress_file(container_path, raw_path, int(sizeof(T))),
            Status::ok);
  std::ifstream in(raw_path, std::ios::binary);
  const std::vector<char> bytes{std::istreambuf_iterator<char>(in), {}};
  std::remove(raw_path.c_str());
  ASSERT_EQ(bytes.size(), c.field.size() * sizeof(T));
  std::vector<T> out(c.field.size());
  std::memcpy(out.data(), bytes.data(), bytes.size());
  EXPECT_LE(max_err_over_t(c, out.data(), out.size()), 1.0)
      << "outofcore::decompress_file precision " << sizeof(T);
}

/// One server per process, on an ephemeral loopback port.
uint16_t server_port() {
  static server::Server srv{server::ServerConfig{}};
  static const bool started = srv.start() == Status::ok;
  EXPECT_TRUE(started);
  return srv.port();
}

template <typename T>
void check_server_reply(const Case& c, const std::vector<uint8_t>& blob) {
  server::ClientConfig cc;
  cc.port = server_port();
  server::Client client(cc);
  const auto res = client.call(
      server::Opcode::decompress,
      server::build_decompress_body(0, uint8_t(sizeof(T)), blob.data(), blob.size()));
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.status, server::WireStatus::ok);
  ASSERT_EQ(res.body.size(), 24 + c.field.size() * sizeof(T));
  ByteReader br(res.body.data(), 24);
  EXPECT_EQ(br.u64(), c.dims.x);
  EXPECT_EQ(br.u64(), c.dims.y);
  EXPECT_EQ(br.u64(), c.dims.z);
  std::vector<T> out(c.field.size());
  std::memcpy(out.data(), res.body.data() + 24, out.size() * sizeof(T));
  EXPECT_LE(max_err_over_t(c, out.data(), out.size()), 1.0)
      << "server DECOMPRESS precision " << sizeof(T);
}

class PweEntryPoints : public ::testing::TestWithParam<size_t> {};

TEST_P(PweEntryPoints, EveryDecodeIsWithinT) {
  const Case& c = cases()[GetParam()];
  ASSERT_GT(c.t, 0.0);
  const std::vector<uint8_t> blob = compress_case(c);
  ASSERT_FALSE(blob.empty());

  check_in_memory<double>(c, blob, "f64");
  if (c.f32) check_in_memory<float>(c, blob, "f32");

  const std::string path = testing::TempDir() + "sperr_pwe_" +
                           std::to_string(::getpid()) + "_" + c.name + ".sperr";
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(blob.data()), std::streamsize(blob.size()));
  }
  check_out_of_core<double>(c, path);
  if (c.f32) check_out_of_core<float>(c, path);
  std::remove(path.c_str());

  check_server_reply<double>(c, blob);
  if (c.f32) check_server_reply<float>(c, blob);
}

INSTANTIATE_TEST_SUITE_P(Cases, PweEntryPoints,
                         ::testing::Range(size_t(0), cases().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string(cases()[info.param].name);
                         });

}  // namespace
}  // namespace sperr
