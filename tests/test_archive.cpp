#include "sperr/archive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "data/synthetic.h"
#include "sperr/sperr.h"

namespace sperr::archive {
namespace {

TEST(Archive, MultiVariableRoundTripWithMixedModes) {
  const Dims dims{32, 32, 16};
  const auto pressure = data::miranda_pressure(dims);
  const auto temp = data::s3d_temperature(dims);
  const auto aerosol = data::nyx_velocity_x(dims);

  Writer w;
  Config pwe;
  pwe.tolerance = tolerance_from_idx(pressure.data(), pressure.size(), 20);
  w.add("pressure", pressure.data(), dims, pwe);

  Config rmse;
  rmse.mode = Mode::target_rmse;
  rmse.rmse = 0.01;
  w.add("temperature", temp.data(), dims, rmse);

  Config rate;
  rate.mode = Mode::fixed_rate;
  rate.bpp = 2.0;
  w.add("aerosol", aerosol.data(), dims, rate);
  EXPECT_EQ(w.count(), 3u);

  const auto blob = w.finish();
  ASSERT_FALSE(blob.empty());

  Reader r;
  ASSERT_EQ(Reader::open(blob.data(), blob.size(), r), Status::ok);
  EXPECT_EQ(r.names(),
            (std::vector<std::string>{"pressure", "temperature", "aerosol"}));

  std::vector<double> out;
  Dims od;
  ASSERT_EQ(r.extract("pressure", out, od), Status::ok);
  EXPECT_EQ(od, dims);
  double max_err = 0;
  for (size_t i = 0; i < out.size(); ++i)
    max_err = std::max(max_err, std::fabs(out[i] - pressure[i]));
  EXPECT_LE(max_err, pwe.tolerance);

  ASSERT_EQ(r.extract("temperature", out, od), Status::ok);
  ASSERT_EQ(r.extract("aerosol", out, od), Status::ok);
  EXPECT_EQ(r.extract("no_such_var", out, od), Status::invalid_argument);
}

TEST(Archive, DuplicateAndEmptyNamesRejected) {
  const Dims dims{8, 8, 8};
  std::vector<double> f(dims.total(), 1.0);
  Config cfg;
  cfg.tolerance = 1e-3;

  Writer dup;
  dup.add("a", f.data(), dims, cfg);
  dup.add("a", f.data(), dims, cfg);
  EXPECT_TRUE(dup.finish().empty());

  Writer unnamed;
  unnamed.add("", f.data(), dims, cfg);
  EXPECT_TRUE(unnamed.finish().empty());
}

TEST(Archive, RebundleExtractedContainer) {
  const Dims dims{16, 16, 8};
  const auto field = data::s3d_ch4(dims);
  Config cfg;
  cfg.tolerance = 1e-4;

  Writer w1;
  w1.add("fuel", field.data(), dims, cfg);
  const auto blob1 = w1.finish();

  Reader r1;
  ASSERT_EQ(Reader::open(blob1.data(), blob1.size(), r1), Status::ok);
  const auto container = r1.container("fuel");
  ASSERT_NE(container.data(), nullptr);

  Writer w2;
  w2.add_container("fuel_copy", {container.begin(), container.end()});
  const auto blob2 = w2.finish();
  Reader r2;
  ASSERT_EQ(Reader::open(blob2.data(), blob2.size(), r2), Status::ok);
  std::vector<double> out;
  Dims od;
  ASSERT_EQ(r2.extract("fuel_copy", out, od), Status::ok);
  EXPECT_EQ(od, dims);
}

TEST(Archive, ContainersAreViewsIntoTheCallersBuffer) {
  const Dims dims{16, 16, 8};
  const auto field = data::s3d_ch4(dims);
  Config cfg;
  cfg.tolerance = 1e-4;
  Writer w;
  w.add("fuel", field.data(), dims, cfg);
  w.add("fuel2", field.data(), dims, cfg);
  const auto blob = w.finish();

  Reader r;
  ASSERT_EQ(Reader::open(blob.data(), blob.size(), r), Status::ok);
  const uint8_t* end = blob.data() + blob.size();
  for (const std::string& name : r.names()) {
    const auto view = r.container(name);
    ASSERT_NE(view.data(), nullptr) << name;
    EXPECT_GT(view.size(), 0u) << name;
    EXPECT_GE(view.data(), blob.data()) << name;
    EXPECT_LE(view.data() + view.size(), end) << name;
  }
  EXPECT_EQ(r.container("missing").data(), nullptr);
  EXPECT_TRUE(r.container("missing").empty());
}

TEST(Archive, EmptyArchiveIsValid) {
  Writer w;
  const auto blob = w.finish();
  ASSERT_FALSE(blob.empty());
  Reader r;
  ASSERT_EQ(Reader::open(blob.data(), blob.size(), r), Status::ok);
  EXPECT_TRUE(r.names().empty());
}

TEST(Archive, GarbageAndTruncationRejected) {
  std::vector<uint8_t> junk = {1, 2, 3, 4, 5};
  Reader r;
  EXPECT_NE(Reader::open(junk.data(), junk.size(), r), Status::ok);

  const Dims dims{8, 8, 8};
  std::vector<double> f(dims.total(), 2.0);
  Config cfg;
  cfg.tolerance = 1e-3;
  Writer w;
  w.add("x", f.data(), dims, cfg);
  auto blob = w.finish();
  for (const size_t keep : {4u, 9u, 12u, 30u}) {
    Reader rr;
    EXPECT_NE(Reader::open(blob.data(), std::min<size_t>(keep, blob.size()), rr),
              Status::ok);
  }
}

TEST(Archive, OversizedBlobLengthIsTruncation) {
  const Dims dims{8, 8, 8};
  std::vector<double> f(dims.total(), 2.0);
  Config cfg;
  cfg.tolerance = 1e-3;
  Writer w;
  w.add("x", f.data(), dims, cfg);
  auto blob = w.finish();
  // Framing: magic u32, count u32, name_len u16, name "x", blob_len u64.
  const size_t len_at = 4 + 4 + 2 + 1;
  for (const uint64_t k : {0ull, 9ull, 10ull, 11ull, 1000ull}) {
    const uint64_t declared = UINT64_MAX - k;
    for (int i = 0; i < 8; ++i) blob[len_at + i] = uint8_t(declared >> (8 * i));
    Reader r;
    EXPECT_EQ(Reader::open(blob.data(), blob.size(), r), Status::truncated_stream)
        << "blob_len = UINT64_MAX - " << k;
    EXPECT_TRUE(r.names().empty());
  }
}

}  // namespace
}  // namespace sperr::archive
