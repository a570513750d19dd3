#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/random.h"
#include "rpc/wire.h"
#include "storage/wal.h"

namespace neptune {
namespace crc32c {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / standard CRC32C test vectors.
  EXPECT_EQ(Value(""), 0x00000000u);
  EXPECT_EQ(Value("a"), 0xC1D04330u);
  EXPECT_EQ(Value("123456789"), 0xE3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(Value(zeros), 0x8A9136AAu);
}

TEST(Crc32cTest, Rfc3720Vectors) {
  // RFC 3720 appendix B.4: 32 bytes of 0xFF, then 0..31 ascending and
  // descending.
  std::string ones(32, '\xFF');
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  for (auto extend : {&Extend, &internal::ExtendPortable}) {
    EXPECT_EQ(extend(0, ones), 0x62A8AB43u);
    EXPECT_EQ(extend(0, ascending), 0x46DD794Eu);
    EXPECT_EQ(extend(0, descending), 0x113FDB5Cu);
  }
}

TEST(Crc32cTest, ExtendMatchesWhole) {
  const std::string data = "hello world, this is neptune";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t partial = Value(std::string_view(data).substr(0, split));
    uint32_t full = Extend(partial, std::string_view(data).substr(split));
    EXPECT_EQ(full, Value(data)) << "split=" << split;
  }
}

// Extend (the SSE4.2 path on CPUs that have it) agrees with the
// portable table for every length up to a few pages, at every
// alignment, with the input split at a random point.
TEST(Crc32cTest, HardwareMatchesPortable) {
  if (!internal::UsesSse42()) {
    GTEST_SKIP() << "CPU lacks SSE4.2; Extend is the portable routine";
  }
  Random rng(3720);
  const std::string buffer = rng.NextBytes(4200 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4200; ++len) {
      const std::string_view data(buffer.data() + offset, len);
      const uint32_t expected = internal::ExtendPortable(0, data);
      ASSERT_EQ(Extend(0, data), expected)
          << "offset=" << offset << " len=" << len;
      const size_t split = rng.Uniform(len + 1);
      const uint32_t head = Extend(0, data.substr(0, split));
      ASSERT_EQ(Extend(head, data.substr(split)), expected)
          << "offset=" << offset << " len=" << len << " split=" << split;
    }
  }
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(Value("abc"), Value("abd"));
  EXPECT_NE(Value("abc"), Value(std::string_view("abc\0", 4)));
}

TEST(Crc32cTest, MaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu, Value("x")}) {
    EXPECT_EQ(Unmask(Mask(crc)), crc);
    EXPECT_NE(Mask(crc), crc);  // masking must change the value
  }
}

// The exact bytes of one wire frame and one WAL record. Peers built
// from older trees and stores they wrote must keep verifying, so these
// may only change with a format version bump.
TEST(Crc32cFormatTest, WireFrameBytesArePinned) {
  std::string frame;
  rpc::AppendFrame(std::string_view("\x07\x00\x00\x00", 4),
                   "openNode reply: contents of node 42, version 3\n",
                   &frame);
  EXPECT_EQ(frame,
            std::string("\x33\x00\x00\x00\x53\xef\xf4\x8c", 8) +
                std::string("\x07\x00\x00\x00", 4) +
                "openNode reply: contents of node 42, version 3\n");
}

class StringFile : public WritableFile {
 public:
  explicit StringFile(std::string* out) : out_(out) {}
  Status Append(std::string_view data) override {
    out_->append(data);
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }

 private:
  std::string* out_;
};

TEST(Crc32cFormatTest, WalRecordBytesArePinned) {
  std::string image;
  LogWriter writer(std::make_unique<StringFile>(&image));
  ASSERT_TRUE(writer
                  .AddRecord(
                      "txn: modifyNode 42 at time 17 with two edited lines",
                      /*sync=*/false)
                  .ok());
  EXPECT_EQ(image, std::string("\xac\xa5\xd6\xf2\x33\x00\x00\x00", 8) +
                       "txn: modifyNode 42 at time 17 with two edited lines");
}

}  // namespace
}  // namespace crc32c
}  // namespace neptune
