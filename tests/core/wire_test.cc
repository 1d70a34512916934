#include "futurerand/core/wire.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/common/random.h"

namespace futurerand::core {
namespace {

using wire_internal::GetVarint64;
using wire_internal::PutVarint64;
using wire_internal::ZigZagDecode;
using wire_internal::ZigZagEncode;

// Record-level decoder checks sit behind the FNV-1a trailer: a test that
// edits a batch's records strips the trailer (Unsealed), edits, and
// appends a fresh one (Sealed) so the decoder gets past the checksum.
std::string Unsealed(std::string batch) {
  batch.resize(batch.size() - 8);
  return batch;
}

std::string Sealed(std::string body) {
  wire_internal::AppendChecksum(&body);
  return body;
}

TEST(VarintTest, RoundTripsRepresentativeValues) {
  for (uint64_t value :
       {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
        uint64_t{16383}, uint64_t{16384}, uint64_t{1} << 40,
        ~uint64_t{0}}) {
    std::string buffer;
    PutVarint64(value, &buffer);
    std::string_view view = buffer;
    const auto decoded = GetVarint64(&view);
    ASSERT_TRUE(decoded.ok()) << value;
    EXPECT_EQ(*decoded, value);
    EXPECT_TRUE(view.empty());
  }
}

TEST(VarintTest, SmallValuesAreOneByte) {
  std::string buffer;
  PutVarint64(127, &buffer);
  EXPECT_EQ(buffer.size(), 1u);
  PutVarint64(128, &buffer);
  EXPECT_EQ(buffer.size(), 3u);  // second value took two bytes
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buffer;
  PutVarint64(uint64_t{1} << 40, &buffer);
  buffer.pop_back();
  std::string_view view = buffer;
  EXPECT_FALSE(GetVarint64(&view).ok());
}

TEST(VarintTest, OverlongEncodingFails) {
  const std::string malicious(11, '\x80');
  std::string_view view = malicious;
  EXPECT_FALSE(GetVarint64(&view).ok());
}

TEST(ZigZagTest, RoundTripsSignedValues) {
  for (int64_t value : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{2},
                        int64_t{-2}, int64_t{1} << 40, -(int64_t{1} << 40)}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(value)), value);
  }
}

TEST(ZigZagTest, SmallMagnitudesStaySmall) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
}

TEST(RegistrationBatchTest, RoundTrips) {
  const std::vector<RegistrationMessage> batch = {
      {0, 3}, {1, 0}, {2, 7}, {100, 2}};
  const std::string bytes = EncodeRegistrationBatch(batch);
  const auto decoded = DecodeRegistrationBatch(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, batch);
}

TEST(RegistrationBatchTest, EmptyBatch) {
  const std::string bytes = EncodeRegistrationBatch({});
  const auto decoded = DecodeRegistrationBatch(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(RegistrationBatchTest, UnsortedIdsStillRoundTrip) {
  const std::vector<RegistrationMessage> batch = {{50, 1}, {2, 2}, {99, 0}};
  const auto decoded =
      DecodeRegistrationBatch(EncodeRegistrationBatch(batch));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, batch);
}

TEST(ReportBatchTest, RoundTrips) {
  const std::vector<ReportMessage> batch = {
      {0, 4, 1}, {0, 8, -1}, {1, 2, 1}, {7, 1024, -1}};
  const auto bytes = EncodeReportBatch(batch);
  ASSERT_TRUE(bytes.ok());
  const auto decoded = DecodeReportBatch(*bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, batch);
}

TEST(ReportBatchTest, RejectsInvalidValuesAtEncode) {
  EXPECT_FALSE(EncodeReportBatch({{0, 1, 0}}).ok());
  EXPECT_FALSE(EncodeReportBatch({{0, 0, 1}}).ok());  // time < 1
}

TEST(ReportBatchTest, RefusesTimeDeltasTheSignBitWouldTruncate) {
  // The sign rides the low bit of the zigzagged time delta, so a delta
  // whose zigzag needs all 64 bits cannot be packed. The encoder used to
  // drop its top bit and return OK: this batch decoded to times
  // 4611686018427387903 and 1.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const auto too_far = EncodeReportBatch({{1, kMax, 1}, {1, 1, 1}});
  EXPECT_EQ(too_far.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(EncodeReportBatch({{1, int64_t{1} << 62, -1}}).status().code(),
            StatusCode::kInvalidArgument);

  // Deltas at both edges of [-2^62, 2^62) still round-trip exactly.
  const int64_t top = (int64_t{1} << 62) - 1;
  const std::vector<ReportMessage> edge = {
      {1, top, 1}, {1, 2 * top, -1}, {2, 2 * top - (top + 1), 1}};
  const auto bytes = EncodeReportBatch(edge);
  ASSERT_TRUE(bytes.ok());
  const auto decoded = DecodeReportBatch(*bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, edge);
}

TEST(ReportBatchTest, SortedBatchIsCompact) {
  // 1000 consecutive reports from one client: ~2 bytes per record.
  std::vector<ReportMessage> batch;
  for (int64_t t = 1; t <= 1000; ++t) {
    batch.push_back({42, t, (t % 2 == 0) ? int8_t{1} : int8_t{-1}});
  }
  const auto bytes = EncodeReportBatch(batch);
  ASSERT_TRUE(bytes.ok());
  EXPECT_LT(bytes->size(), 1000u * 3u);
}

TEST(ReportBatchTest, RandomBatchesRoundTrip) {
  Rng rng(123);
  for (int round = 0; round < 50; ++round) {
    std::vector<ReportMessage> batch;
    const auto size = rng.NextInt(64);
    int64_t time = 1;
    for (uint64_t i = 0; i < size; ++i) {
      time += static_cast<int64_t>(rng.NextInt(100));
      batch.push_back({static_cast<int64_t>(rng.NextInt(1000)), time,
                       rng.NextSign()});
    }
    const auto bytes = EncodeReportBatch(batch);
    ASSERT_TRUE(bytes.ok());
    const auto decoded = DecodeReportBatch(*bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, batch);
  }
}

TEST(WireValidationTest, RejectsBadMagic) {
  std::string bytes = EncodeRegistrationBatch({{1, 2}});
  bytes[0] = 'X';
  EXPECT_FALSE(DecodeRegistrationBatch(bytes).ok());
}

TEST(WireValidationTest, RejectsWrongVersion) {
  std::string bytes = EncodeRegistrationBatch({{1, 2}});
  bytes[3] = 9;
  EXPECT_FALSE(DecodeRegistrationBatch(bytes).ok());
}

TEST(WireValidationTest, RejectsKindConfusion) {
  // A registration batch must not decode as a report batch and vice versa.
  const std::string registrations = EncodeRegistrationBatch({{1, 2}});
  EXPECT_FALSE(DecodeReportBatch(registrations).ok());
  const auto reports = EncodeReportBatch({{1, 2, 1}});
  ASSERT_TRUE(reports.ok());
  EXPECT_FALSE(DecodeRegistrationBatch(*reports).ok());
}

TEST(WireValidationTest, RejectsTruncation) {
  const auto bytes = EncodeReportBatch({{1, 2, 1}, {1, 4, -1}});
  ASSERT_TRUE(bytes.ok());
  for (size_t cut = 0; cut < bytes->size(); ++cut) {
    EXPECT_FALSE(DecodeReportBatch(bytes->substr(0, cut)).ok())
        << "cut=" << cut;
  }
}

TEST(WireValidationTest, RejectsTrailingBytes) {
  auto bytes = EncodeReportBatch({{1, 2, 1}});
  ASSERT_TRUE(bytes.ok());
  std::string body = Unsealed(*bytes);
  body += '\x00';
  EXPECT_EQ(DecodeReportBatch(Sealed(body)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireValidationTest, RejectsImplausibleLevel) {
  // Forge a registration with level 63.
  std::string bytes = Unsealed(EncodeRegistrationBatch({{1, 62}}));
  // The level is the last varint byte; bump it past the sanity bound.
  bytes.back() = 63;
  EXPECT_EQ(DecodeRegistrationBatch(Sealed(bytes)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireV2Test, RoundTripsBothMessageTypes) {
  const std::vector<RegistrationMessage> registrations = {
      {0, 3}, {1, 0}, {2, 7}, {100, 2}};
  const auto decoded_registrations = DecodeRegistrationBatch(
      EncodeRegistrationBatch(registrations, WireVersion::kV2));
  ASSERT_TRUE(decoded_registrations.ok());
  EXPECT_EQ(*decoded_registrations, registrations);

  const std::vector<ReportMessage> reports = {
      {0, 4, 1}, {0, 8, -1}, {1, 2, 1}, {7, 1024, -1}};
  const auto bytes = EncodeReportBatch(reports, WireVersion::kV2);
  ASSERT_TRUE(bytes.ok());
  const auto decoded_reports = DecodeReportBatch(*bytes);
  ASSERT_TRUE(decoded_reports.ok());
  EXPECT_EQ(*decoded_reports, reports);
}

TEST(WireV2Test, PeekDistinguishesVersions) {
  const auto v2 = EncodeReportBatch({{1, 2, 1}}, WireVersion::kV2);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*PeekBatchKind(*v2), WireBatchKind::kReportV2);
  EXPECT_EQ(*PeekBatchKind(EncodeRegistrationBatch({{1, 2}},
                                                   WireVersion::kV2)),
            WireBatchKind::kRegistrationV2);
}

// What a receiving service does with raw bytes: route on the header like
// ShardedAggregator::IngestEncoded, then run the matching decoder. The
// status of that pipeline is the verdict a sender's retry loop sees.
Status ReceiverVerdict(const std::string& bytes) {
  const auto kind = PeekBatchKind(bytes);
  if (!kind.ok()) {
    return kind.status();
  }
  switch (*kind) {
    case WireBatchKind::kRegistrationV2:
      return DecodeRegistrationBatch(bytes).status();
    case WireBatchKind::kReportV2:
      return DecodeReportBatch(bytes).status();
    default:
      return Status::InvalidArgument("not a transport batch");
  }
}

TEST(WireV2Test, EveryBitFlipIsRejectedAsDataLoss) {
  // The v2 contract the retransmission loop is built on: any single-bit
  // flip — header, count, records, or trailer — fails with kDataLoss
  // specifically, so the receiver's verdict alone distinguishes "resend"
  // from "well-formed but wrong". A flip in the kind byte may reroute to
  // the sibling decoder, whose checksum (covering the header) then fails.
  const auto reports = EncodeReportBatch(
      {{0, 4, 1}, {0, 8, -1}, {5, 2, 1}, {9, 64, -1}}, WireVersion::kV2);
  ASSERT_TRUE(reports.ok());
  const std::string registrations =
      EncodeRegistrationBatch({{0, 3}, {7, 1}, {50, 0}}, WireVersion::kV2);
  for (const std::string* payload : {&*reports, &registrations}) {
    ASSERT_TRUE(ReceiverVerdict(*payload).ok());
    for (size_t byte = 0; byte < payload->size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string corrupted = *payload;
        corrupted[byte] ^= static_cast<char>(1 << bit);
        const Status verdict = ReceiverVerdict(corrupted);
        EXPECT_EQ(verdict.code(), StatusCode::kDataLoss)
            << "byte " << byte << " bit " << bit << ": "
            << verdict.ToString();
      }
    }
  }
}

TEST(WireV2Test, RejectsVersionKindMismatch) {
  // A v2 kind under a v1 version byte is an undefined pairing: kDataLoss,
  // even if the checksum would have matched.
  auto bytes = EncodeReportBatch({{1, 2, 1}}, WireVersion::kV2);
  ASSERT_TRUE(bytes.ok());
  std::string forged = *bytes;
  forged[3] = 1;  // claim v1 framing of a v2 kind
  EXPECT_EQ(DecodeReportBatch(forged).status().code(),
            StatusCode::kDataLoss);
}

TEST(WireV2Test, RejectsTruncationAtEveryOffset) {
  const auto bytes =
      EncodeReportBatch({{1, 2, 1}, {1, 4, -1}}, WireVersion::kV2);
  ASSERT_TRUE(bytes.ok());
  for (size_t cut = 0; cut < bytes->size(); ++cut) {
    EXPECT_FALSE(DecodeReportBatch(bytes->substr(0, cut)).ok())
        << "cut=" << cut;
  }
}

TEST(WireV2Test, RejectsTrailingBytes) {
  auto bytes = EncodeReportBatch({{1, 2, 1}}, WireVersion::kV2);
  ASSERT_TRUE(bytes.ok());
  *bytes += '\x00';
  // The appended byte shifts the trailer window, so this reads as a
  // checksum failure — still a rejection, as required.
  EXPECT_FALSE(DecodeReportBatch(*bytes).ok());
}

TEST(WireValidationTest, RejectsNonPositiveDecodedTime) {
  // Craft a batch whose first time delta decodes to 0.
  std::string bytes;
  bytes += "FRW";
  bytes += static_cast<char>(2);  // version
  bytes += static_cast<char>(7);  // kind: report
  wire_internal::PutVarint64(1, &bytes);                       // count
  wire_internal::PutVarint64(wire_internal::ZigZagEncode(0), &bytes);  // id
  wire_internal::PutVarint64(wire_internal::ZigZagEncode(0) << 1 | 1,
                             &bytes);  // time delta 0 -> time 0
  EXPECT_EQ(DecodeReportBatch(Sealed(bytes)).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace futurerand::core
