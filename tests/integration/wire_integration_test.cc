// End-to-end through the wire: client reports are batched, serialized,
// decoded and replayed into a second server; the estimates must be
// identical bit-for-bit to the direct path.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "futurerand/core/aggregator.h"
#include "futurerand/core/client.h"
#include "futurerand/core/server.h"
#include "futurerand/core/wire.h"

namespace futurerand::core {
namespace {

TEST(WireIntegrationTest, SerializedPathMatchesDirectPath) {
  ProtocolConfig config;
  config.num_periods = 32;
  config.max_changes = 3;
  config.epsilon = 1.0;

  Server direct = Server::ForProtocol(config).ValueOrDie();
  Server via_wire = Server::ForProtocol(config).ValueOrDie();

  std::vector<RegistrationMessage> registrations;
  std::vector<ReportMessage> reports;

  constexpr int kUsers = 200;
  std::vector<Client> clients;
  for (int64_t u = 0; u < kUsers; ++u) {
    clients.push_back(
        Client::Create(config, static_cast<uint64_t>(u) + 7).ValueOrDie());
    registrations.push_back({u, clients.back().level()});
    ASSERT_TRUE(direct.RegisterClient(u, clients.back().level()).ok());
  }
  for (int64_t t = 1; t <= config.num_periods; ++t) {
    for (int64_t u = 0; u < kUsers; ++u) {
      const int8_t state = ((t + u) % 8) < 4 ? 1 : 0;
      const auto report =
          clients[static_cast<size_t>(u)].ObserveState(state).ValueOrDie();
      if (report.has_value()) {
        ASSERT_TRUE(direct.SubmitReport(u, t, *report).ok());
        reports.push_back({u, t, *report});
      }
    }
  }

  // Ship everything through the wire format.
  const std::string registration_bytes =
      EncodeRegistrationBatch(registrations);
  const auto decoded_registrations =
      DecodeRegistrationBatch(registration_bytes);
  ASSERT_TRUE(decoded_registrations.ok());
  for (const RegistrationMessage& message : *decoded_registrations) {
    ASSERT_TRUE(
        via_wire.RegisterClient(message.client_id, message.level).ok());
  }
  const auto report_bytes = EncodeReportBatch(reports);
  ASSERT_TRUE(report_bytes.ok());
  const auto decoded_reports = DecodeReportBatch(*report_bytes);
  ASSERT_TRUE(decoded_reports.ok());
  ASSERT_EQ(decoded_reports->size(), reports.size());
  for (const ReportMessage& message : *decoded_reports) {
    ASSERT_TRUE(
        via_wire.SubmitReport(message.client_id, message.time, message.value)
            .ok());
  }

  const auto direct_estimates = direct.EstimateAll().ValueOrDie();
  const auto wire_estimates = via_wire.EstimateAll().ValueOrDie();
  EXPECT_EQ(direct_estimates, wire_estimates);
}

TEST(WireIntegrationTest, WireSizeIsCompact) {
  // A level-0 client's 32 consecutive one-bit reports should encode in
  // about 2 bytes per report (delta time + sign bit share one varint).
  ProtocolConfig config;
  config.num_periods = 32;
  config.max_changes = 1;
  config.epsilon = 1.0;
  std::vector<ReportMessage> reports;
  for (int64_t t = 1; t <= 32; ++t) {
    reports.push_back({5, t, (t % 2 == 0) ? int8_t{1} : int8_t{-1}});
  }
  const auto bytes = EncodeReportBatch(reports);
  ASSERT_TRUE(bytes.ok());
  EXPECT_LT(bytes->size(), reports.size() * 3);
}

TEST(WireIntegrationTest, RetiredV1KindsAreDataLossAndApplyNothing) {
  // Kinds 1-2, the unchecksummed v1 transport batches, are retired: the
  // aggregator rejects them at the header with kDataLoss, like any unknown
  // kind, and applies nothing — even when the records behind the header
  // are well-formed.
  ProtocolConfig config;
  config.num_periods = 16;
  config.max_changes = 2;
  config.epsilon = 1.0;
  ShardedAggregator aggregator =
      ShardedAggregator::ForProtocol(config, 2).ValueOrDie();
  ASSERT_TRUE(
      aggregator.IngestEncoded(EncodeRegistrationBatch({{0, 0}, {1, 0}}))
          .ok());
  const std::vector<double> before = aggregator.EstimateAll().ValueOrDie();

  // The exact v1 bytes of a batch: version 1, the v1 kind, no trailer.
  auto as_v1 = [](std::string batch, char kind) {
    batch[3] = wire_internal::kWireVersion1;
    batch[4] = kind;
    batch.resize(batch.size() - 8);
    return batch;
  };
  const std::string reports =
      EncodeReportBatch({{0, 1, 1}, {1, 2, -1}}).ValueOrDie();
  for (const std::string& v1 :
       {as_v1(EncodeRegistrationBatch({{2, 0}}),
              wire_internal::kKindRegistration),
        as_v1(reports, wire_internal::kKindReport)}) {
    EXPECT_EQ(PeekBatchKind(v1).status().code(), StatusCode::kDataLoss);
    IngestOutcome outcome;
    EXPECT_EQ(aggregator.IngestEncoded(v1, nullptr, &outcome).code(),
              StatusCode::kDataLoss);
    EXPECT_EQ(outcome.applied, 0);
  }
  EXPECT_EQ(aggregator.num_clients(), 2);
  EXPECT_EQ(aggregator.EstimateAll().ValueOrDie(), before);

  // The same records framed as v2 apply.
  IngestOutcome outcome;
  ASSERT_TRUE(aggregator.IngestEncoded(reports, nullptr, &outcome).ok());
  EXPECT_EQ(outcome.applied, 2);
}

}  // namespace
}  // namespace futurerand::core
