// Tests for the wire format, protocol messages, network model, and the
// loopback RPC channel.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "net/message.h"
#include "net/netmodel.h"
#include "net/rpc.h"
#include "net/wire.h"

namespace ecc::net {
namespace {

// --- wire -------------------------------------------------------------------

TEST(WireTest, FixedWidthRoundTrip) {
  WireWriter w;
  w.PutU8(0xab);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutDouble(3.25);

  WireReader r(w.buffer());
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  double d = 0;
  ASSERT_TRUE(r.GetU8(u8).ok());
  ASSERT_TRUE(r.GetU16(u16).ok());
  ASSERT_TRUE(r.GetU32(u32).ok());
  ASSERT_TRUE(r.GetU64(u64).ok());
  ASSERT_TRUE(r.GetDouble(d).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(WireTest, VarintRoundTripBoundaryValues) {
  for (std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
        0xffffffffull, 0xffffffffffffffffull}) {
    WireWriter w;
    w.PutVarint(v);
    WireReader r(w.buffer());
    std::uint64_t out = 0;
    ASSERT_TRUE(r.GetVarint(out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(WireTest, VarintEncodingIsCompact) {
  WireWriter w;
  w.PutVarint(127);
  EXPECT_EQ(w.size(), 1u);
  w.PutVarint(128);
  EXPECT_EQ(w.size(), 3u);  // +2
}

TEST(WireTest, BytesRoundTripIncludingEmbeddedNul) {
  WireWriter w;
  const std::string payload("a\0b\xff", 4);
  w.PutBytes(payload);
  WireReader r(w.buffer());
  std::string out;
  ASSERT_TRUE(r.GetBytes(out).ok());
  EXPECT_EQ(out, payload);
}

TEST(WireTest, UnderrunIsError) {
  WireWriter w;
  w.PutU8(1);
  WireReader r(w.buffer());
  std::uint64_t u64 = 0;
  EXPECT_FALSE(r.GetU64(u64).ok());
}

TEST(WireTest, TruncatedBytesIsError) {
  WireWriter w;
  w.PutVarint(100);  // claims 100 bytes follow
  w.PutU8('x');      // only one does
  WireReader r(w.buffer());
  std::string out;
  EXPECT_FALSE(r.GetBytes(out).ok());
}

// --- message framing --------------------------------------------------------

TEST(MessageTest, SerializeDeserializeRoundTrip) {
  Message m{MsgType::kPutRequest, "payload-bytes"};
  auto parsed = Message::Deserialize(m.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type, MsgType::kPutRequest);
  EXPECT_EQ(parsed->payload, "payload-bytes");
}

TEST(MessageTest, RejectsUnknownTag) {
  std::string wire = Message{MsgType::kGetRequest, ""}.Serialize();
  wire[0] = 99;
  EXPECT_FALSE(Message::Deserialize(wire).ok());
}

TEST(MessageTest, RejectsLengthMismatch) {
  std::string wire = Message{MsgType::kGetRequest, "abc"}.Serialize();
  wire.pop_back();
  EXPECT_FALSE(Message::Deserialize(wire).ok());
}

// --- typed payloads ---------------------------------------------------------

TEST(ProtocolTest, GetRoundTrip) {
  const GetRequest req{0xfeedULL};
  auto decoded = GetRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->key, 0xfeedULL);
}

TEST(ProtocolTest, GetResponseRoundTrip) {
  GetResponse resp;
  resp.found = true;
  resp.value = std::string(500, 'v');
  auto decoded = GetResponse::Decode(resp.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->found);
  EXPECT_EQ(decoded->value.size(), 500u);
}

TEST(ProtocolTest, PutRoundTrip) {
  const PutRequest req{42, "value"};
  auto decoded = PutRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->key, 42u);
  EXPECT_EQ(decoded->value, "value");
}

TEST(ProtocolTest, MigrateBatchRoundTrip) {
  MigrateRequest req;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    req.records.emplace_back(rng.Next(),
                             std::string(rng.Uniform(64), 'r'));
  }
  auto decoded = MigrateRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->records.size(), 100u);
  EXPECT_EQ(decoded->records, req.records);
}

TEST(ProtocolTest, EraseRoundTrip) {
  EraseRequest req;
  req.keys = {1, 2, 3, 0xffffffffffffffffULL};
  auto decoded = EraseRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->keys, req.keys);
}

TEST(ProtocolTest, StatsRoundTrip) {
  StatsResponse resp{100, 2048, 4096};
  auto decoded = StatsResponse::Decode(resp.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->records, 100u);
  EXPECT_EQ(decoded->used_bytes, 2048u);
  EXPECT_EQ(decoded->capacity_bytes, 4096u);
}

TEST(ProtocolTest, DecodeRejectsWrongType) {
  const GetRequest req{1};
  EXPECT_FALSE(PutRequest::Decode(req.Encode()).ok());
}

// --- network model ----------------------------------------------------------

TEST(NetworkModelTest, TransferTimeIsLatencyPlusBandwidth) {
  NetworkModelOptions opts;
  opts.rtt = Duration::Millis(1);
  opts.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s
  opts.per_message_overhead_bytes = 0;
  const NetworkModel model(opts);
  // 1000 bytes at 1 MB/s = 1 ms, plus 1 ms rtt.
  EXPECT_NEAR(model.TransferTime(1000).seconds(), 0.002, 1e-9);
}

TEST(NetworkModelTest, BatchingAmortizesLatency) {
  const NetworkModel model;
  const Duration single = model.PerRecordTime(1000, 1);
  const Duration batched = model.PerRecordTime(1000, 64);
  EXPECT_LT(batched, single);
}

TEST(NetworkModelTest, RoundTripSumsBothLegs) {
  const NetworkModel model;
  EXPECT_EQ(model.RoundTripTime(100, 200).micros(),
            (model.TransferTime(100) + model.TransferTime(200)).micros());
}

// --- RPC --------------------------------------------------------------------

TEST(RpcTest, DispatchRoutesToHandler) {
  RpcServer server;
  server.Handle(MsgType::kGetRequest,
                [](const Message& m) -> StatusOr<Message> {
                  auto req = GetRequest::Decode(m);
                  if (!req.ok()) return req.status();
                  GetResponse resp;
                  resp.found = req->key == 7;
                  return resp.Encode();
                });
  auto out = server.Dispatch(GetRequest{7}.Encode());
  ASSERT_TRUE(out.ok());
  auto resp = GetResponse::Decode(*out);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->found);
}

TEST(RpcTest, UnknownTypeIsUnavailable) {
  RpcServer server;
  EXPECT_EQ(server.Dispatch(StatsRequest{}.Encode()).status().code(),
            StatusCode::kUnavailable);
}

TEST(RpcTest, LoopbackChargesClockBothWays) {
  RpcServer server;
  server.Handle(MsgType::kGetRequest,
                [](const Message&) -> StatusOr<Message> {
                  GetResponse resp;
                  resp.found = true;
                  resp.value = std::string(10000, 'x');
                  return resp.Encode();
                });
  NetworkModelOptions opts;
  opts.rtt = Duration::Millis(1);
  opts.bandwidth_bytes_per_sec = 1e6;
  VirtualClock clock;
  LoopbackChannel channel(&server, NetworkModel(opts), &clock);
  auto out = channel.Call(GetRequest{1}.Encode());
  ASSERT_TRUE(out.ok());
  // Two rtts plus ~10 KB at 1 MB/s ~= 10 ms of payload time.
  EXPECT_GT(clock.now().seconds(), 0.011);
  EXPECT_LT(clock.now().seconds(), 0.02);
  EXPECT_EQ(channel.stats().calls, 1u);
  EXPECT_GT(channel.stats().bytes_received, 10000u);
}

TEST(RpcTest, NullClockSkipsTimeAccounting) {
  RpcServer server;
  server.Handle(MsgType::kStatsRequest,
                [](const Message&) -> StatusOr<Message> {
                  return StatsResponse{}.Encode();
                });
  LoopbackChannel channel(&server, NetworkModel{}, nullptr);
  EXPECT_TRUE(channel.Call(StatsRequest{}.Encode()).ok());
}

// --- Loopback accounting parity ----------------------------------------------
//
// The loopback hands Messages over without building frames.  Its virtual
// time and ChannelStats must still be exactly what a serializing transport
// charges: every figure below is computed from Serialize().size().

/// Returns one fixed verdict for every call.
class FixedFault final : public CallInterceptor {
 public:
  explicit FixedFault(CallFault fault) : fault_(fault) {}
  CallFault OnCall(std::uint64_t, MsgType) override { return fault_; }

 private:
  CallFault fault_;
};

/// One request and the response its handler returns, for every pair of
/// message types in the protocol.
std::vector<std::pair<Message, Message>> EveryRequestResponsePair() {
  MigrateRequest migrate;
  migrate.records = {{1, std::string(300, 'a')}, {2, "b"}, {3, ""}};
  EraseRequest erase;
  erase.keys = {4, 5, 6};
  return {
      {GetRequest{7}.Encode(),
       GetResponse{true, std::string(1000, 'v')}.Encode()},
      {PutRequest{8, std::string(777, 'p')}.Encode(),
       PutResponse{true, 12345}.Encode()},
      {migrate.Encode(), MigrateResponse{3}.Encode()},
      {erase.Encode(), EraseResponse{2}.Encode()},
      {StatsRequest{}.Encode(), StatsResponse{10, 20, 30}.Encode()},
      {RangeStatsRequest{1, 99}.Encode(), RangeStatsResponse{5, 500}.Encode()},
      {EraseRangeRequest{1, 99}.Encode(), EraseRangeResponse{5}.Encode()},
      {DigestRequest{1, 99}.Encode(), DigestResponse{0xabcdef, 5}.Encode()},
  };
}

TEST(RpcTest, LoopbackAccountingMatchesSerializedFrames) {
  NetworkModelOptions opts;
  opts.rtt = Duration::Micros(300);
  opts.bandwidth_bytes_per_sec = 2e6;
  const NetworkModel model(opts);
  const Duration delay = Duration::Millis(7);
  const CallFault faults[] = {
      {CallFaultKind::kNone, Duration::Zero()},
      {CallFaultKind::kDropRequest, Duration::Zero()},
      {CallFaultKind::kDropResponse, Duration::Zero()},
      {CallFaultKind::kDelay, delay},
  };

  for (const auto& [request, response] : EveryRequestResponsePair()) {
    const std::size_t req_bytes = request.Serialize().size();
    const std::size_t resp_bytes = response.Serialize().size();
    const Duration req_time = model.TransferTime(req_bytes);
    const Duration resp_time = model.TransferTime(resp_bytes);
    for (const CallFault& fault : faults) {
      SCOPED_TRACE(std::string(MsgTypeName(request.type)) + " / " +
                   CallFaultKindName(fault.kind));
      int handled = 0;
      RpcServer server;
      server.Handle(request.type,
                    [&handled, &response](const Message&) -> StatusOr<Message> {
                      ++handled;
                      return response;
                    });
      VirtualClock clock;
      LoopbackChannel channel(&server, model, &clock);
      FixedFault interceptor(fault);
      channel.BindInterceptor(&interceptor, /*endpoint=*/1);

      auto out = channel.Call(request);
      const ChannelStats stats = channel.stats();
      EXPECT_EQ(stats.calls, 1u);
      EXPECT_EQ(stats.bytes_sent, req_bytes);
      EXPECT_EQ(stats.faults_injected,
                fault.kind == CallFaultKind::kNone ? 0u : 1u);
      Duration expected = req_time;
      switch (fault.kind) {
        case CallFaultKind::kNone:
        case CallFaultKind::kDelay:
          expected = req_time + resp_time +
                     (fault.kind == CallFaultKind::kDelay ? delay
                                                         : Duration::Zero());
          ASSERT_TRUE(out.ok()) << out.status().ToString();
          EXPECT_EQ(out->type, response.type);
          EXPECT_EQ(out->payload, response.payload);
          EXPECT_EQ(stats.bytes_received, resp_bytes);
          EXPECT_EQ(handled, 1);
          break;
        case CallFaultKind::kDropRequest:
        case CallFaultKind::kDropResponse:
          EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
          EXPECT_EQ(stats.bytes_received, 0u);
          EXPECT_EQ(handled,
                    fault.kind == CallFaultKind::kDropResponse ? 1 : 0);
          break;
      }
      EXPECT_EQ(clock.now().micros(), expected.micros());
      EXPECT_EQ(stats.time_on_wire.micros(), expected.micros());
    }
  }
}

TEST(RpcTest, LoopbackRejectsUnknownTagAfterChargingTheRequest) {
  RpcServer server;
  VirtualClock clock;
  const NetworkModel model{};
  LoopbackChannel channel(&server, model, &clock);
  const Message bogus{static_cast<MsgType>(200), "xyz"};
  auto out = channel.Call(bogus);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  const std::size_t bytes = bogus.Serialize().size();
  EXPECT_EQ(channel.stats().bytes_sent, bytes);
  EXPECT_EQ(channel.stats().calls, 1u);
  EXPECT_EQ(clock.now().micros(), model.TransferTime(bytes).micros());
}

}  // namespace
}  // namespace ecc::net
