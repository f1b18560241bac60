#include "common/token_api.h"

#include <gtest/gtest.h>

namespace samya {
namespace {

TEST(TokenApiTest, RequestRoundTrip) {
  TokenRequest req;
  req.request_id = 0x1122334455667788ULL;
  req.entity = 42;
  req.op = TokenOp::kRelease;
  req.amount = 123456;
  BufferWriter w;
  req.EncodeTo(w);
  BufferReader r(w.buffer());
  auto d = TokenRequest::DecodeFrom(r);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->request_id, req.request_id);
  EXPECT_EQ(d->entity, 42u);
  EXPECT_EQ(static_cast<int>(d->op), static_cast<int>(TokenOp::kRelease));
  EXPECT_EQ(d->amount, 123456);
  EXPECT_TRUE(r.Done());
}

TEST(TokenApiTest, ResponseRoundTrip) {
  for (TokenStatus status :
       {TokenStatus::kCommitted, TokenStatus::kRejected,
        TokenStatus::kNotLeader, TokenStatus::kOverloaded}) {
    TokenResponse resp;
    resp.request_id = 7;
    resp.status = status;
    resp.value = -99;
    resp.leader_hint = 3;
    BufferWriter w;
    resp.EncodeTo(w);
    BufferReader r(w.buffer());
    auto d = TokenResponse::DecodeFrom(r);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(static_cast<int>(d->status), static_cast<int>(status));
    EXPECT_EQ(d->value, -99);
    EXPECT_EQ(d->leader_hint, 3);
    EXPECT_EQ(d->committed(), status == TokenStatus::kCommitted);
  }
}

TEST(TokenApiTest, RejectsCorruptOp) {
  TokenRequest req;
  BufferWriter w;
  req.EncodeTo(w);
  auto bytes = w.buffer();
  bytes[9] = 77;  // op byte (after 8-byte id + 1-byte entity varint)
  BufferReader r(bytes);
  EXPECT_FALSE(TokenRequest::DecodeFrom(r).ok());
}

TEST(TokenApiTest, RejectsCorruptStatus) {
  TokenResponse resp;
  BufferWriter w;
  resp.EncodeTo(w);
  auto bytes = w.buffer();
  bytes[8] = 0;  // status byte
  BufferReader r(bytes);
  EXPECT_FALSE(TokenResponse::DecodeFrom(r).ok());
}

TEST(TokenApiTest, DefaultEntityIsZero) {
  TokenRequest req;
  EXPECT_EQ(req.entity, 0u);
  BufferWriter w;
  req.EncodeTo(w);
  BufferReader r(w.buffer());
  EXPECT_EQ(TokenRequest::DecodeFrom(r)->entity, 0u);
}

TEST(TokenApiTest, MessageTypeNames) {
  EXPECT_STREQ(MessageTypeName(kMsgTokenRequest), "token_request");
  EXPECT_STREQ(MessageTypeName(200), "election_get_value");
  EXPECT_STREQ(MessageTypeName(204), "decision");
  EXPECT_STREQ(MessageTypeName(122), "raft_append_entries");
  EXPECT_STREQ(MessageTypeName(140), "msg");  // unassigned range
  EXPECT_STREQ(MessageTypeName(9999), "msg");
}

}  // namespace
}  // namespace samya
