// Fences for the bsrd serving daemon (server/server.h), driven through
// real sockets against an in-process server:
//   * PING answers, STATS surfaces the observability keys;
//   * SAMPLE responses are bit-identical to the local batched engine on
//     the same tree/filter/seed — serving (and cross-client coalescing)
//     is invisible in the draws;
//   * RECONSTRUCT equals the local reconstructor; INSERT is durable and
//     immediately visible to subsequent queries — including an exact
//     RECONSTRUCT on the pooled context of a filter seen before the write
//     (and a REMOVE on a freshly loaded tree drops the id there);
//   * an INSERT frame commits in max_batch chunks, one fsync each, and a
//     frame stops at its first refused id;
//   * STATS counts a SAMPLE before its answer leaves, so SAMPLE then STATS
//     on one connection always sees it;
//   * concurrent exact RECONSTRUCTs, racing the index build and INSERTs,
//     each see every INSERT acknowledged before they were sent;
//   * an INSERT that creates tree nodes retires the pooled contexts, whose
//     per-node caches have no slot for them;
//   * STATS carries the h_0 index gauges, built lazily by the first exact
//     RECONSTRUCT and retired with their tree on a swap;
//   * the degradation ladder fires on demand: expired deadlines answer
//     DEADLINE_EXCEEDED, a full admission queue sheds OVERLOADED (and
//     the retry-after hint reaches the client), a quarantined lane
//     refuses mutations with QUARANTINED while reads keep serving;
//   * a digest-tampered frame is answered INVALID and the connection
//     dropped at once (the stream position can no longer be trusted);
//   * responses a pipelining client leaves unread past the socket buffer
//     arrive whole, on their own request ids, once it reads;
//   * idle connections and slow-loris partial frames are closed on their
//     timeouts;
//   * graceful drain answers in-flight requests before stopping.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/bst_reconstructor.h"
#include "src/core/bst_sampler.h"
#include "src/core/query_context.h"
#include "tests/server_test_util.h"

namespace bloomsample {
namespace server {
namespace {

std::vector<uint64_t> QueryIds() {
  return {5, 32, 59, 86, 113, 140, 167, 194};  // all in BaseOccupied
}

/// The exact answer by brute force: every occupied id the set's filter
/// contains, ascending.
std::vector<uint64_t> BruteForceExact(const BloomSampleTree& tree,
                                      const std::vector<uint64_t>& ids) {
  BloomFilter query(tree.family_ptr());
  query.InsertBatch(ids);
  std::vector<uint64_t> out;
  for (uint64_t x : tree.OccupiedIds()) {
    if (query.Contains(x)) out.push_back(x);
  }
  return out;
}

/// The value of `key` in a STATS text, or -1 when the key is missing.
int64_t StatValue(const std::string& stats, const std::string& key) {
  const std::string needle = "\n" + key + "=";
  const std::string text = "\n" + stats;
  const size_t at = text.find(needle);
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + needle.size()));
}

TEST(ServerTest, PingAndStats) {
  ServerHarness h;
  h.Start("ping");
  auto client = QuickClient(h.server->address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()->Ping().ok());

  auto stats = client.value()->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const char* key :
       {"server.accepted=", "server.queue_depth=", "server.shed_queue_full=",
        "server.deadline_exceeded=", "lane.0.read_only=",
        "lane.0.quarantined=", "pipeline.fsyncs=", "tree.occupied=",
        "tree.exact_index_bytes=", "tree.exact_index_builds=",
        "tree.exact_index_pending="}) {
    EXPECT_NE(stats.value().find(key), std::string::npos)
        << "missing " << key << " in:\n"
        << stats.value();
  }
}

TEST(ServerTest, SampleBitIdenticalToLocalEngine) {
  ServerHarness h;
  h.Start("sample");
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());
  auto client = QuickClient(h.server->address());
  ASSERT_TRUE(client.ok());

  for (const uint64_t seed : {1ull, 7ull, 99ull}) {
    auto remote = client.value()->Sample(filter_bytes, 16, seed);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();

    BloomFilter query(h.tree->family_ptr());
    query.InsertBatch(QueryIds());
    BstSampler sampler(h.tree.get());
    const auto local = sampler.SampleBatch(query, 16, seed);
    EXPECT_EQ(remote.value(), local) << "seed " << seed;
  }
}

TEST(ServerTest, CoalescedClientsGetSoloAnswers) {
  // Many clients, same filter, same instant: the server may run them as
  // one frontier, but each response must equal that client's solo draw.
  ServerHarness h;
  ServerOptions options;
  options.workers = 1;  // one worker → popped together → one batch
  h.Start("coalesce", options);
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());

  BloomFilter query(h.tree->family_ptr());
  query.InsertBatch(QueryIds());
  BstSampler sampler(h.tree.get());

  constexpr int kClients = 6;
  std::vector<std::future<std::vector<std::optional<uint64_t>>>> futures;
  for (int c = 0; c < kClients; ++c) {
    futures.push_back(std::async(std::launch::async, [&, c] {
      auto client = QuickClient(h.server->address());
      EXPECT_TRUE(client.ok());
      auto draws = client.value()->Sample(filter_bytes, 4,
                                          /*seed=*/1000 + c);
      EXPECT_TRUE(draws.ok()) << draws.status().ToString();
      return draws.value();
    }));
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(futures[c].get(), sampler.SampleBatch(query, 4, 1000 + c))
        << "client " << c;
  }
  const ServerStatsSnapshot stats = h.server->stats();
  EXPECT_EQ(stats.sample_requests, kClients);
  EXPECT_GE(stats.sample_batches, 1u);
}

TEST(ServerTest, ReconstructMatchesLocalAndInsertIsVisible) {
  ServerHarness h;
  h.Start("recon");
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());
  auto client = QuickClient(h.server->address());
  ASSERT_TRUE(client.ok());

  auto remote = client.value()->Reconstruct(filter_bytes, /*exact=*/true);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  BloomFilter query(h.tree->family_ptr());
  query.InsertBatch(QueryIds());
  QueryContext ctx(*h.tree, query);
  const auto local = BstReconstructor(h.tree.get())
                         .Reconstruct(ctx, nullptr,
                                      BstReconstructor::PruningMode::kExact);
  EXPECT_EQ(remote.value(), local);

  // Ids absent from the base set (6 mod 27), inserted through the wire:
  // durable in the pipeline and visible to an immediate reconstruct.
  const std::vector<uint64_t> fresh = {6, 33, 60};
  ASSERT_TRUE(client.value()->Insert(fresh).ok());
  const auto occupied = h.pipeline->tree_handle()->OccupiedIds();
  for (uint64_t id : fresh) {
    EXPECT_TRUE(std::binary_search(occupied.begin(), occupied.end(), id));
  }
  auto fresh_filter = FilterBytesFor(*h.tree, fresh);
  auto back = client.value()->Reconstruct(fresh_filter, /*exact=*/true);
  ASSERT_TRUE(back.ok());
  for (uint64_t id : fresh) {
    EXPECT_TRUE(std::binary_search(back.value().begin(), back.value().end(),
                                   id));
  }
}

TEST(ServerTest, ExactReconstructReadsItsWritesOnAPooledContext) {
  ServerHarness h;
  h.Start("ryw");
  // The filter's set holds 6, which BaseOccupied (5 mod 27) lacks.
  std::vector<uint64_t> set = QueryIds();
  set.push_back(6);
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree, set);
  auto client = QuickClient(h.server->address());
  ASSERT_TRUE(client.ok());

  auto before = client.value()->Reconstruct(filter_bytes, /*exact=*/true);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(std::binary_search(before.value().begin(),
                                  before.value().end(), 6));

  // Same filter bytes, so the second RECONSTRUCT runs on the context the
  // first one pooled; it must still see the acknowledged INSERT.
  ASSERT_TRUE(client.value()->Insert({6}).ok());
  auto after = client.value()->Reconstruct(filter_bytes, /*exact=*/true);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(std::binary_search(after.value().begin(), after.value().end(),
                                 6));
  EXPECT_EQ(after.value(), BruteForceExact(*h.pipeline->tree_handle(), set));
}

TEST(ServerTest, ExactReconstructDropsARemovedIdOnAPooledContext) {
  ServerHarness h;
  // As bsrd serves every tree: freshly loaded, no delete backend.
  h.Start("rywrm");
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());
  auto client = QuickClient(h.server->address());
  ASSERT_TRUE(client.ok());

  auto before = client.value()->Reconstruct(filter_bytes, /*exact=*/true);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_TRUE(std::binary_search(before.value().begin(),
                                 before.value().end(), 5));

  ASSERT_TRUE(client.value()->Remove({5}).ok());
  auto after = client.value()->Reconstruct(filter_bytes, /*exact=*/true);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(std::binary_search(after.value().begin(), after.value().end(),
                                  5));
  EXPECT_EQ(after.value(),
            BruteForceExact(*h.pipeline->tree_handle(), QueryIds()));
}

TEST(ServerTest, StatsCountsEverySampleAnsweredBeforeIt) {
  // One connection alternates SAMPLE and STATS: a client holding an
  // answer must always see it counted, so every STATS reads the SAMPLEs
  // and the responses answered before it.
  ServerHarness h;
  h.Start("samplestats");
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());
  auto client = QuickClient(h.server->address());
  ASSERT_TRUE(client.ok());
  for (int64_t i = 1; i <= 200; ++i) {
    ASSERT_TRUE(client.value()->Sample(filter_bytes, 1, i).ok());
    auto text = client.value()->Stats();
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    ASSERT_EQ(StatValue(text.value(), "server.sample_requests"), i)
        << "after SAMPLE " << i;
    ASSERT_EQ(StatValue(text.value(), "server.responses_out"), 2 * i - 1)
        << "after SAMPLE " << i;
  }
}

/// `count` ids of the golden namespace that BaseOccupied (5 mod 27) lacks.
std::vector<uint64_t> FreshIds(size_t count) {
  std::vector<uint64_t> ids;
  for (uint64_t x = 0; ids.size() < count; ++x) {
    if (x % 27 != 5) ids.push_back(x);
  }
  return ids;
}

TEST(ServerTest, InsertFrameCommitsInMaxBatchChunks) {
  ServerHarness h;
  h.Start("frame");
  auto client = QuickClient(h.server->address());
  ASSERT_TRUE(client.ok());
  const auto fsyncs = [&] {
    auto text = client.value()->Stats();
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    return text.ok() ? StatValue(text.value(), "pipeline.fsyncs") : -1;
  };
  const uint64_t before = h.pipeline->tree_handle()->occupied_count();
  const int64_t fsyncs_before = fsyncs();

  const std::vector<uint64_t> ids = FreshIds(1000);
  ASSERT_TRUE(client.value()->Insert(ids).ok());
  const size_t max_batch = IngestPipelineOptions().max_batch;
  EXPECT_LE(fsyncs() - fsyncs_before,
            static_cast<int64_t>((ids.size() + max_batch - 1) / max_batch));
  const auto tree = h.pipeline->tree_handle();
  EXPECT_EQ(tree->occupied_count(), before + ids.size());
  for (uint64_t x : ids) EXPECT_TRUE(tree->IsOccupied(x)) << x;
}

TEST(ServerTest, MutationFrameStopsAtItsFirstRefusedId) {
  ServerHarness h;
  h.Start("framebad");
  auto client = QuickClient(h.server->address(), /*max_retries=*/0);
  ASSERT_TRUE(client.ok());
  const uint64_t before = h.pipeline->tree_handle()->occupied_count();

  std::vector<uint64_t> ids = FreshIds(1000);
  ids[500] = GoldenConfig().namespace_size;  // out of range
  const Status st = client.value()->Insert(ids);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("applied 500/1000"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(h.pipeline->tree_handle()->occupied_count(), before + 500);

  // Exactly the accepted prefix is logged, in frame order.
  std::vector<uint64_t> logged;
  auto replayed = ReplayWal(WalPathFor(h.path),
                            WalConfigFingerprint(GoldenConfig()),
                            [&](const WalRecord& rec) {
                              logged.push_back(rec.id);
                              return Status::OK();
                            });
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(logged, std::vector<uint64_t>(ids.begin(), ids.begin() + 500));
}

TEST(ServerTest, ConcurrentExactReconstructsSeeEveryAcknowledgedInsert) {
  ServerHarness h;
  ServerOptions options;
  options.workers = 4;
  h.Start("concur", options);
  // Two filters, each over base members plus ids the writer inserts
  // (6 mod 27: never in BaseOccupied).
  std::vector<uint64_t> fresh;
  for (uint64_t i = 0; i < 40; ++i) fresh.push_back(6 + 27 * i);
  std::vector<std::vector<uint64_t>> sets = {QueryIds(), {221, 248, 275}};
  for (size_t i = 0; i < fresh.size(); ++i) {
    sets[i % 2].push_back(fresh[i]);
  }
  std::vector<std::vector<uint8_t>> filters;
  for (const auto& set : sets) filters.push_back(FilterBytesFor(*h.tree, set));

  std::atomic<size_t> acked{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    auto client = QuickClient(h.server->address());
    EXPECT_TRUE(client.ok());
    for (size_t i = 0; client.ok() && i < fresh.size(); ++i) {
      const Status st = client.value()->Insert({fresh[i]});
      EXPECT_TRUE(st.ok()) << st.ToString();
      if (!st.ok()) break;
      acked.store(i + 1);
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      auto client = QuickClient(h.server->address());
      ASSERT_TRUE(client.ok());
      for (size_t round = 0; !done.load() || round < 4; ++round) {
        const size_t f = (r + round) % 2;
        const size_t seen = acked.load();
        auto ids = client.value()->Reconstruct(filters[f], /*exact=*/true);
        ASSERT_TRUE(ids.ok()) << ids.status().ToString();
        for (size_t i = f; i < seen; i += 2) {
          EXPECT_TRUE(std::binary_search(ids.value().begin(),
                                         ids.value().end(), fresh[i]))
              << "acknowledged insert " << fresh[i] << " missing";
        }
        if (r == 0) {
          EXPECT_TRUE(client.value()->Stats().ok());
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  auto client = QuickClient(h.server->address());
  ASSERT_TRUE(client.ok());
  for (size_t f = 0; f < sets.size(); ++f) {
    auto ids = client.value()->Reconstruct(filters[f], /*exact=*/true);
    ASSERT_TRUE(ids.ok());
    EXPECT_EQ(ids.value(),
              BruteForceExact(*h.pipeline->tree_handle(), sets[f]));
  }
}

TEST(ServerTest, InsertThatCreatesNodesRetiresPooledContexts) {
  // Occupied ids only in the lower half: an INSERT in the upper half
  // creates nodes a pooled context's per-node caches have no slot for.
  std::vector<uint64_t> lower;
  for (uint64_t x : BaseOccupied()) {
    if (x < 2048) lower.push_back(x);
  }
  ServerHarness h;
  h.Start("grow", ServerOptions(), lower);
  std::vector<uint64_t> set = QueryIds();
  set.push_back(3000);
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree, set);
  auto client = QuickClient(h.server->address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->Sample(filter_bytes, 16, 5).ok());

  const size_t nodes = h.tree->node_count();
  ASSERT_TRUE(client.value()->Insert({3000}).ok());
  ASSERT_GT(h.pipeline->tree_handle()->node_count(), nodes);
  auto draws = client.value()->Sample(filter_bytes, 16, 5);
  ASSERT_TRUE(draws.ok()) << draws.status().ToString();
  BloomFilter query(h.tree->family_ptr());
  query.InsertBatch(set);
  EXPECT_EQ(draws.value(),
            BstSampler(h.pipeline->tree_handle().get())
                .SampleBatch(query, 16, 5));
}

TEST(ServerTest, ExactIndexGaugesFollowTheTreeGeneration) {
  ServerHarness h;
  h.Start("gauges");
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());
  auto client = QuickClient(h.server->address());
  ASSERT_TRUE(client.ok());
  const auto stats = [&] {
    auto text = client.value()->Stats();
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    return text.ok() ? text.value() : std::string();
  };

  // Lazy: neither daemon start nor a thresholded RECONSTRUCT builds it.
  ASSERT_TRUE(client.value()->Reconstruct(filter_bytes, false).ok());
  std::string text = stats();
  EXPECT_EQ(StatValue(text, "tree.exact_index_bytes"), 0) << text;
  EXPECT_EQ(StatValue(text, "tree.exact_index_builds"), 0) << text;

  ASSERT_TRUE(client.value()->Reconstruct(filter_bytes, true).ok());
  text = stats();
  const int64_t built_bytes = StatValue(text, "tree.exact_index_bytes");
  EXPECT_GT(built_bytes, 0) << text;
  EXPECT_EQ(StatValue(text, "tree.exact_index_builds"), 1) << text;
  EXPECT_EQ(StatValue(text, "tree.exact_index_pending"), 0) << text;

  ASSERT_TRUE(client.value()->Insert({6}).ok());
  text = stats();
  EXPECT_EQ(StatValue(text, "tree.exact_index_pending"), 1) << text;
  EXPECT_EQ(StatValue(text, "tree.exact_index_builds"), 1) << text;

  // A swap retires the old generation's index with its tree: the gauge
  // drops to the new tree's (unbuilt) value, and its first exact
  // RECONSTRUCT builds one again.
  h.server->RequestSwap();
  for (int i = 0; i < 500 && h.server->stats().swaps < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(h.server->stats().swaps, 1u);
  text = stats();
  EXPECT_EQ(StatValue(text, "tree.exact_index_bytes"), 0) << text;
  EXPECT_EQ(StatValue(text, "tree.exact_index_builds"), 0) << text;
  EXPECT_EQ(StatValue(text, "tree.exact_index_pending"), 0) << text;

  ASSERT_TRUE(client.value()->Reconstruct(filter_bytes, true).ok());
  text = stats();
  EXPECT_GT(StatValue(text, "tree.exact_index_bytes"), 0) << text;
  EXPECT_LE(StatValue(text, "tree.exact_index_bytes"), built_bytes + 64)
      << text;
  EXPECT_EQ(StatValue(text, "tree.exact_index_builds"), 1) << text;
}

TEST(ServerTest, ExpiredDeadlineIsAnsweredNotDropped) {
  ServerHarness h;
  ServerOptions options;
  options.workers = 1;
  options.pre_execute_delay_for_test = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  h.Start("deadline", options);
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());

  ClientOptions coptions;
  coptions.deadline_ms = 1;  // expires inside the pre-execute stall
  coptions.max_retries = 0;
  auto client = BsrClient::Connect(h.server->address(), coptions);
  ASSERT_TRUE(client.ok());
  const auto draws = client.value()->Sample(filter_bytes, 4, 1);
  ASSERT_FALSE(draws.ok());
  EXPECT_NE(draws.status().ToString().find("deadline exceeded"),
            std::string::npos)
      << draws.status().ToString();
  EXPECT_GE(h.server->stats().deadline_exceeded, 1u);
}

TEST(ServerTest, FullQueueShedsOverloadedWithRetryAfter) {
  ServerHarness h;
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.retry_after_ms = 37;
  options.pre_execute_delay_for_test = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  h.Start("shed", options);
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());

  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  std::atomic<int> overloaded{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto client = QuickClient(h.server->address(), /*max_retries=*/0);
      ASSERT_TRUE(client.ok());
      const auto draws = client.value()->Sample(filter_bytes, 2, 1);
      if (draws.ok()) {
        ++ok;
      } else {
        EXPECT_NE(draws.status().ToString().find("overloaded"),
                  std::string::npos)
            << draws.status().ToString();
        ++overloaded;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_EQ(ok.load() + overloaded.load(), kClients);
  EXPECT_GE(h.server->stats().shed_queue_full, 1u);

  // And the shed is an invitation to retry: with retries enabled the
  // same offered load eventually fully succeeds.
  auto patient = QuickClient(h.server->address(), /*max_retries=*/5);
  ASSERT_TRUE(patient.ok());
  EXPECT_TRUE(patient.value()->Sample(filter_bytes, 2, 1).ok());
}

TEST(ServerTest, QuarantinedLaneRefusesMutationsServesReads) {
  ServerHarness h;
  h.Start("quarantine");
  ASSERT_TRUE(h.pipeline->Quarantine(0, "test says so").ok());

  auto client = QuickClient(h.server->address(), /*max_retries=*/0);
  ASSERT_TRUE(client.ok());
  const Status insert = client.value()->Insert({6});
  ASSERT_FALSE(insert.ok());
  EXPECT_EQ(insert.code(), Status::Code::kQuarantined)
      << insert.ToString();

  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());
  EXPECT_TRUE(client.value()->Sample(filter_bytes, 2, 1).ok());
  auto stats = client.value()->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().find("lane.0.quarantined=1"), std::string::npos);
}

/// Raw-socket helper: connect to a unix address ("unix:/path").
int RawConnect(const std::string& address) {
  const std::string path = address.substr(5);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.data(), path.size());
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << strerror(errno);
  return fd;
}

/// Blocking read of exactly n bytes; false on EOF/error.
bool RawRead(int fd, uint8_t* out, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t r = read(fd, out + off, n - off);
    if (r <= 0) return false;
    off += static_cast<size_t>(r);
  }
  return true;
}

TEST(ServerTest, TamperedDigestAnsweredInvalidThenClosed) {
  // Both timeouts far out: only the bad-frame hang-up may close the
  // connection, so a close that waits for a timeout sweep fails below.
  ServerHarness h;
  ServerOptions options;
  options.read_timeout = std::chrono::milliseconds(60000);
  options.idle_timeout = std::chrono::milliseconds(60000);
  h.Start("tamper", options);
  const int fd = RawConnect(h.server->address());

  std::vector<uint8_t> frame;
  FrameHeader header;
  header.opcode = Opcode::kPing;
  header.request_id = 77;
  EncodeFrame(header, nullptr, 0, &frame);
  frame[16] ^= 0xFF;  // corrupt budget_ms after sealing the digest
  ASSERT_EQ(send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));

  uint8_t resp[kFrameHeaderBytes];
  ASSERT_TRUE(RawRead(fd, resp, sizeof(resp)));
  DecodedHeader decoded;
  ASSERT_TRUE(DecodeHeader(resp, sizeof(resp), 1 << 20, &decoded).ok());
  EXPECT_EQ(decoded.header.status, WireStatus::kInvalidArgument);
  std::vector<uint8_t> payload(decoded.header.payload_len);
  ASSERT_TRUE(RawRead(fd, payload.data(), payload.size()));

  // The stream is poisoned; the server must hang up right after
  // answering — EOF within a second, not at a timeout.
  pollfd p{fd, POLLIN, 0};
  ASSERT_EQ(poll(&p, 1, /*timeout_ms=*/1000), 1) << "no hang-up within 1 s";
  uint8_t byte;
  EXPECT_EQ(read(fd, &byte, 1), 0);
  close(fd);
  EXPECT_GE(h.server->stats().bad_frames, 1u);
}

TEST(ServerTest, PipelinedResponsesPastTheSocketBufferArriveWhole) {
  // One connection pipelines SAMPLE(1000) and exact RECONSTRUCT frames
  // without reading: the responses (> 500 KB) overflow the socket buffer,
  // so workers' direct writes hit EAGAIN and the loop must finish them.
  // Then every response must arrive whole, answer its own request id,
  // and equal the local engine.
  ServerHarness h;
  h.Start("pipeline");
  const std::vector<std::vector<uint64_t>> sets = {
      QueryIds(), {59, 86, 113, 140, 167, 194, 221, 248, 275, 302}};
  std::vector<std::vector<uint8_t>> filters;
  for (const auto& ids : sets) filters.push_back(FilterBytesFor(*h.tree, ids));

  struct Expected {
    Opcode opcode;
    std::vector<std::optional<uint64_t>> draws;
    std::vector<uint64_t> ids;
  };
  std::map<uint64_t, Expected> expected;
  std::vector<uint8_t> stream;
  const BstSampler sampler(h.tree.get());
  constexpr uint32_t kCount = 1000;
  size_t response_bytes = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    const size_t s = i % sets.size();
    SampleRequest sample;
    sample.count = kCount;
    sample.seed = 1000 + i;
    sample.filter = filters[s];
    std::vector<uint8_t> payload;
    EncodeSampleRequest(sample, &payload);
    FrameHeader header;
    header.opcode = Opcode::kSample;
    header.request_id = 2 * i + 1;
    header.payload_len = static_cast<uint32_t>(payload.size());
    EncodeFrame(header, payload.data(), payload.size(), &stream);
    BloomFilter query(h.tree->family_ptr());
    query.InsertBatch(sets[s]);
    expected[header.request_id] = {
        Opcode::kSample, sampler.SampleBatch(query, kCount, sample.seed), {}};
    response_bytes += 4 + 8 * kCount;

    if (i % 4 == 3) {
      ReconstructRequest recon;
      recon.exact = true;
      recon.filter = filters[s];
      payload.clear();
      EncodeReconstructRequest(recon, &payload);
      header.opcode = Opcode::kReconstruct;
      header.request_id = 2 * i + 2;
      header.payload_len = static_cast<uint32_t>(payload.size());
      EncodeFrame(header, payload.data(), payload.size(), &stream);
      expected[header.request_id] = {
          Opcode::kReconstruct, {}, BruteForceExact(*h.tree, sets[s])};
    }
  }
  ASSERT_GE(response_bytes, 500u * 1024);

  const int fd = RawConnect(h.server->address());
  // A response the server never finishes fails the read, not the suite's
  // clock.
  const timeval read_limit{10, 0};
  ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &read_limit,
                       sizeof(read_limit)),
            0);
  ASSERT_EQ(send(fd, stream.data(), stream.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(stream.size()));
  // Give the workers time to answer into a reader that is not reading.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const size_t total = expected.size();
  for (size_t answered = 0; answered < total; ++answered) {
    uint8_t head[kFrameHeaderBytes];
    ASSERT_TRUE(RawRead(fd, head, sizeof(head))) << "after " << answered;
    DecodedHeader decoded;
    ASSERT_TRUE(DecodeHeader(head, sizeof(head), 1u << 24, &decoded).ok());
    std::vector<uint8_t> payload(decoded.header.payload_len);
    ASSERT_TRUE(RawRead(fd, payload.data(), payload.size()));
    EXPECT_EQ(FrameDigest(head, payload.data(), payload.size()),
              decoded.digest);
    ASSERT_EQ(decoded.header.status, WireStatus::kOk)
        << std::string(payload.begin(), payload.end());
    auto it = expected.find(decoded.header.request_id);
    ASSERT_NE(it, expected.end()) << decoded.header.request_id;
    ASSERT_EQ(decoded.header.opcode, it->second.opcode);
    if (it->second.opcode == Opcode::kSample) {
      std::vector<std::optional<uint64_t>> draws;
      ASSERT_TRUE(DecodeDraws(payload.data(), payload.size(), &draws).ok());
      EXPECT_EQ(draws, it->second.draws) << decoded.header.request_id;
    } else {
      std::vector<uint64_t> ids;
      ASSERT_TRUE(DecodeIdList(payload.data(), payload.size(), &ids).ok());
      EXPECT_EQ(ids, it->second.ids) << decoded.header.request_id;
    }
    expected.erase(it);
  }
  EXPECT_TRUE(expected.empty());
  close(fd);
}

TEST(ServerTest, IdleAndSlowLorisConnectionsAreClosed) {
  ServerHarness h;
  ServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(150);
  options.read_timeout = std::chrono::milliseconds(150);
  h.Start("loris", options);

  // Idle: connected, never speaks.
  const int idle_fd = RawConnect(h.server->address());
  // Slow loris: dribbles half a header and stalls mid-frame.
  const int loris_fd = RawConnect(h.server->address());
  std::vector<uint8_t> frame;
  EncodeFrame(FrameHeader(), nullptr, 0, &frame);
  ASSERT_EQ(send(loris_fd, frame.data(), 10, MSG_NOSIGNAL), 10);

  uint8_t byte;
  EXPECT_EQ(read(idle_fd, &byte, 1), 0);   // EOF: server closed it
  EXPECT_EQ(read(loris_fd, &byte, 1), 0);
  close(idle_fd);
  close(loris_fd);
  EXPECT_GE(h.server->stats().idle_closed, 1u);
  EXPECT_GE(h.server->stats().read_timeout_closed, 1u);
}

TEST(ServerTest, DrainAnswersInFlightThenStops) {
  ServerHarness h;
  ServerOptions options;
  options.workers = 1;
  options.pre_execute_delay_for_test = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  h.Start("drain", options);
  const std::vector<uint8_t> filter_bytes = FilterBytesFor(*h.tree,
                                                           QueryIds());

  auto inflight = std::async(std::launch::async, [&] {
    auto client = QuickClient(h.server->address(), /*max_retries=*/0);
    EXPECT_TRUE(client.ok());
    return client.value()->Sample(filter_bytes, 2, 1).status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  h.server->RequestDrain();
  // The request that was already in flight completes with an answer.
  EXPECT_TRUE(inflight.get().ok());
  EXPECT_TRUE(h.server->Wait().ok());
  EXPECT_FALSE(h.server->running());

  // And the daemon is really gone: new connections are refused.
  auto late = QuickClient(h.server->address(), /*max_retries=*/0);
  EXPECT_FALSE(late.ok());
}

}  // namespace
}  // namespace server
}  // namespace bloomsample
