//===- tests/ChannelTest.cpp - CML channel tests --------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "GCTestUtils.h"
#include "gc/HeapVerifier.h"
#include "runtime/Channel.h"
#include "runtime/Runtime.h"
#include "runtime/Scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace manti;
using namespace manti::test;

namespace {

RuntimeConfig chanConfig(unsigned NumVProcs) {
  RuntimeConfig Cfg;
  Cfg.GC = smallConfig();
  Cfg.NumVProcs = NumVProcs;
  Cfg.PinThreads = false;
  return Cfg;
}

struct ChanCtx {
  Channel *Chan;
  std::atomic<int64_t> Received{0};
  std::atomic<int> Done{0};
  int Messages = 0;
};

void receiverTask(Runtime &, VProc &VP, Task T) {
  auto *Ctx = static_cast<ChanCtx *>(T.Ctx);
  for (int I = 0; I < Ctx->Messages; ++I) {
    RootScope Scope(VP.heap());
    Ref<> Msg = Ctx->Chan->recv(Scope, VP);
    Ctx->Received.fetch_add(listSum(Msg));
  }
  Ctx->Done.fetch_add(1);
}

} // namespace

TEST(Channel, SendRecvAcrossVProcs) {
  Runtime RT(chanConfig(2), Topology::uniform(2, 1));
  Channel Chan(RT);
  static ChanCtx Ctx;
  Ctx.Chan = &Chan;
  Ctx.Received = 0;
  Ctx.Done = 0;
  Ctx.Messages = 20;

  RT.run(
      [](Runtime &RT, VProc &VP, void *CtxP) {
        auto *Ctx = static_cast<ChanCtx *>(CtxP);
        // Receiver runs as a task (stolen by the other vproc or run
        // here; either way the channel handshake works).
        VP.spawn({receiverTask, Ctx, Value::nil(), 0, 0});
        for (int I = 0; I < Ctx->Messages; ++I) {
          RootScope Scope(VP.heap());
          Ref<> Msg = Scope.root(makeIntList(VP.heap(), 12));
          Ctx->Chan->send(VP, Msg);
        }
        while (Ctx->Done.load() == 0)
          VP.poll();
        (void)RT;
      },
      &Ctx);

  EXPECT_EQ(Ctx.Received.load(), 20 * intListSum(12));
}

TEST(Channel, MessagesArePromoted) {
  Runtime RT(chanConfig(2), Topology::uniform(2, 1));
  Channel Chan(RT);
  struct LocalCtx {
    Channel *Chan;
    bool WasGlobal = false;
  };
  static LocalCtx Ctx;
  Ctx.Chan = &Chan;
  Ctx.WasGlobal = false;

  RT.run(
      [](Runtime &RT, VProc &VP, void *CtxP) {
        auto *Ctx = static_cast<LocalCtx *>(CtxP);
        static JoinCounter Join;
        Join.add();
        VP.spawn({[](Runtime &RT, VProc &VP, Task T) {
                    auto *Ctx = static_cast<LocalCtx *>(T.Ctx);
                    RootScope Scope(VP.heap());
                    Ref<> Msg = Ctx->Chan->recv(Scope, VP);
                    Ctx->WasGlobal = isGlobal(RT.world(), Msg);
                    EXPECT_EQ(listSum(Msg), intListSum(7));
                    Join.sub();
                  },
                  Ctx, Value::nil(), 0, 0});
        RootScope Scope(VP.heap());
        Ref<> Msg = Scope.root(makeIntList(VP.heap(), 7));
        EXPECT_TRUE(isLocalTo(VP.heap(), Msg));
        Ctx->Chan->send(VP, Msg);
        VP.joinWait(Join);
        (void)RT;
      },
      &Ctx);

  EXPECT_TRUE(Ctx.WasGlobal)
      << "messages must move to the global heap (Section 2.3)";
}

TEST(Channel, TryRecvEmptyFails) {
  Runtime RT(chanConfig(1), Topology::singleNode(1));
  Channel Chan(RT);
  RT.run(
      [](Runtime &RT, VProc &VP, void *CtxP) {
        auto *Chan = static_cast<Channel *>(CtxP);
        Value Out;
        EXPECT_FALSE(Chan->tryRecv(VP, Out));
        (void)RT;
      },
      &Chan);
}

TEST(Channel, SenderBlocksUntilReceiver) {
  Runtime RT(chanConfig(2), Topology::uniform(2, 1));
  Channel Chan(RT);
  struct Ctx2 {
    Channel *Chan;
    std::atomic<bool> SendReturned{false};
  };
  static Ctx2 Ctx;
  Ctx.Chan = &Chan;
  Ctx.SendReturned = false;

  RT.run(
      [](Runtime &RT, VProc &VP, void *CtxP) {
        auto *Ctx = static_cast<Ctx2 *>(CtxP);
        static JoinCounter Join;
        Join.add();
        VP.spawn({[](Runtime &, VProc &VP, Task T) {
                    auto *Ctx = static_cast<Ctx2 *>(T.Ctx);
                    Ctx->Chan->send(VP, Value::fromInt(5));
                    Ctx->SendReturned.store(true);
                    Join.sub();
                  },
                  Ctx, Value::nil(), 0, 0});
        // Let the sender run/block, then receive.
        Value Got = Ctx->Chan->recv(VP);
        EXPECT_EQ(Got.asInt(), 5);
        VP.joinWait(Join);
        EXPECT_TRUE(Ctx->SendReturned.load());
        (void)RT;
      },
      &Ctx);
}

TEST(Channel, BlockedReceiverSurvivesGlobalGC) {
  // The proxy-parked receiver is the paper's motivating proxy use: its
  // local continuation must survive local AND global collections that
  // run while it is blocked. The main vproc blocks in recv *first*; the
  // sender task sits in its queue until a worker steals it, guaranteeing
  // the receiver really parks and that the collections (driven by the
  // sender's churn) run while it is parked.
  RuntimeConfig Cfg = chanConfig(2);
  Cfg.GC.GlobalGCBytesPerVProc = 48 * 1024;
  Runtime RT(Cfg, Topology::uniform(2, 1));
  Channel Chan(RT);
  static Channel *ChanPtr;
  ChanPtr = &Chan;
  static int64_t ContSum, MsgSum;
  ContSum = MsgSum = 0;

  RT.run(
      [](Runtime &, VProc &VP, void *) {
        VP.spawn({[](Runtime &, VProc &VP, Task) {
                    // Churn the global heap so collections run while the
                    // receiver is parked, then send.
                    for (int I = 0; I < 60; ++I) {
                      RootScope Inner(VP.heap());
                      Ref<> Junk = Inner.root(makeIntList(VP.heap(), 150));
                      promote(Inner, Junk);
                      VP.poll();
                    }
                    RootScope Scope(VP.heap());
                    Ref<> Msg = Scope.root(makeIntList(VP.heap(), 11));
                    ChanPtr->send(VP, Msg);
                  },
                  nullptr, Value::nil(), 0, 0});

        // Block with local continuation data. recv's poll loop answers
        // the worker's steal request, handing the sender task over.
        RootScope Scope(VP.heap());
        Ref<> Cont = Scope.root(makeIntList(VP.heap(), 9));
        Ref<> ContBack = Scope.root(Value::nil());
        Ref<> Msg = ChanPtr->recv(Scope, VP, Cont, &ContBack);
        ContSum = listSum(ContBack);
        MsgSum = listSum(Msg);
      },
      nullptr);

  EXPECT_EQ(ContSum, intListSum(9))
      << "proxy-parked continuation must survive the collections";
  EXPECT_EQ(MsgSum, intListSum(11));
  EXPECT_GE(RT.world().globalGCCount(), 1u);
}

TEST(Channel, SelectRecvPicksReadyChannel) {
  Runtime RT(chanConfig(2), Topology::uniform(2, 1));
  Channel A(RT), B(RT);
  static Channel *ChanA, *ChanB;
  ChanA = &A;
  ChanB = &B;
  static int64_t Got;
  static unsigned Which;

  RT.run(
      [](Runtime &, VProc &VP, void *) {
        static JoinCounter Join;
        Join.add();
        VP.spawn({[](Runtime &, VProc &VP, Task) {
                    // Send on the second channel only.
                    ChanB->send(VP, Value::fromInt(77));
                    Join.sub();
                  },
                  nullptr, Value::nil(), 0, 0});
        Channel *Chans[2] = {ChanA, ChanB};
        Value V = Channel::selectRecv(VP, Chans, 2, &Which);
        Got = V.asInt();
        VP.joinWait(Join);
      },
      nullptr);

  EXPECT_EQ(Got, 77);
  EXPECT_EQ(Which, 1u);
  EXPECT_EQ(A.pendingSends(), 0u);
  EXPECT_EQ(B.pendingSends(), 0u);
}

TEST(Channel, SelectRecvDrainsBothChannels) {
  // Two sender tasks target different channels; the main vproc never
  // runs tasks itself, so a worker steals and runs them in spawn order
  // (each send blocks until its select match, serializing them).
  Runtime RT(chanConfig(2), Topology::uniform(2, 1));
  Channel A(RT), B(RT);
  static Channel *ChanA, *ChanB;
  ChanA = &A;
  ChanB = &B;
  RT.run(
      [](Runtime &, VProc &VP, void *) {
        static JoinCounter Join;
        for (int I = 0; I < 2; ++I) {
          Join.add();
          VP.spawn({[](Runtime &, VProc &VP, Task T) {
                      (T.A == 0 ? ChanA : ChanB)
                          ->send(VP, Value::fromInt(T.A + 100));
                      Join.sub();
                    },
                    nullptr, Value::nil(), I, 0});
        }
        Channel *Chans[2] = {ChanA, ChanB};
        unsigned Which = 99;
        Value First = Channel::selectRecv(VP, Chans, 2, &Which);
        EXPECT_EQ(Which, 0u) << "steals happen oldest-first";
        EXPECT_EQ(First.asInt(), 100);
        Value Second = Channel::selectRecv(VP, Chans, 2, &Which);
        EXPECT_EQ(Which, 1u);
        EXPECT_EQ(Second.asInt(), 101);
        while (!Join.done())
          VP.poll();
      },
      nullptr);
}

TEST(Channel, BlockedReceiverParksAndIsRungAwake) {
  // The blocked receiver registers a waiter and parks in the ParkLot;
  // the sender's hand-off rings its node. The sender holds the message
  // until it *observes the receiver parked on its doorbell*, so the
  // park rung is reached deterministically even on a loaded host.
  Runtime RT(chanConfig(2), Topology::uniform(2, 1));
  Channel Chan(RT);
  static Channel *ChanPtr;
  ChanPtr = &Chan;
  static int64_t Got;
  Got = 0;

  RT.run(
      [](Runtime &, VProc &VP, void *) {
        VP.spawn({[](Runtime &RT2, VProc &VP, Task) {
                    // The receiver (vproc 0) lives on node 0: wait for
                    // it to park before handing over the message.
                    NodeId RecvNode = RT2.vproc(0).node();
                    while (RT2.parkLot().parkedOn(RecvNode) == 0)
                      std::this_thread::yield();
                    RootScope S(VP.heap());
                    Ref<> Msg = S.root(makeIntList(VP.heap(), 13));
                    ChanPtr->send(VP, Msg);
                  },
                  nullptr, Value::nil(), 0, 0});
        RootScope S(VP.heap());
        Ref<> Msg = ChanPtr->recv(S, VP);
        Got = listSum(Msg);
      },
      nullptr);

  EXPECT_EQ(Got, intListSum(13));
  SchedStats S = RT.aggregateSchedStats();
  EXPECT_GT(S.Parks, 0u)
      << "the receiver must reach the park rung before the hand-off";
}

TEST(Channel, TryRecvReturnsEmptyWhileHandoffPends) {
  // Regression (mid-handoff spin): a parked receiver's pending
  // handshake is not a queued message. tryRecv must report "empty"
  // instead of waiting on someone else's hand-off to settle.
  Runtime RT(chanConfig(2), Topology::uniform(2, 1));
  Channel Chan(RT);
  static Channel *ChanPtr;
  ChanPtr = &Chan;
  static std::atomic<int64_t> ReceiverGot;
  ReceiverGot = 0;

  RT.run(
      [](Runtime &, VProc &VP, void *) {
        // The receiver task parks on a worker vproc.
        VP.spawn({[](Runtime &, VProc &VP, Task) {
                    RootScope S(VP.heap());
                    Ref<> Msg = ChanPtr->recv(S, VP);
                    ReceiverGot.store(listSum(Msg));
                  },
                  nullptr, Value::nil(), 0, 0});
        // Wait until the receiver is registered, then probe: the parked
        // receiver must be invisible to tryRecv.
        while (ChanPtr->pendingRecvs() == 0)
          VP.poll();
        Value Out;
        for (int I = 0; I < 100; ++I)
          EXPECT_FALSE(ChanPtr->tryRecv(VP, Out))
              << "a parked receiver is not a message";
        RootScope S(VP.heap());
        Ref<> Msg = S.root(makeIntList(VP.heap(), 6));
        ChanPtr->send(VP, Msg);
        while (ReceiverGot.load() == 0)
          VP.poll();
      },
      nullptr);

  EXPECT_EQ(ReceiverGot.load(), intListSum(6));
  EXPECT_EQ(Chan.pendingSends(), 0u);
  EXPECT_EQ(Chan.pendingRecvs(), 0u);
}

TEST(Channel, TryRecvHandoffHammer) {
  // TSan hammer for the two-flag handoff (Claimed picks the filler,
  // Ready/Taken publish completion): a blocked receiver, a sender, and
  // a prober that hammers tryRecv and recycles anything it happens to
  // intercept, so every message still arrives exactly once.
  Runtime RT(chanConfig(3), Topology::uniform(3, 1));
  Channel Chan(RT);
  static Channel *ChanPtr;
  ChanPtr = &Chan;
  constexpr int Messages = 40;
  static std::atomic<int64_t> Received;
  static std::atomic<bool> Done;
  Received = 0;
  Done = false;

  RT.run(
      [](Runtime &, VProc &VP, void *) {
        // Prober: intercepted messages go right back into the channel.
        VP.spawn({[](Runtime &, VProc &VP, Task) {
                    while (!Done.load(std::memory_order_acquire)) {
                      RootScope S(VP.heap());
                      Ref<> Out = S.root(Value::nil());
                      if (ChanPtr->tryRecv(VP, Out))
                        ChanPtr->send(VP, Out);
                      VP.poll();
                      std::this_thread::yield();
                    }
                  },
                  nullptr, Value::nil(), 0, 0});
        // Sender: synchronous sends; each blocks until *someone* takes
        // the message (the receiver's waiter or the prober).
        VP.spawn({[](Runtime &, VProc &VP, Task) {
                    for (int I = 0; I < Messages; ++I) {
                      RootScope S(VP.heap());
                      Ref<> Msg = S.root(makeIntList(VP.heap(), 5));
                      ChanPtr->send(VP, Msg);
                    }
                  },
                  nullptr, Value::nil(), 0, 0});
        // Receiver: the main vproc takes every message.
        for (int I = 0; I < Messages; ++I) {
          RootScope S(VP.heap());
          Ref<> Msg = ChanPtr->recv(S, VP);
          Received.fetch_add(listSum(Msg));
        }
        Done.store(true, std::memory_order_release);
      },
      nullptr);

  EXPECT_EQ(Received.load(), Messages * intListSum(5));
  EXPECT_EQ(Chan.pendingSends(), 0u);
  EXPECT_EQ(Chan.pendingRecvs(), 0u);
  verifyWorld(RT.world());
}

TEST(Channel, SelectRecvParksUntilLateSender) {
  // selectRecv's real blocking path: no channel is ready, the selector
  // registers one waiter on both and parks; the late sender claims it,
  // fills it, and rings.
  Runtime RT(chanConfig(2), Topology::uniform(2, 1));
  Channel A(RT), B(RT);
  static Channel *ChanA, *ChanB;
  ChanA = &A;
  ChanB = &B;
  static int64_t Got;
  static unsigned Which;
  Got = 0;
  Which = 99;

  RT.run(
      [](Runtime &, VProc &VP, void *) {
        static JoinCounter Join;
        Join.add();
        VP.spawn({[](Runtime &, VProc &VP, Task) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(15));
                    ChanB->send(VP, Value::fromInt(321));
                    Join.sub();
                  },
                  nullptr, Value::nil(), 0, 0});
        Channel *Chans[2] = {ChanA, ChanB};
        Value V = Channel::selectRecv(VP, Chans, 2, &Which);
        Got = V.asInt();
        VP.joinWait(Join);
      },
      nullptr);

  EXPECT_EQ(Got, 321);
  EXPECT_EQ(Which, 1u);
  EXPECT_EQ(A.pendingRecvs(), 0u) << "losing waiters must be withdrawn";
  EXPECT_EQ(B.pendingRecvs(), 0u);
}

TEST(Channel, ManyMessagesManyCollections) {
  RuntimeConfig Cfg = chanConfig(3);
  Cfg.GC.GlobalGCBytesPerVProc = 256 * 1024;
  Runtime RT(Cfg, Topology::uniform(3, 1));
  Channel Chan(RT);
  static ChanCtx Ctx;
  Ctx.Chan = &Chan;
  Ctx.Received = 0;
  Ctx.Done = 0;
  Ctx.Messages = 60;

  RT.run(
      [](Runtime &RT, VProc &VP, void *CtxP) {
        auto *Ctx = static_cast<ChanCtx *>(CtxP);
        VP.spawn({receiverTask, Ctx, Value::nil(), 0, 0});
        for (int I = 0; I < Ctx->Messages; ++I) {
          RootScope Scope(VP.heap());
          Ref<> Msg = Scope.root(makeIntList(VP.heap(), 25));
          Ctx->Chan->send(VP, Msg);
          // Interleave garbage to drive collections.
          allocGarbage(VP.heap(), 50);
        }
        while (Ctx->Done.load() == 0)
          VP.poll();
        (void)RT;
      },
      &Ctx);

  EXPECT_EQ(Ctx.Received.load(), 60 * intListSum(25));
  verifyWorld(RT.world());
}

TEST(Channel, SpinningReceiverJoinsGlobalGC) {
  // A receiver blocked in recv spins in user space before it parks, and
  // that spin must keep polling: a global collection requested by
  // another vproc while the receiver waits has to complete promptly,
  // and the message sent afterwards must arrive intact.
  Runtime RT(chanConfig(2), Topology::uniform(2, 1));
  Channel Chan(RT);
  static Channel *ChanPtr;
  ChanPtr = &Chan;
  static uint64_t GCsBefore, GCsAfter;
  static int64_t Got;
  GCsBefore = GCsAfter = 0;
  Got = 0;

  RT.run(
      [](Runtime &, VProc &VP, void *) {
        VP.spawn({[](Runtime &RT2, VProc &VP, Task) {
                    RootScope S(VP.heap());
                    Ref<> Msg = S.root(makeIntList(VP.heap(), 17));
                    // Request the collection the moment the receiver is
                    // registered, i.e. while it is normally still in its
                    // spin stage, and join it ourselves.
                    while (ChanPtr->pendingRecvs() == 0)
                      VP.poll();
                    GCsBefore = RT2.world().globalGCCount();
                    RT2.world().requestGlobalGC();
                    VP.heap().safePoint();
                    GCsAfter = RT2.world().globalGCCount();
                    ChanPtr->send(VP, Msg);
                  },
                  nullptr, Value::nil(), 0, 0});
        RootScope S(VP.heap());
        Ref<> Msg = ChanPtr->recv(S, VP);
        Got = listSum(Msg);
      },
      nullptr);

  EXPECT_GT(GCsAfter, GCsBefore) << "the requested collection must finish";
  EXPECT_EQ(Got, intListSum(17));
  // The receiver reaches the collection from its spin (or, on a loaded
  // host, its yield or park stage: the request rings the broadcast
  // doorbell), never by running out a park backstop chain. 50 ms leaves
  // room for sanitizer slowdown and descheduling on a shared host.
  const VProcHeap &Receiver = RT.vproc(0).heap();
  EXPECT_GE(Receiver.Stats.GlobalSafepointWait.count(), 1u);
  EXPECT_LT(Receiver.Stats.GlobalSafepointWait.maxNanos(), 50'000'000u);
}

TEST(Channel, PlainBlockingRecvAllocatesNoProxy) {
  // A recv with no continuation data has nothing for a proxy to
  // protect: blocking on it must allocate nothing in the global heap and
  // register nothing in the vproc's ProxyTable, even while parked.
  Runtime RT(chanConfig(2), Topology::uniform(2, 1));
  Channel Chan(RT);
  static Channel *ChanPtr;
  ChanPtr = &Chan;
  static std::size_t ProxiesBefore, ProxiesWhileBlocked, ProxiesAfter;
  static uint64_t GlobalBytesBefore, GlobalBytesAfter;
  static int64_t Got;
  Got = 0;

  RT.run(
      [](Runtime &, VProc &VP, void *) {
        VP.spawn({[](Runtime &RT2, VProc &VP, Task) {
                    while (ChanPtr->pendingRecvs() == 0)
                      VP.poll();
                    // pendingRecvs() took the channel lock after the
                    // receiver registered, and nothing collects while it
                    // waits (neither side allocates), so its table is
                    // stable to read here.
                    ProxiesWhileBlocked =
                        RT2.vproc(0).heap().ProxyTable.size();
                    ChanPtr->send(VP, Value::fromInt(42));
                  },
                  nullptr, Value::nil(), 0, 0});
        VProcHeap &H = VP.heap();
        ProxiesBefore = H.ProxyTable.size();
        GlobalBytesBefore = H.Stats.BytesAllocatedGlobal;
        Got = ChanPtr->recv(VP).asInt();
        GlobalBytesAfter = H.Stats.BytesAllocatedGlobal;
        ProxiesAfter = H.ProxyTable.size();
      },
      nullptr);

  EXPECT_EQ(Got, 42);
  EXPECT_EQ(GlobalBytesAfter, GlobalBytesBefore);
  EXPECT_EQ(ProxiesWhileBlocked, ProxiesBefore);
  EXPECT_EQ(ProxiesAfter, ProxiesBefore);
}

TEST(Channel, HandoffToProxyFreeReceiverSurvivesGlobalGC) {
  // The proxy-free receive keeps its message alive through the waiter
  // queue alone. Force a global collection into the window between the
  // hand-off and the receiver's wake-up: the sender requests it, waits
  // for the blocked receiver to join, hands off a global list it no
  // longer roots, then joins too. The collection moves the list while
  // only the channel's root enumeration knows about it.
  Runtime RT(chanConfig(2), Topology::uniform(2, 1));
  Channel Chan(RT);
  static Channel *ChanPtr;
  ChanPtr = &Chan;
  static uint64_t GCsBefore, GCsAtWake;
  static int64_t Got;
  GCsBefore = GCsAtWake = 0;
  Got = 0;

  RT.run(
      [](Runtime &, VProc &VP, void *) {
        VP.spawn({[](Runtime &RT2, VProc &VP, Task) {
                    {
                      RootScope S(VP.heap());
                      Ref<> Msg = S.root(makeIntList(VP.heap(), 23));
                      // Promote now, so send() itself allocates nothing
                      // once the collection is pending.
                      Msg = promote(S, Msg);
                      while (ChanPtr->pendingRecvs() == 0)
                        VP.poll();
                      GCsBefore = RT2.world().globalGCCount();
                      RT2.world().requestGlobalGC();
                      // The receiver polls in its spin, or is rung out
                      // of its park, and waits in the collection.
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(50));
                      ChanPtr->send(VP, Msg);
                    }
                    VP.heap().safePoint();
                  },
                  nullptr, Value::nil(), 0, 0});
        RootScope S(VP.heap());
        Ref<> Msg = ChanPtr->recv(S, VP);
        GCsAtWake = VP.runtime().world().globalGCCount();
        Got = listSum(Msg);
      },
      nullptr);

  EXPECT_GT(GCsAtWake, GCsBefore)
      << "the collection must land between hand-off and wake-up";
  EXPECT_EQ(Got, intListSum(23));
  verifyWorld(RT.world());
}
