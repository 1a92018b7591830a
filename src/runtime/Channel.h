//===- runtime/Channel.h - CML-style synchronous channels -----------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explicitly-threaded layer: synchronous message passing in the
/// style of Concurrent ML (paper Section 2.1, [RRX09]). A send blocks
/// until a receiver takes the message and vice versa.
///
/// Messages cross vprocs, so a sent value is promoted to the global heap
/// before it is enqueued -- the second of the paper's two points where
/// data leaves a local heap (Section 2.3).
///
/// A blocked receiver parks a *continuation record* in its own local
/// heap and hands the channel an object proxy wrapping it (Section 3.1,
/// footnote 1: proxies "allow references from the global heap back into
/// the local heap. We use them in the implementation of our explicit
/// concurrency constructs"). The proxy keeps the local record alive and
/// trackable across the receiver's local collections and across global
/// collections while the receiver is blocked; on wake-up the receiver
/// resolves the proxy and resumes with its continuation data. A receive
/// with no continuation data (every plain recv(VP)) registers its waiter
/// with a nil proxy instead: no global allocation and no ProxyTable
/// entry, and the message itself is rooted by the waiter queue as on
/// the proxy path.
///
/// Blocking goes through the scheduler: a blocked receiver registers a
/// Waiter carrying its home node, spins on it in user space for the
/// spin budget (Scheduler::blockOn; none when the vprocs outnumber the
/// CPUs), then parks on its node's doorbell; send() claims the waiter
/// (a CAS -- selectRecv registers one waiter on several channels, whose
/// senders hold different locks), fills it, marks it Ready, and *rings
/// the receiver's node*. Blocked senders symmetrically spin, then park, until a
/// consumer sets their item's Taken completion flag and rings the
/// sender's node. The two-flag handoff
/// (Claimed to pick a unique filler, Ready/Taken to publish completion)
/// is also what keeps tryRecv non-blocking: a consumer claims a queued
/// item by unlinking it under the lock, so a concurrent tryRecv sees
/// either an available item or an empty queue -- never a mid-handoff
/// item it would have to wait on.
///
/// The channel object itself is runtime (C++) state registered as a
/// global GC root provider; everything it references in the heap is
/// global or proxy-mediated.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_RUNTIME_CHANNEL_H
#define MANTI_RUNTIME_CHANNEL_H

#include "gc/Handles.h"
#include "gc/Heap.h"
#include "runtime/Runtime.h"
#include "support/SpinLock.h"

#include <deque>

namespace manti {

class Channel : public GlobalRootProvider {
public:
  explicit Channel(Runtime &RT);
  ~Channel();

  Channel(const Channel &) = delete;
  Channel &operator=(const Channel &) = delete;

  /// Sends \p V, blocking until a receiver takes it. \p V is promoted.
  void send(VProc &VP, Value V);

  /// Handle face: sends the handle's current value.
  void send(VProc &VP, const Ref<> &V) { send(VP, V.value()); }

  /// Receives a value, blocking until a sender provides one.
  /// \p ContData, when non-nil, is local continuation data the receiver
  /// wants back on wake-up; it rides in a proxy while blocked. \returns
  /// the (global) message; *ContOut, when non-null, receives the
  /// continuation data back.
  Value recv(VProc &VP, Value ContData = Value::nil(),
             Value *ContOut = nullptr);

  /// Handle face: the received message comes back rooted in \p S.
  Ref<Object> recv(RootScope &S, VProc &VP) { return S.root(recv(VP)); }

  /// Handle face with continuation data: \p ContOut (when non-null) has
  /// its rooted slot overwritten with the recovered continuation.
  Ref<Object> recv(RootScope &S, VProc &VP, Value ContData,
                   Ref<> *ContOut) {
    Value Cont;
    Ref<Object> Msg = S.root(recv(VP, ContData, &Cont));
    if (ContOut)
      *ContOut = Cont;
    return Msg;
  }

  /// Non-blocking receive; \returns true and stores into \p Out if a
  /// sender was waiting.
  bool tryRecv(VProc &VP, Value &Out);

  /// Handle face: on success \p Out's rooted slot holds the message.
  bool tryRecv(VProc &VP, Ref<> &Out) {
    Value V;
    if (!tryRecv(VP, V))
      return false;
    Out = V;
    return true;
  }

  /// CML-style choice over several channels: blocks until one of
  /// \p Chans has a message, receives it, and \returns it; *WhichOut
  /// (when non-null) gets the index of the chosen channel. One Waiter is
  /// registered on every channel and parked in the ParkLot; the first
  /// sender to *claim* it wins, and losers are never committed, matching
  /// CML's choose semantics for recv events.
  static Value selectRecv(VProc &VP, Channel *const *Chans, unsigned N,
                          unsigned *WhichOut = nullptr);

  /// Handle face of selectRecv.
  static Ref<Object> selectRecv(RootScope &S, VProc &VP,
                                Channel *const *Chans, unsigned N,
                                unsigned *WhichOut = nullptr) {
    return S.root(selectRecv(VP, Chans, N, WhichOut));
  }

  /// Number of blocked senders / receivers (racy; for tests and stats).
  std::size_t pendingSends() const;
  std::size_t pendingRecvs() const;

  /// Global-root enumeration (called by the global collector's leader
  /// while the world is stopped).
  void enumerateGlobalRoots(RootSlotVisitor Visit, void *Ctx) override;

private:
  /// A blocked sender's queue entry (stack-allocated in send()). A
  /// consumer unlinks it under the channel lock -- claiming it -- then
  /// stores the Taken *completion flag* outside the lock; the sender
  /// parks until Taken and must touch nothing after setting it free.
  struct SendItem {
    Word Bits;
    NodeId Node; ///< sender's node: rung when the item is taken
    std::atomic<bool> Taken{false};
  };
  /// A blocked receiver (or selectRecv) registration. Claimed picks the
  /// unique filler (CAS; selectRecv shares one waiter across channels),
  /// Ready publishes the filled cell. The waiter stays registered until
  /// the receiver removes it, so the channel's root enumeration keeps
  /// the handed-off value alive across a global collection that lands
  /// between hand-off and wake-up.
  struct Waiter {
    Word CellBits = 0;
    Word ProxyBits = 0;           ///< nil when there is no continuation
    NodeId Node = 0;              ///< receiver's node: rung on hand-off
    Channel *FilledBy = nullptr;  ///< written by the claimant before Ready
    std::atomic<bool> Claimed{false};
    std::atomic<bool> Ready{false};
  };

  /// Claims the oldest unclaimed parked receiver, \returns it (the
  /// caller fills and rings it) or null. Caller holds Lock.
  Waiter *claimReceiverLocked();

  /// Completes a queued item popped from Senders: publishes Taken and
  /// rings the sender's node. Call *without* the lock held.
  void finishTake(VProc &VP, SendItem *Item);

  Runtime &RT;
  mutable SpinLock Lock;
  std::deque<SendItem *> Senders;
  std::deque<Waiter *> Receivers;
};

} // namespace manti

#endif // MANTI_RUNTIME_CHANNEL_H
